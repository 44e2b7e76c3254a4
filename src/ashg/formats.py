"""Text formats for games and partitions.

Game file (UTF-8, ``#`` starts a comment):

    players a b c
    default -33          # optional; value of every unspecified ordered pair
    val a b 6            # rational as p or p/q with q > 0

Partition file: one coalition per line, whitespace-separated labels.

Serialization is canonical: players in index order, ``val`` lines sorted by
(from-index, to-index), rationals in lowest terms; identical inputs always
produce identical bytes.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Optional

from .errors import AshgError, GameFormatError
from .game import Game, Partition, Rational, _as_rational, _from_cells, validate_partition

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[1-9][0-9]*)?")


def parse_rational(token: str, lineno: Optional[int] = None) -> Rational:
    """An ``int`` for ``p``, a ``Fraction`` for ``p/q``; ``lineno`` is named if it is too long."""
    if not _RATIONAL_RE.fullmatch(token):
        raise GameFormatError(f"bad rational: {token!r} (use p or p/q with q > 0)")
    try:  # the regex admits ASCII digits only, which is all int() then sees
        return Fraction(*map(int, token.split("/"))) if "/" in token else int(token)
    except ValueError:  # more digits than int() converts; the token is not echoed
        where = "" if lineno is None else f"line {lineno}: "
        raise GameFormatError(f"{where}rational too long: {len(token)} characters") from None


def _content_lines(text: str):
    commented = "#" in text
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = (line.split("#", 1)[0] if commented and "#" in line else line).split()
        if tokens:
            yield lineno, tokens


def parse_game(text: str) -> Game:
    """Checks and converts each distinct value token once, to an int or ``Fraction(int, int)``;
    each cell holds the first copy of its token, and ``scaled_rows`` scales each token once."""
    lines = _content_lines(text)
    lineno, tokens = next(lines, (0, None))
    if tokens is None:
        raise GameFormatError("empty game file")
    if tokens[0] != "players":
        raise GameFormatError(f"line {lineno}: expected a 'players' line first")
    labels = tuple(tokens[1:])
    if not labels:
        raise GameFormatError(f"line {lineno}: a game needs at least one player")
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise GameFormatError(f"line {lineno}: duplicate player label")
    cells = [{} for _ in labels]  # per row: column -> value token
    # for this call only, value token -> its first copy and -> its value; a bad token never enters
    seen, values = {}, {}
    default = self_valued = None  # self_valued: the first label with a nonzero self-value
    for lineno, tokens in lines:
        if tokens[0] == "val":
            if len(tokens) != 4:
                raise GameFormatError(f"line {lineno}: val takes <from> <to> <rational>")
            _, a, b, tok = tokens
            i, j = index.get(a), index.get(b)
            if i is None or j is None:
                raise GameFormatError(f"line {lineno}: undeclared player in val line")
            if j in cells[i]:
                raise GameFormatError(f"line {lineno}: duplicate val for pair {a} {b}")
            key = seen.get(tok)
            if key is None:
                values[tok] = parse_rational(tok, lineno)
                key = seen[tok] = tok
            cells[i][j] = key
            if i == j and values[key] != 0 and self_valued is None:
                self_valued = a
        elif tokens[0] == "default":
            if len(tokens) != 2:
                raise GameFormatError(f"line {lineno}: default takes one rational")
            if default is not None:
                raise GameFormatError(f"line {lineno}: duplicate default line")
            default = parse_rational(tokens[1], lineno)
        else:
            raise GameFormatError(f"line {lineno}: unknown directive {tokens[0]!r}")
    if self_valued is not None:
        raise GameFormatError(f"nonzero self-value for player {self_valued!r}")
    return _from_cells(labels, cells, values, 0 if default is None else default)


def serialize_game(game: Game, default: Optional[Rational] = None) -> str:
    """Canonical text form; off-diagonal entries equal to ``default`` are elided."""
    labels, scale = game.labels, game.scale
    lines = ["players " + " ".join(labels)]
    base = 0 if default is None else _as_rational(default)
    if default is not None:
        try:  # as below, str() refuses an int past int()'s digit limit
            lines.append(f"default {base}")
        except ValueError:
            raise AshgError("default too long to write") from None
    elided = base * scale  # no scaled int equals it unless it is whole
    elided = elided.numerator if elided.denominator == 1 else None
    for i, row in enumerate(game.rows):
        # unless zeros are elided, a pair absent from the row is written as 0
        items = row.items() if elided == 0 else ((j, row.get(j, 0)) for j in range(game.n) if j != i)
        for j, scaled in items:
            if scaled != elided:
                q = scale // math.gcd(scaled, scale)  # in lowest terms, as str(Fraction(scaled, scale))
                try:  # str() refuses an int past int()'s digit limit, as parse_game would
                    text = f"{scaled * q // scale}/{q}" if q > 1 else f"{scaled // scale}"
                except ValueError:
                    raise AshgError(f"value of {labels[i]} for {labels[j]} too long to write") from None
                lines.append(f"val {labels[i]} {labels[j]} {text}")
    return "\n".join(lines) + "\n"


def parse_partition(text: str, game: Game) -> Partition:
    groups = []
    for _lineno, tokens in _content_lines(text):
        groups.append([game.index(lab) for lab in tokens])
    return validate_partition(game, groups)


def serialize_partition(game: Game, partition: Partition) -> str:
    part = validate_partition(game, partition)
    lines = [" ".join(game.labels[p] for p in sorted(block)) for block in part.blocks]
    return "\n".join(lines) + "\n"
