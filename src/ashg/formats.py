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

import re
from fractions import Fraction
from typing import Optional

from .errors import GameFormatError
from .game import Game, Partition, Rational, _as_rational, _from_cells, validate_partition

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[1-9][0-9]*)?")


def parse_rational(token: str) -> Rational:
    """An ``int`` for ``p``, a ``Fraction`` for ``p/q``."""
    if not _RATIONAL_RE.fullmatch(token):
        raise GameFormatError(f"bad rational: {token!r} (use p or p/q with q > 0)")
    # the regex admits ASCII digits only, which is all int() then sees
    return Fraction(*map(int, token.split("/"))) if "/" in token else int(token)


def _content_lines(text: str):
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = (line.split("#", 1)[0] if "#" in line else line).split()
        if tokens:
            yield lineno, tokens


def parse_game(text: str) -> Game:
    """Each value is held once, as an int or ``Fraction(int, int)``, then scaled into integer rows."""
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
    cells = [{} for _ in labels]  # per row: column -> value as given
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
            cells[i][j] = value = parse_rational(tok)
            if i == j and value != 0 and self_valued is None:
                self_valued = a
        elif tokens[0] == "default":
            if len(tokens) != 2:
                raise GameFormatError(f"line {lineno}: default takes one rational")
            if default is not None:
                raise GameFormatError(f"line {lineno}: duplicate default line")
            default = parse_rational(tokens[1])
        else:
            raise GameFormatError(f"line {lineno}: unknown directive {tokens[0]!r}")
    if self_valued is not None:
        raise GameFormatError(f"nonzero self-value for player {self_valued!r}")
    return _from_cells(labels, cells, 0 if default is None else default)


def serialize_game(game: Game, default: Optional[Rational] = None) -> str:
    """Canonical text form; off-diagonal entries equal to ``default`` are elided."""
    labels, scale = game.labels, game.scale
    lines = ["players " + " ".join(labels)]
    base = 0 if default is None else _as_rational(default)
    if default is not None:
        lines.append(f"default {base}")
    elided = base * scale  # no scaled int equals it unless it is whole
    elided = elided.numerator if elided.denominator == 1 else None
    for i, row in enumerate(game.rows):
        for j, scaled in enumerate(row):
            if scaled != elided and i != j:
                lines.append(f"val {labels[i]} {labels[j]} {Fraction(scaled, scale)}")
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
