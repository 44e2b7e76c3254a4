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
from .game import Game, Partition, Rational, validate_partition

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[1-9][0-9]*)?")


def parse_rational(token: str) -> Rational:
    """An ``int`` for ``p``, a ``Fraction`` for ``p/q``."""
    if not _RATIONAL_RE.fullmatch(token):
        raise GameFormatError(f"bad rational: {token!r} (use p or p/q with q > 0)")
    # the regex admits ASCII digits only, which is all int() then sees
    return Fraction(token) if "/" in token else int(token)


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def parse_game(text: str) -> Game:
    labels = None
    default = None
    values = {}
    for lineno, tokens in _content_lines(text):
        kind, args = tokens[0], tokens[1:]
        if labels is None:
            if kind != "players":
                raise GameFormatError(f"line {lineno}: expected a 'players' line first")
            if not args:
                raise GameFormatError(f"line {lineno}: a game needs at least one player")
            labels = args
            known = set(labels)
            if len(known) != len(labels):
                raise GameFormatError(f"line {lineno}: duplicate player label")
            continue
        if kind == "default":
            if len(args) != 1:
                raise GameFormatError(f"line {lineno}: default takes one rational")
            if default is not None:
                raise GameFormatError(f"line {lineno}: duplicate default line")
            default = parse_rational(args[0])
        elif kind == "val":
            if len(args) != 3:
                raise GameFormatError(f"line {lineno}: val takes <from> <to> <rational>")
            a, b, tok = args
            if a not in known or b not in known:
                raise GameFormatError(f"line {lineno}: undeclared player in val line")
            if (a, b) in values:
                raise GameFormatError(f"line {lineno}: duplicate val for pair {a} {b}")
            values[(a, b)] = parse_rational(tok)
        else:
            raise GameFormatError(f"line {lineno}: unknown directive {kind!r}")
    if labels is None:
        raise GameFormatError("empty game file")
    return Game(labels, values, default=default if default is not None else 0)


def serialize_game(game: Game, default: Optional[Fraction] = None) -> str:
    """Canonical text form; off-diagonal entries equal to ``default`` are elided."""
    lines = ["players " + " ".join(game.labels)]
    base = Fraction(0) if default is None else Fraction(default)
    if default is not None:
        lines.append(f"default {format_rational(base)}")
    for i, row in enumerate(game.rows):
        for j, scaled in enumerate(row):
            if i == j:
                continue
            v = Fraction(scaled, game.scale)
            if v != base:
                lines.append(f"val {game.labels[i]} {game.labels[j]} {format_rational(v)}")
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
