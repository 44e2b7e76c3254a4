"""Core model: games with exact rational pairwise values, coalitions, partitions.

A game is a fixed ordered set of player labels together with a value
``v_i(j)`` for every ordered pair of players. Values are exact rationals,
stored as integer rows over one common positive scale; the self-value
``v_i(i)`` is always zero, and all derived quantities (utilities,
comparisons) are computed exactly. Players are addressed by dense 0-based
index internally; labels exist for I/O.

Coalitions are frozensets of player indices; partitions keep their blocks in
a canonical order (ascending smallest member) so that every downstream
witness is deterministic.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Tuple, Union

from .errors import (
    DuplicatePlayer,
    EmptyCoalition,
    EmptyGame,
    GameFormatError,
    MissingPlayer,
    PlayerNotInCoalition,
    UnknownPlayer,
)

Rational = Union[int, Fraction]
Coalition = frozenset

_LABEL_RE = re.compile(r"^[^\s#]+$")


def _as_rational(value) -> Rational:
    """An int or a Fraction as given; other exact numbers converted; floats rejected."""
    if type(value) is int or type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise GameFormatError(f"floating-point value {value!r} rejected; use Fraction or int")
    return Fraction(value)


class Game:
    """An additively separable hedonic game over ``n`` labeled players.

    Values are stored once, as integers: ``v_i(j) == rows[i][j] / scale``,
    where ``scale`` is the lcm of the denominators of the stored off-diagonal
    values. Equal games therefore have equal ``(rows, scale)``, and since the
    scale is positive, sums and comparisons of row entries agree exactly with
    the rational values. ``value`` and the utility functions return
    ``Fraction``s.
    """

    __slots__ = ("labels", "_index", "rows", "scale")

    def __init__(
        self,
        labels: Sequence[str],
        values: Mapping[Tuple[str, str], Rational] = (),
        default: Rational = 0,
    ):
        labels = tuple(labels)
        if not labels:
            raise EmptyGame()
        seen = set()
        for lab in labels:
            if not isinstance(lab, str) or not _LABEL_RE.match(lab):
                raise GameFormatError(f"bad player label: {lab!r}")
            if lab in seen:
                raise GameFormatError(f"duplicate player label: {lab!r}")
            seen.add(lab)
        self.labels = labels
        self._index = {lab: i for i, lab in enumerate(labels)}
        n = len(labels)
        d = _as_rational(default)
        cells = []
        for (a, b), v in dict(values).items():
            i, j = self.index(a), self.index(b)
            v = _as_rational(v)
            if i == j:
                if v != 0:
                    raise GameFormatError(f"nonzero self-value for player {a!r}")
                continue
            cells.append((i, j, v))
        # the default counts towards the scale only if some pair takes it
        uses_default = len(cells) < n * (n - 1)
        denominators = {v.denominator for _i, _j, v in cells}
        if uses_default:
            denominators.add(d.denominator)
        scale = math.lcm(*denominators)
        fill = d.numerator * (scale // d.denominator) if uses_default else 0
        rows = [[fill] * n for _ in range(n)]
        for i, j, v in cells:
            rows[i][j] = v.numerator * (scale // v.denominator)
        for i in range(n):
            rows[i][i] = 0
        self.rows = tuple(map(tuple, rows))
        self.scale = scale

    @classmethod
    def from_matrix(cls, labels: Sequence[str], rows: Sequence[Sequence[Rational]]) -> "Game":
        """Build a game from a dense value matrix (diagonal must be zero)."""
        labels = tuple(labels)
        if len(rows) != len(labels) or any(len(r) != len(labels) for r in rows):
            raise GameFormatError("matrix shape does not match the player count")
        return cls(labels, {(a, b): v for a, row in zip(labels, rows) for b, v in zip(labels, row)})

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownPlayer(label) from None

    def label(self, player: int) -> str:
        self._check_player(player)
        return self.labels[player]

    def value(self, i: int, j: int) -> Fraction:
        self._check_player(i)
        self._check_player(j)
        return Fraction(self.rows[i][j], self.scale)

    def _check_player(self, player) -> None:
        if not isinstance(player, int) or not 0 <= player < self.n:
            raise UnknownPlayer(player)

    def _check_members(self, members: Iterable[int]) -> None:
        for j in members:
            self._check_player(j)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Game):
            return NotImplemented
        return (self.labels, self.rows, self.scale) == (other.labels, other.rows, other.scale)

    def __hash__(self) -> int:
        return hash((self.labels, self.rows, self.scale))

    def __repr__(self) -> str:
        return f"Game({self.n} players: {' '.join(self.labels)})"


def int_utility(game: Game, player: int, members: Iterable[int]) -> int:
    """``game.scale`` times the player's utility in ``members``; no checks.

    ``members`` may include the player itself, whose self-value is zero.
    """
    row = game.rows[player]
    return sum(row[j] for j in members)


class Partition:
    """Disjoint coalitions; blocks kept in ascending-smallest-member order."""

    __slots__ = ("blocks", "_block_of")

    def __init__(self, blocks: Iterable[Iterable[int]]):
        cleaned = []
        for b in blocks:
            fs = frozenset(b)
            if not fs:
                raise EmptyCoalition()
            cleaned.append(fs)
        block_of = {}
        for fs in cleaned:
            for p in fs:
                if p in block_of:
                    raise DuplicatePlayer(p)
                block_of[p] = fs
        self.blocks = tuple(sorted(cleaned, key=min))
        self._block_of = block_of

    def block_of(self, player: int) -> Coalition:
        try:
            return self._block_of[player]
        except KeyError:
            raise UnknownPlayer(player) from None

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls([p] for p in range(n))

    @classmethod
    def grand(cls, n: int) -> "Partition":
        return cls([range(n)])

    @classmethod
    def of_labels(cls, game: Game, groups: Iterable[Iterable[str]]) -> "Partition":
        return cls([game.index(lab) for lab in g] for g in groups)

    def players(self) -> frozenset:
        return frozenset(self._block_of)

    def __iter__(self):
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return set(self.blocks) == set(other.blocks)

    def __hash__(self) -> int:
        return hash(frozenset(self.blocks))

    def __repr__(self) -> str:
        inner = " | ".join(" ".join(str(p) for p in sorted(b)) for b in self.blocks)
        return f"Partition({inner})"


def validate_partition(game: Game, partition) -> Partition:
    """Check that ``partition`` is a partition of the game's player set.

    Accepts a ``Partition`` or any iterable of coalitions. Raises
    ``DuplicatePlayer``, ``MissingPlayer``, ``UnknownPlayer``, or
    ``EmptyCoalition``; returns the validated ``Partition``.
    """
    if not isinstance(partition, Partition):
        partition = Partition(partition)
    covered = partition.players()
    for p in covered:
        game._check_player(p)
    for p in range(game.n):
        if p not in covered:
            raise MissingPlayer(p)
    return partition


def utility(game: Game, coalition: Iterable[int], player: int) -> Fraction:
    """Utility of ``player`` in ``coalition``: the sum of its values for the others."""
    members = frozenset(coalition)
    game._check_members(members)
    if player not in members:
        raise PlayerNotInCoalition(player)
    return Fraction(int_utility(game, player, members), game.scale)


def partition_utility(game: Game, partition: Partition, player: int) -> Fraction:
    part = validate_partition(game, partition)
    game._check_player(player)
    return utility(game, part.block_of(player), player)


def friends(game: Game, player: int, pool: Iterable[int]) -> frozenset:
    """Members of ``pool`` the player strictly likes (positive value)."""
    game._check_player(player)
    pool = frozenset(pool)
    game._check_members(pool)
    row = game.rows[player]
    return frozenset(j for j in pool if row[j] > 0)


def is_symmetric(game: Game) -> bool:
    m = game.rows
    n = game.n
    return all(m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n))


def is_strict(game: Game) -> bool:
    m = game.rows
    n = game.n
    return all(m[i][j] != 0 for i in range(n) for j in range(n) if i != j)


def is_individually_rational(game: Game, partition: Partition) -> Tuple[bool, Optional[int]]:
    """Whether every player does at least as well as alone; else the lowest violator."""
    part = validate_partition(game, partition)
    for p in range(game.n):
        if int_utility(game, p, part.block_of(p)) < 0:
            return False, p
    return True, None
