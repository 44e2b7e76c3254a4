"""Core model: games with exact rational pairwise values, coalitions, partitions.

A game is a fixed ordered set of player labels together with a value
``v_i(j)`` for every ordered pair of players. Values are exact rationals,
given as ``int`` or ``Fraction`` and stored as sparse integer rows over one
common positive scale; the self-value ``v_i(i)`` is always zero, and all
derived quantities (utilities, comparisons) are computed exactly. Players are
addressed by dense 0-based ``int`` index internally; labels exist for I/O.

Coalitions are frozensets of player indices; partitions keep their blocks in
a canonical order (ascending smallest member) so that every downstream
witness is deterministic.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Collection, Iterable, Mapping, Sequence, Sized, Tuple, Union

from .errors import (
    DuplicatePlayer,
    EmptyCoalition,
    EmptyGame,
    GameFormatError,
    InvalidPartition,
    MissingPlayer,
    PlayerNotInCoalition,
    TooLarge,
    UnknownPlayer,
    shown,
)

Rational = Union[int, Fraction]
Coalition = frozenset

_LABEL_RE = re.compile(r"[^\s#]+")


def _as_rational(value) -> Rational:
    """An int or a Fraction as given; any other value, a bool included, is refused by its type."""
    if type(value) is int or type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise GameFormatError(f"floating-point value {value!r} rejected; use Fraction or int")
    raise GameFormatError(f"value of type {type(value).__name__} rejected; use Fraction or int")


# Most off-diagonal cells a game may store when its unlisted pairs take a
# nonzero default: such a game is dense, and each cell costs a dict entry.
DENSE_CAP = 1_000_000


def scaled_rows(cells: list, values: dict, default: Rational):
    """``(rows, scale)`` from per-row cells ``{column: key}`` and each key's value (see
    ``Game``). Each distinct value is scaled once; ``cells`` is emptied row by row."""
    n = len(cells)  # the default counts only if some off-diagonal pair takes it
    uses_default = default != 0 and any(len(row) - (i in row) < n - 1 for i, row in enumerate(cells))
    scale = math.lcm(*{v.denominator for v in values.values() if type(v) is not int},
                     default.denominator if uses_default else 1)
    scaled = {k: v * scale if type(v) is int else v.numerator * (scale // v.denominator)
              for k, v in values.items()}
    fill = default.numerator * (scale // default.denominator) if uses_default else 0
    if fill and n * (n - 1) > DENSE_CAP:
        raise TooLarge(n * (n - 1), DENSE_CAP, "cells", "dense-game")
    scaled[None] = fill  # the key of every pair not given
    rows = []
    for i, row in enumerate(cells):
        cells[i] = None  # dropped once its row is built
        get = row.get
        rows.append({j: s for j in (range(n) if fill else sorted(row)) if (s := scaled[get(j)]) and j != i})
    return rows, scale


def dense_rows(game: "Game") -> list:
    """The integer rows as an n×n matrix of lists, for the exhaustive searches (n is capped)."""
    return [[row.get(j, 0) for j in range(game.n)] for row in game.rows]


def _from_cells(labels: Tuple[str, ...], index: dict, cells: list, values: dict, default: Rational) -> "Game":
    """The trusted constructor: labels valid and distinct, ``index`` their positions, no nonzero self-value."""
    game = Game.__new__(Game)
    game.labels, game._index = labels, index
    game.rows, game.scale = scaled_rows(cells, values, default)
    return game


class Game:
    """An additively separable hedonic game over ``n`` labeled players.

    Values are stored once, as integers, and only where they are nonzero:
    ``rows[i]`` is a dict, to be read and not changed, that maps each player
    ``j != i`` with ``v_i(j) != 0`` to ``v_i(j) * scale``, in ascending ``j``.
    ``scale`` is the lcm of the denominators of the given off-diagonal values
    (and of the default, if some pair takes it). Equal games therefore have
    equal ``(rows, scale)``, and since the scale is positive, sums and
    comparisons of row entries agree exactly with the rational values. A game
    costs its nonzero values, not n², unless a nonzero default fills every
    pair; ``DENSE_CAP`` bounds that case. ``value`` and the utility functions
    return ``Fraction``s.
    """

    __slots__ = ("labels", "_index", "rows", "scale")

    def __init__(self, labels: Sequence[str], values: Mapping[Tuple[str, str], Rational] = (),
                 default: Rational = 0):
        labels = tuple(labels)
        if not labels:
            raise EmptyGame()
        self.labels, self._index = labels, {}
        for i, lab in enumerate(labels):
            if not isinstance(lab, str) or not _LABEL_RE.fullmatch(lab):
                raise GameFormatError(f"bad player label: {shown(lab)}")
            if self._index.setdefault(lab, i) != i:
                raise GameFormatError(f"duplicate player label: {shown(lab)}")
        default = _as_rational(default)
        cells, distinct = [{} for _ in labels], {}  # each value is its own key
        for key, v in dict(values).items():
            if not isinstance(key, tuple) or len(key) != 2:
                raise GameFormatError(f"a value's key is a pair of labels, not {shown(key)}")
            i, j = self.index(key[0]), self.index(key[1])
            v = _as_rational(v)
            if i == j and v != 0:
                raise GameFormatError(f"nonzero self-value for player {shown(labels[i])}")
            cells[i][j] = distinct[v] = v
        self.rows, self.scale = scaled_rows(cells, distinct, default)

    @classmethod
    def from_matrix(cls, labels: Sequence[str], rows: Sequence[Sequence[Rational]]) -> "Game":
        """A game from a dense value matrix (zero diagonal); its pairs are made lazily, once the labels are checked."""
        labels = tuple(labels)
        if len(rows) != len(labels) or any(not isinstance(r, Sized) or len(r) != len(labels) for r in rows):
            raise GameFormatError("matrix shape does not match the player count")
        return cls(labels, (((a, b), v) for a, row in zip(labels, rows) for b, v in zip(labels, row)))

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise UnknownPlayer(label) from None

    def label(self, player: int) -> str:
        self._check_player(player)
        return self.labels[player]

    def value(self, i: int, j: int) -> Fraction:
        self._check_player(i)
        self._check_player(j)
        return Fraction(self.rows[i].get(j, 0), self.scale)

    def _check_player(self, player) -> None:
        if type(player) is not int or not 0 <= player < self.n:  # a bool is not a player
            raise UnknownPlayer(player)

    def _members(self, players: Iterable[int]) -> frozenset:
        """The players as a frozenset, each checked as by ``_check_player`` before it is hashed."""
        players = list(players)
        for p in players:
            self._check_player(p)
        return frozenset(players)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Game):
            return NotImplemented
        return (self.labels, self.rows, self.scale) == (other.labels, other.rows, other.scale)

    def __hash__(self) -> int:
        return hash((self.labels, tuple(tuple(row.items()) for row in self.rows), self.scale))

    def __repr__(self) -> str:
        return f"Game({self.n} players: {' '.join(self.labels)})"


def int_utility(game: Game, player: int, members: Collection[int]) -> int:
    """``game.scale`` times the player's utility in ``members``; no checks.

    ``members`` (a set, for speed) may include the player itself, whose
    self-value is zero. The smaller of it and the player's row is walked.
    """
    row = game.rows[player]
    if len(row) <= len(members):
        return sum(v for j, v in row.items() if j in members)
    get = row.get
    return sum(get(j, 0) for j in members)


class Partition:
    """Disjoint coalitions; blocks kept in ascending-smallest-member order."""

    __slots__ = ("blocks", "_block_of")

    def __init__(self, blocks: Iterable[Iterable[int]]):
        try:
            cleaned = [list(b) for b in blocks]
        except TypeError:
            raise InvalidPartition("coalitions must be iterables of players") from None
        if not all(cleaned):
            raise EmptyCoalition()
        seen = set()
        for members in cleaned:
            for p in members:  # each member is checked before it is hashed or sorted
                if type(p) is not int:  # a bool is not a player
                    raise UnknownPlayer(p)
                if p in seen:  # a player listed twice in one block is a duplicate too
                    raise DuplicatePlayer(p)
                seen.add(p)
        self.blocks = tuple(sorted(map(frozenset, cleaned), key=min))
        self._block_of = {p: block for block in self.blocks for p in block}

    def block_of(self, player: int) -> Coalition:
        if type(player) is not int or player not in self._block_of:  # a bool is not a player
            raise UnknownPlayer(player)
        return self._block_of[player]

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls([p] for p in range(n))

    @classmethod
    def grand(cls, n: int) -> "Partition":
        return cls([range(n)])

    @classmethod
    def of_labels(cls, game: Game, groups: Iterable[Iterable[str]]) -> "Partition":
        return cls([game.index(lab) for lab in g] for g in groups)

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
    ``DuplicatePlayer``, ``MissingPlayer``, ``UnknownPlayer``, ``EmptyCoalition``
    or ``InvalidPartition``; returns the validated ``Partition``.
    """
    if not isinstance(partition, Partition):
        partition = Partition(partition)
    covered = frozenset(partition._block_of)
    for p in covered:
        game._check_player(p)
    for p in range(game.n):
        if p not in covered:
            raise MissingPlayer(p)
    return partition


def utility(game: Game, coalition: Iterable[int], player: int) -> Fraction:
    """Utility of ``player`` in ``coalition``: the sum of its values for the others."""
    members = game._members(coalition)
    if type(player) is not int or player not in members:  # a bool is not a player
        raise PlayerNotInCoalition(player)
    return Fraction(int_utility(game, player, members), game.scale)


def partition_utility(game: Game, partition: Partition, player: int) -> Fraction:
    # a validated partition covers exactly the players, so block_of refuses any other player
    return Fraction(int_utility(game, player, validate_partition(game, partition).block_of(player)), game.scale)


def friends(game: Game, player: int, pool: Iterable[int]) -> frozenset:
    """Members of ``pool`` the player strictly likes (positive value)."""
    game._check_player(player)
    pool = game._members(pool)
    get = game.rows[player].get
    return frozenset(j for j in pool if get(j, 0) > 0)


def is_symmetric(game: Game) -> bool:
    m = game.rows  # an asymmetric pair has a nonzero side, which is checked
    return all(m[j].get(i, 0) == v for i, row in enumerate(m) for j, v in row.items())


def is_strict(game: Game) -> bool:
    return all(len(row) == game.n - 1 for row in game.rows)
