"""Hardness-gadget instance families and their brute-force source oracles.

Three constructions:

* a six-player symmetric game with an empty core (the hexagon game),
* a symmetric game built from an exact-cover-by-3-sets instance with
  distinct triples; an exact cover gives a core-stable witness partition,
  which is weakly blocked (so not strict-core stable) whenever the cover
  leaves a triple out,
* an asymmetric game built from a weight-splitting instance, whose grand
  coalition is contractual-strict-core stable (and Pareto optimal) exactly
  when the weights cannot be split into two equal halves.

The oracles solve the source problems directly, by exhaustive search (meet in
the middle for PARTITION), and are independent of the game-side verifiers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Tuple, Union

from .errors import (
    GameFormatError,
    InvalidInstance,
    NotACover,
    NotAnEqualSplit,
    TooLarge,
    shown,
)
from .formats import _content_lines
from .game import Game, Partition

E3C_ORACLE_CAP = 24
PARTITION_ORACLE_CAP = 30

# hexagon edge weights shared by the six-player example and the exact-cover
# gadget: (i, j, w) over positions 1..6, symmetric, all other pairs -33
_HEXAGON_EDGES = (
    (1, 2, 6), (3, 4, 6), (5, 6, 6),
    (1, 6, 5), (2, 3, 5), (4, 5, 5),
    (1, 3, 4), (3, 5, 4), (1, 5, 4),
)


def _indices(given: Iterable[int], count: int, error, what: str) -> frozenset:
    """The given indices, each checked to be a plain int below ``count`` before it is hashed or sorted."""
    given = list(given)
    if all(type(k) is int and 0 <= k < count for k in given):  # a bool is no index
        return frozenset(given)
    named = sorted(set(given)) if all(isinstance(k, int) for k in given) else given
    raise error(f"{what} index out of range: {shown(named)}")


def _put(values: dict, a: str, b: str, w) -> None:
    """Give the pair of ``a`` and ``b`` the value ``w`` in both directions."""
    values[(a, b)] = values[(b, a)] = w


@dataclass(frozen=True)
class E3CInstance:
    """Exact-cover-by-3-sets source instance: universe R and 3-element triples.

    The triples are distinct, and each element occurs in at most 3 of them,
    as in the paper's reduction. The witness partition of a cover is core
    stable, but the hub of any triple the cover leaves out weakly blocks it
    with that triple's ``x6`` players, who do as well there as in their
    chosen hub's block.
    """

    universe: Tuple[str, ...]
    triples: Tuple[frozenset, ...]

    def __post_init__(self):
        if not self.universe or len(self.universe) % 3 != 0:
            raise InvalidInstance("the universe size must be a positive multiple of 3")
        try:
            known = set(self.universe)
        except TypeError:
            raise InvalidInstance("universe elements must be hashable") from None
        if len(known) != len(self.universe):
            raise InvalidInstance("duplicate universe element")
        counts = {r: 0 for r in self.universe}
        seen = set()
        for k, s in enumerate(self.triples):  # each error names the first triple that breaks a rule
            if not isinstance(s, frozenset):
                raise InvalidInstance(f"a triple is a frozenset, not a {type(s).__name__}", k)
            try:
                members = sorted(s, key=lambda r: (type(r).__name__, r))  # no two types are compared
            except TypeError:  # elements of one type that do not order
                members = sorted(s, key=shown)
            if len(s) != 3 or not s <= known:
                raise InvalidInstance(f"each triple needs 3 distinct universe elements: {shown(members)}", k)
            if s in seen:
                raise InvalidInstance(f"repeated triple: {shown(members)}", k)
            seen.add(s)
            for r in members:
                counts[r] += 1
                if counts[r] > 3:
                    raise InvalidInstance(f"element {shown(r)} occurs in more than 3 triples", k)


@dataclass(frozen=True)
class PartitionInstance:
    """Weight-splitting source instance: positive integer weights."""

    weights: Tuple[int, ...]

    def __post_init__(self):
        if any(type(a) is not int or a < 1 for a in self.weights):  # a bool is no weight
            raise InvalidInstance("weights must be positive integers")

    @property
    def total(self) -> int:
        return sum(self.weights)


@dataclass(frozen=True)
class GadgetGame:
    """A constructed game plus its source instance."""

    game: Game
    instance: Union[E3CInstance, PartitionInstance]


def example_six_player() -> Game:
    """The six-player symmetric hexagon game with an empty core."""
    labels = [str(i) for i in range(1, 7)]
    values = {}
    for i, j, w in _HEXAGON_EDGES:
        _put(values, str(i), str(j), w)
    return Game(labels, values, default=-33)


def reduce_e3c(inst: E3CInstance) -> GadgetGame:
    """Symmetric game with a hexagon per universe element and a hub player per triple."""
    try:
        labels = [f"x{j}_{r}" for r in inst.universe for j in range(1, 7)]
    except ValueError:  # str() refuses an int past int()'s digit limit
        raise InvalidInstance("a universe element is too long to name a player") from None
    labels += [f"y_{k}" for k in range(len(inst.triples))]

    half = Fraction(1, 2)
    bonus = Fraction(41, 4)
    values = {}
    for r in inst.universe:
        for i, j, w in _HEXAGON_EDGES:
            _put(values, f"x{i}_{r}", f"x{j}_{r}", w)
    for k, s in enumerate(inst.triples):
        members = tuple(s)  # any order: the game does not depend on it
        for a in range(3):
            for b in range(a + 1, 3):
                _put(values, f"x6_{members[a]}", f"x6_{members[b]}", half)
            _put(values, f"y_{k}", f"x6_{members[a]}", bonus)

    return GadgetGame(Game(labels, values, default=-33), inst)


def witness_partition_e3c(gadget: GadgetGame, cover: Iterable[int]) -> Partition:
    """The core-stable candidate built from an exact cover.

    Per universe element: blocks {x1,x2} and {x3,x4,x5}; per selected triple
    its hub joins the three x6 players; unselected hubs stay singletons.
    """
    inst = gadget.instance
    if not isinstance(inst, E3CInstance):
        raise InvalidInstance("gadget was not built from an exact-cover instance")
    chosen = _indices(cover, len(inst.triples), NotACover, "triple")
    covered = [r for k in chosen for r in inst.triples[k]]
    if len(covered) != len(set(covered)) or set(covered) != set(inst.universe):
        raise NotACover("selected triples are not an exact cover of the universe")

    groups = []
    for r in inst.universe:
        groups += [[f"x1_{r}", f"x2_{r}"], [f"x3_{r}", f"x4_{r}", f"x5_{r}"]]
    for k, s in enumerate(inst.triples):
        groups.append([f"y_{k}"] + ([f"x6_{r}" for r in s] if k in chosen else []))
    return Partition.of_labels(gadget.game, groups)


def solve_e3c(inst: E3CInstance) -> Optional[Tuple[int, ...]]:
    """First exact cover in lexicographic index-subset order, if any."""
    m = len(inst.triples)
    if m > E3C_ORACLE_CAP:
        raise TooLarge(m, E3C_ORACLE_CAP)
    universe = frozenset(inst.universe)
    triples = inst.triples

    # DFS extending by ascending index visits subsets in lexicographic order;
    # overlapping triples can never both be in an exact cover, so prune there
    def extend(chosen, used, start):
        if used == universe:
            return tuple(chosen)
        for k in range(start, m):
            if used & triples[k]:
                continue
            chosen.append(k)
            found = extend(chosen, used | triples[k], k + 1)
            if found is not None:
                return found
            chosen.pop()
        return None

    return extend([], frozenset(), 0)


def reduce_partition(inst: PartitionInstance) -> Tuple[GadgetGame, Partition]:
    """Asymmetric game whose grand coalition is CSC stable iff no equal split exists."""
    k = len(inst.weights)
    labels = ["x1", "x2", "y1", "y2"] + [f"z{i}" for i in range(1, k + 1)]
    total = inst.total
    halfw = Fraction(total, 2)
    values = {}
    for x in ("x1", "x2"):
        values[(x, "y1")] = halfw
        values[(x, "y2")] = halfw
        for i, a in enumerate(inst.weights, start=1):
            values[(x, f"z{i}")] = a
    _put(values, "x1", "x2", -total)
    _put(values, "y1", "y2", -total)
    game = Game(labels, values, default=0)
    return GadgetGame(game, inst), Partition.grand(game.n)


def witness_partition_split(gadget: GadgetGame, first_half: Iterable[int]) -> Partition:
    """The two-block improvement built from an equal split of the weights."""
    inst = gadget.instance
    if not isinstance(inst, PartitionInstance):
        raise InvalidInstance("gadget was not built from a weight-splitting instance")
    chosen = _indices(first_half, len(inst.weights), NotAnEqualSplit, "weight")
    if 2 * sum(inst.weights[i] for i in chosen) != inst.total:
        raise NotAnEqualSplit("selected weights do not sum to half the total")
    left, right = ["x1", "y1"], ["x2", "y2"]
    for i in range(len(inst.weights)):
        (left if i in chosen else right).append(f"z{i + 1}")
    return Partition.of_labels(gadget.game, [left, right])


def solve_partition(inst: PartitionInstance) -> Optional[Tuple[int, ...]]:
    """First weight subset (ascending mask order) summing to half the total, if any.

    Meet in the middle (Horowitz and Sahni 1974): the smallest low-half mask of each sum,
    then the high-half masks in ascending order, so the first hit is the smallest full mask."""
    k = len(inst.weights)
    if k > PARTITION_ORACLE_CAP:
        raise TooLarge(k, PARTITION_ORACLE_CAP)
    total, h = inst.total, k // 2
    if total % 2 != 0:
        return None
    sums = ([0], [0])  # per half, the subset sum of each mask; bit i takes the half's i-th weight
    for half, weights in zip(sums, (inst.weights[:h], inst.weights[h:])):
        for w in weights:
            half += [s + w for s in half]
    first = {s: mask for mask, s in reversed(list(enumerate(sums[0])))}  # the smallest mask wins
    for high, s in enumerate(sums[1]):
        low = first.get(total // 2 - s)
        if low is not None:
            mask = low | high << h
            return tuple(i for i in range(k) if mask >> i & 1)
    return None


def parse_e3c(text: str) -> E3CInstance:
    """E3C spec file: a ``universe`` line, then ``set a b c`` lines."""
    universe = None
    triples, linenos = [], []
    for lineno, tokens in _content_lines(text):
        kind, args = tokens[0], tokens[1:]
        if universe is None:
            if kind != "universe":
                raise GameFormatError(f"line {lineno}: expected a 'universe' line first")
            universe = tuple(args)
            continue
        if kind != "set":
            raise GameFormatError(f"line {lineno}: unknown directive {shown(kind)}")
        if len(args) != 3:
            raise GameFormatError(f"line {lineno}: set takes exactly 3 elements")
        triples.append(frozenset(args))
        linenos.append(lineno)
    if universe is None:
        raise GameFormatError("empty exact-cover spec file")
    try:
        return E3CInstance(universe, tuple(triples))
    except InvalidInstance as exc:
        where = "" if exc.triple is None else f"line {linenos[exc.triple]}: "
        raise GameFormatError(where + str(exc)) from exc
