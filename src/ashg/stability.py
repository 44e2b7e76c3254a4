"""Stability verifiers: each returns the enumeration-order-minimal witness.

Deviation-based concepts (Nash, individual, contractual individual stability)
scan players in ascending index order and targets in the partition's
canonical block order with the empty target (a new singleton) last.
Coalition-based concepts (core, strict core, contractual strict core) scan
nonempty coalitions in ascending characteristic-mask order. Pareto
improvements and ``core_exists`` scan partitions in lexicographic
restricted-growth-string order.

Each order is one depth-first walk that cuts the branches that cannot
produce a witness, so the witnesses are those of the full enumeration.

All comparisons run on the game's integer rows, so results are exact.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, List, Optional, Tuple, Union

from .errors import TooLarge
from .game import Coalition, Game, Partition, int_utility, is_individually_rational, validate_partition

# Largest games the exponential searches accept: coalition scans (2**n
# masks) and partition searches (Bell(n) partitions). Larger inputs raise
# ``TooLarge`` before any enumeration.
SUBSET_CAP = 26
PARTITION_CAP = 12


@dataclass(frozen=True)
class DeviationMove:
    """A single player leaving ``source`` for ``target`` (empty = new singleton)."""

    player: int
    source: Coalition
    target: Coalition


@dataclass(frozen=True)
class BlockingWitness:
    coalition: Coalition
    kind: str  # "strong" or "weak"
    strictly_better: Coalition


class StabilityConcept(enum.Enum):
    NS = "ns"
    IS = "is"
    CIS = "cis"
    CORE = "core"
    STRICT_CORE = "strict-core"
    CSC = "csc"
    PARETO = "pareto"
    IR = "ir"


Witness = Union[DeviationMove, BlockingWitness, Partition]


@dataclass(frozen=True)
class StabilityVerdict:
    concept: StabilityConcept
    stable: bool
    witness: Optional[Witness]


def _current_utilities(game: Game, part: Partition):
    return [int_utility(game, p, part.block_of(p)) for p in range(game.n)]


def _find_deviation(game, partition, admission, release) -> Optional[DeviationMove]:
    part = validate_partition(game, partition)
    rows = game.rows
    cur = _current_utilities(game, part)
    for p in range(game.n):
        src = part.block_of(p)
        if release and any(rows[j][p] > 0 for j in src if j != p):
            continue
        for tgt in part.blocks:
            if p in tgt:
                continue
            if int_utility(game, p, tgt) > cur[p]:
                if admission and any(rows[j][p] < 0 for j in tgt):
                    continue
                return DeviationMove(p, src, tgt)
        if cur[p] < 0:  # forming a new singleton; always admitted
            return DeviationMove(p, src, frozenset())
    return None


def find_nash_deviation(game: Game, partition) -> Optional[DeviationMove]:
    return _find_deviation(game, partition, admission=False, release=False)


def find_is_deviation(game: Game, partition) -> Optional[DeviationMove]:
    """Beneficial move that leaves no member of the target worse off."""
    return _find_deviation(game, partition, admission=True, release=False)


def find_cis_deviation(game: Game, partition) -> Optional[DeviationMove]:
    """Beneficial move harming neither the target's nor the source's members."""
    return _find_deviation(game, partition, admission=True, release=True)


def _positive_prefixes(rows) -> List[List[int]]:
    """``pos[p][k]``: the sum of player ``p``'s positive values toward players ``0..k-1``."""
    return [list(accumulate((v if v > 0 else 0 for v in row), initial=0)) for row in rows]


_Walk = Iterator[Tuple[List, List[int]]]  # (members or blocks, have)


def _coalitions(rows, pos, floor) -> _Walk:
    """Nonempty coalitions whose members all reach ``floor``, by ascending mask.

    Players are decided from the highest index down, each left out before it
    is taken in. ``have[p]`` is member ``p``'s utility toward the members
    taken so far; a branch is cut once a member's ``have`` plus its positive
    values toward the undecided players falls below its floor. At a leaf that
    bound is the exact utility. Yields the members (highest first) and
    ``have``; both lists are reused, so copy what you keep.
    """
    have = [0] * len(rows)
    members: List[int] = []

    def reachable(k):  # players 0..k-1 are undecided
        return all(have[p] + pos[p][k] >= floor[p] for p in members)

    def walk(k):
        if k == 0:
            if members:
                yield members, have
            return
        i = k - 1
        if reachable(i):
            yield from walk(i)
        row = rows[i]
        own = 0
        for p in members:
            have[p] += rows[p][i]
            own += row[p]
        have[i] = own
        members.append(i)
        if reachable(i):
            yield from walk(i)
        members.pop()
        for p in members:
            have[p] -= rows[p][i]

    return walk(len(rows))


def _partitions(rows, pos, floor) -> _Walk:
    """Partitions in which every player reaches ``floor``, in RGS order.

    Player ``p`` goes into each earlier block in creation order and then into
    a new block, which is lexicographic restricted-growth-string order.
    ``have[q]`` is placed player ``q``'s utility toward its block so far; a
    branch is cut once a placed player's ``have`` plus its positive values
    toward the unplaced players falls below its floor. Yields the blocks (in
    creation order) and ``have``; both are reused, so copy what you keep.
    """
    n = len(rows)
    # need[q][p]: the least ``have[q]`` that can still reach q's floor once
    # players 0..p are placed
    need = [[f - (ps[n] - ps[p + 1]) for p in range(n)] for f, ps in zip(floor, pos)]
    have = [0] * n
    blocks: List[List[int]] = []

    def walk(p):
        if p == n:
            yield blocks, have
            return
        row = rows[p]
        for b in range(len(blocks) + 1):
            if b == len(blocks):
                blocks.append([])
            block = blocks[b]
            own = 0
            for q in block:
                have[q] += rows[q][p]
                own += row[q]
            have[p] = own
            block.append(p)
            if all(have[q] >= need[q][p] for q in range(p + 1)):
                yield from walk(p + 1)
            block.pop()
            for q in block:
                have[q] -= rows[q][p]
        blocks.pop()

    return walk(0)


def _blocking(rows, pos, cur, weak: bool) -> Iterator[BlockingWitness]:
    """Coalitions blocking a partition whose utilities are ``cur``, by ascending mask.

    Strong blocking needs every member strictly better off; weak blocking
    needs every member at least as well off and one strictly better off.
    """
    if not weak:
        for members, _have in _coalitions(rows, pos, [c + 1 for c in cur]):
            coalition = frozenset(members)
            yield BlockingWitness(coalition, "strong", coalition)
        return
    for members, have in _coalitions(rows, pos, cur):
        better = frozenset(p for p in members if have[p] > cur[p])
        if better:
            yield BlockingWitness(frozenset(members), "weak", better)


def _iter_blocking(game, part, weak: bool) -> Iterator[BlockingWitness]:
    if game.n > SUBSET_CAP:
        raise TooLarge(game.n, SUBSET_CAP)
    rows = game.rows
    return _blocking(rows, _positive_prefixes(rows), _current_utilities(game, part), weak)


def find_strongly_blocking(game: Game, partition) -> Optional[BlockingWitness]:
    """First coalition every member strictly prefers to its current block."""
    part = validate_partition(game, partition)
    return next(_iter_blocking(game, part, weak=False), None)


def find_weakly_blocking(game: Game, partition) -> Optional[BlockingWitness]:
    """First coalition all members weakly prefer, at least one strictly."""
    part = validate_partition(game, partition)
    return next(_iter_blocking(game, part, weak=True), None)


def find_csc_violation(game: Game, partition) -> Optional[BlockingWitness]:
    """First weakly blocking coalition whose break-off harms no outsider.

    Breaking off turns the partition into ``{S}`` plus the remainders
    ``C \\ S``; the coalition is a contractual-strict-core violation only if
    every remaining player does at least as well in its remainder.
    """
    part = validate_partition(game, partition)
    for w in _iter_blocking(game, part, weak=True):
        s = w.coalition
        # harmless: no one left behind loses value it had from S
        if all(int_utility(game, j, block & s) <= 0 for block in part.blocks for j in block - s):
            return w
    return None


def find_pareto_improvement(game: Game, partition) -> Optional[Partition]:
    """First partition weakly better for everyone and strictly for someone."""
    part = validate_partition(game, partition)
    if game.n > PARTITION_CAP:
        raise TooLarge(game.n, PARTITION_CAP)
    rows = game.rows
    base = _current_utilities(game, part)
    for blocks, have in _partitions(rows, _positive_prefixes(rows), base):
        if have != base:
            return Partition(blocks)
    return None


def verify(game: Game, partition, concept: StabilityConcept) -> StabilityVerdict:
    """Dispatch to the matching finder; stable iff no witness exists.

    The finders validate ``partition``; only the IR witness needs the
    validated ``Partition`` here, to name the violator's block.
    """
    witness: Optional[Witness]
    if concept is StabilityConcept.NS:
        witness = find_nash_deviation(game, partition)
    elif concept is StabilityConcept.IS:
        witness = find_is_deviation(game, partition)
    elif concept is StabilityConcept.CIS:
        witness = find_cis_deviation(game, partition)
    elif concept is StabilityConcept.CORE:
        witness = find_strongly_blocking(game, partition)
    elif concept is StabilityConcept.STRICT_CORE:
        witness = find_weakly_blocking(game, partition)
    elif concept is StabilityConcept.CSC:
        witness = find_csc_violation(game, partition)
    elif concept is StabilityConcept.PARETO:
        witness = find_pareto_improvement(game, partition)
    elif concept is StabilityConcept.IR:
        part = validate_partition(game, partition)
        ok, violator = is_individually_rational(game, part)
        witness = None if ok else DeviationMove(violator, part.block_of(violator), frozenset())
    else:  # pragma: no cover
        raise ValueError(f"unknown concept: {concept!r}")
    return StabilityVerdict(concept, witness is None, witness)


def core_exists(game: Game, strict: bool = False) -> Optional[Partition]:
    """First core (or strict-core) stable partition in enumeration order, if any.

    Only individually rational partitions are checked: a player below zero
    is strictly better off alone, so any other partition is blocked.
    """
    n = game.n
    if n > PARTITION_CAP:
        raise TooLarge(n, PARTITION_CAP)
    rows = game.rows
    pos = _positive_prefixes(rows)
    for blocks, have in _partitions(rows, pos, [0] * n):
        if next(_blocking(rows, pos, have[:], strict), None) is None:
            return Partition(blocks)
    return None
