"""Stability verifiers: each returns the enumeration-order-minimal witness.

Deviation-based concepts (Nash, individual, contractual individual stability)
scan players in ascending index order and targets in the partition's
canonical block order with the empty target (a new singleton) last.
Coalition-based concepts (core, strict core, contractual strict core) scan
nonempty coalitions in ascending characteristic-mask order. Pareto
improvements and ``core_exists`` scan partitions in lexicographic
restricted-growth-string order.

Each order is one depth-first walk that cuts the branches that cannot
produce a witness and stops at the first leaf its search accepts, so the
witnesses are those of the full enumeration. Every coalition walk accepts a
leaf by one rule, some member above its current utility, and a CSC check adds
one bound that cuts a branch once a player left out is sure to be harmed. A
CSC check runs that walk twice: first deciding the most-connected players
first, to learn if any witness exists, then in mask order to find the first.

All comparisons run on the game's integer rows, so results are exact. The
exhaustive searches copy them into a local dense matrix first (n is capped).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import accumulate
from typing import List, Optional, Tuple, Union

from .errors import TooLarge
from .game import Coalition, Game, Partition, dense_rows, int_utility, validate_partition

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
    """First improving move, by player, then by block, then to a new singleton.

    Worths come from the mover's stored row, which holds only its nonzero
    values, and the players a block's members like and dislike from theirs,
    once per block when first asked: O(m + n * blocks) steps in all."""
    part = validate_partition(game, partition)
    rows, blocks = game.rows, part.blocks
    home = [0] * game.n
    for k, b in enumerate(blocks):
        for p in b:
            home[p] = k
    views = [None] * len(blocks)

    def view(k):  # (liked, disliked): the players some member of block k values above / below 0
        if views[k] is None:
            views[k] = liked, disliked = set(), set()
            for j in blocks[k]:
                for q, v in rows[j].items():
                    (liked if v > 0 else disliked).add(q)
        return views[k]

    for p in range(game.n):
        own, worth = home[p], {}
        if release and p in view(own)[0]:
            continue
        for j, v in rows[p].items():
            worth[home[j]] = worth.get(home[j], 0) + v
        cur = worth.get(own, 0)
        # below 0, a block p values at 0 is an improving target too
        for k in range(len(blocks)) if cur < 0 else sorted(worth):
            if worth.get(k, 0) > cur and not (admission and p in view(k)[1]):
                return DeviationMove(p, blocks[own], blocks[k])
        if cur < 0:  # forming a new singleton; always admitted
            return DeviationMove(p, blocks[own], frozenset())
    return None


def find_nash_deviation(game: Game, partition) -> Optional[DeviationMove]:
    return _find_deviation(game, partition, admission=False, release=False)


def find_is_deviation(game: Game, partition) -> Optional[DeviationMove]:
    """Beneficial move that leaves no member of the target worse off."""
    return _find_deviation(game, partition, admission=True, release=False)


def find_cis_deviation(game: Game, partition) -> Optional[DeviationMove]:
    """Beneficial move harming neither the target's nor the source's members."""
    return _find_deviation(game, partition, admission=True, release=True)


def _tables(rows):
    """``(pos, likers, haters, touched)`` of a game: ``pos[p][k]`` sums ``p``'s positive
    values toward players ``0..k-1``; the others hold, for each ``i``, the players
    decided before ``i`` (higher indices) who value it above 0, below 0, or either."""
    n = len(rows)
    likers = [[p for p in range(i + 1, n) if rows[p][i] > 0] for i in range(n)]
    haters = [[p for p in range(i + 1, n) if rows[p][i] < 0] for i in range(n)]
    pos = [list(accumulate((v if v > 0 else 0 for v in row), initial=0)) for row in rows]
    return pos, likers, haters, [a + b for a, b in zip(likers, haters)]


def _first_coalition(rows, tables, cur, strong, block=None):
    """``(members, have)`` of the first coalition, by ascending mask, that blocks ``cur``:
    each member ``p`` reaches its floor ``cur[p] + strong`` and one is above ``cur[p]``.

    Players are decided from the highest index down, each left out before it is
    taken in. ``have[p]`` is member ``p``'s utility toward the members taken so
    far; a branch is cut once a member's ``have`` plus its positive values toward
    the undecided players falls below its floor. Leaving ``i`` out moves only the
    bounds of the members who like ``i``; taking it in, those of ``i`` and of the
    members who dislike it. Given ``block`` numbers, ``out[j]`` is ``j``'s value
    toward the taken members of its block, kept current for every ``j`` by each
    take-in and its undo. A branch is also cut once a left-out ``j`` is sure to
    lose: ``out[j]`` plus its negative values toward undecided block-mates is above
    0, which deciding ``i`` moves only for ``i`` and its left-out ``peers[i]``.
    Both bounds are exact at a leaf: it is a witness exactly when a member is above ``cur``.
    """
    pos, likers, haters, touched = tables
    n = len(rows)
    floor = [c + strong for c in cur]
    have, out, inside = [0] * n, [0] * n, [False] * n
    members = []
    # kin[i]: i's block-mates that value it at nonzero; peers[i]: i and its kin decided before it (empty without blocks)
    kin = [[j for j, c in enumerate(block) if c == b and rows[j][i]] for i, b in enumerate(block or ())] or [()] * n
    peers = [[i] + [j for j in k if j > i] for i, k in enumerate(kin)] if block else [()] * n
    # neg[j][k]: the sum of j's negative values toward its block-mates among players 0..k-1
    neg = block and [list(accumulate((min(v, 0) if block[q] == b else 0 for q, v in enumerate(row)),
                                     initial=0)) for row, b in zip(rows, block)]

    def walk(i):  # decide player i; players 0..i-1 stay undecided
        if i < 0:
            return any(have[p] > cur[p] for p in members)
        row, near = rows[i], peers[i]
        if ((not likers[i] or all(have[p] + pos[p][i] >= floor[p] for p in likers[i] if inside[p]))
                and (not near or all(out[j] + neg[j][i] <= 0 for j in near if not inside[j])) and walk(i - 1)):
            return True
        for p in touched[i]:
            if inside[p]:
                have[p] += rows[p][i]
        own = 0
        for p in members:
            own += row[p]
        have[i] = own
        inside[i] = True
        members.append(i)
        for j in kin[i]:
            out[j] += rows[j][i]
        if (own + pos[i][i] >= floor[i]
                and (not haters[i] or all(have[p] + pos[p][i] >= floor[p] for p in haters[i] if inside[p]))
                and (not near or all(out[j] + neg[j][i] <= 0 for j in near if not inside[j])) and walk(i - 1)):
            return True
        for j in kin[i]:
            out[j] -= rows[j][i]
        members.pop()
        inside[i] = False
        for p in touched[i]:
            if inside[p]:
                have[p] -= rows[p][i]
        return False

    try:
        return (members, have) if walk(n - 1) else None
    finally:
        walk = None  # walk refers to itself: break the cycle, so its tables are freed at once


def _first_partition(rows, pos, floor, accept) -> Optional[Partition]:
    """The first partition, in RGS order, whose leaf ``accept(have)`` takes.

    Player ``p`` goes into each earlier block in creation order and then into
    a new block, which is lexicographic restricted-growth-string order.
    ``have[q]`` is placed player ``q``'s utility toward its block so far; a
    branch is cut once a placed player's ``have`` plus its positive values
    toward the unplaced players falls below its floor.
    """
    n = len(rows)
    # need[q][p]: the least ``have[q]`` that can still reach q's floor once
    # players 0..p are placed
    need = [[f - (ps[n] - ps[p + 1]) for p in range(n)] for f, ps in zip(floor, pos)]
    have = [0] * n
    blocks: List[List[int]] = []

    def walk(p):
        if p == n:
            return accept(have)
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
            if all(have[q] >= need[q][p] for q in range(p + 1)) and walk(p + 1):
                return True
            block.pop()
            for q in block:
                have[q] -= rows[q][p]
        blocks.pop()
        return False

    try:
        return Partition(blocks) if walk(0) else None
    finally:
        walk = None  # as in _first_coalition


def _blocking(game, partition, strong: bool, csc: bool = False) -> Optional[BlockingWitness]:
    """First coalition, by ascending mask, that blocks ``partition``.

    All members do at least as well (strictly, if ``strong``), one strictly
    better, and with ``csc`` no one left out of the coalition is harmed."""
    part = validate_partition(game, partition)
    if game.n > SUBSET_CAP:
        raise TooLarge(game.n, SUBSET_CAP)
    rows = dense_rows(game)
    cur = _current_utilities(game, part)
    block = None
    if csc:  # phase 1: is there any violation? The most-connected players are decided first
        block = [part.blocks.index(part.block_of(p)) for p in range(game.n)]
        degree = [sum(map(bool, row)) + sum(map(bool, col)) for row, col in zip(rows, zip(*rows))]
        order = sorted(range(game.n), key=lambda p: (degree[p], -p))  # the player at each new index
        relabeled = [[rows[p][q] for q in order] for p in order]
        if _first_coalition(relabeled, _tables(relabeled), [cur[p] for p in order], strong,
                            [block[p] for p in order]) is None:
            return None
    found = _first_coalition(rows, _tables(rows), cur, strong, block)  # phase 2 of a CSC check: mask order
    if found is None:
        return None
    members, have = found
    better = frozenset(p for p in members if have[p] > cur[p])
    return BlockingWitness(frozenset(members), "strong" if strong else "weak", better)


def find_strongly_blocking(game: Game, partition) -> Optional[BlockingWitness]:
    """First coalition every member strictly prefers to its current block."""
    return _blocking(game, partition, strong=True)


def find_weakly_blocking(game: Game, partition) -> Optional[BlockingWitness]:
    """First coalition all members weakly prefer, at least one strictly."""
    return _blocking(game, partition, strong=False)


def find_csc_violation(game: Game, partition) -> Optional[BlockingWitness]:
    """First weakly blocking coalition whose break-off harms no outsider.

    Breaking off turns the partition into ``{S}`` plus the remainders
    ``C \\ S``; the coalition is a contractual-strict-core violation only if
    every remaining player does at least as well in its remainder.
    """
    return _blocking(game, partition, strong=False, csc=True)


def find_pareto_improvement(game: Game, partition) -> Optional[Partition]:
    """First partition weakly better for everyone and strictly for someone."""
    part = validate_partition(game, partition)
    if game.n > PARTITION_CAP:
        raise TooLarge(game.n, PARTITION_CAP)
    rows = dense_rows(game)
    base = _current_utilities(game, part)
    return _first_partition(rows, _tables(rows)[0], base, lambda have: have != base)


def _find_ir_violation(game: Game, partition) -> Optional[DeviationMove]:
    """The lowest player worse off than alone, leaving for a new singleton."""
    part = validate_partition(game, partition)
    p = next((p for p in range(game.n) if int_utility(game, p, part.block_of(p)) < 0), None)
    return None if p is None else DeviationMove(p, part.block_of(p), frozenset())


def is_individually_rational(game: Game, partition) -> Tuple[bool, Optional[int]]:
    """Whether every player does at least as well as alone; else the lowest violator."""
    witness = _find_ir_violation(game, partition)
    return witness is None, witness and witness.player


def verify(game: Game, partition, concept: StabilityConcept) -> StabilityVerdict:
    """Dispatch to the matching finder, which validates ``partition``; stable iff no witness exists."""
    finder = {
        StabilityConcept.NS: find_nash_deviation,
        StabilityConcept.IS: find_is_deviation,
        StabilityConcept.CIS: find_cis_deviation,
        StabilityConcept.CORE: find_strongly_blocking,
        StabilityConcept.STRICT_CORE: find_weakly_blocking,
        StabilityConcept.CSC: find_csc_violation,
        StabilityConcept.PARETO: find_pareto_improvement,
        StabilityConcept.IR: _find_ir_violation,
    }[concept]
    witness = finder(game, partition)
    return StabilityVerdict(concept, witness is None, witness)


def core_exists(game: Game, strict: bool = False) -> Optional[Partition]:
    """First core (or strict-core) stable partition in enumeration order, if any.

    Only individually rational partitions are checked: a player below zero
    is strictly better off alone, so any other partition is blocked. Each is
    accepted when the coalition walk finds no strong (core) or weak blocker.
    """
    if game.n > PARTITION_CAP:
        raise TooLarge(game.n, PARTITION_CAP)
    rows = dense_rows(game)
    tab = _tables(rows)
    return _first_partition(rows, tab[0], [0] * game.n,
                            lambda cur: _first_coalition(rows, tab, cur, not strict) is None)
