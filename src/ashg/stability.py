"""Stability verifiers: each returns the enumeration-order-minimal witness.

Deviation-based concepts (Nash, individual, contractual individual stability)
scan players in ascending index order and targets in the partition's
canonical block order with the empty target (a new singleton) last.
Coalition-based concepts (core, strict core, contractual strict core) scan
nonempty coalitions in ascending characteristic-mask order. Pareto
improvements scan all partitions in restricted-growth-string order.

All comparisons run on the game's integer rows, so results are exact.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .enumeration import partitions_rgs, rgs_blocks, subset_masks
from .errors import TooLarge
from .game import Coalition, Game, Partition, int_utility, is_individually_rational, validate_partition

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


def _iter_blocking(game, part, weak: bool, cap: int) -> Iterator[BlockingWitness]:
    n = game.n
    if n > cap:
        raise TooLarge(n, cap)
    rows = game.rows
    cur = _current_utilities(game, part)
    # per-player sound upper bound on utility in any coalition: the sum of all
    # positive values, plus (when a disliked member is present) the least-bad
    # negative value
    maxpos = [sum(v for v in row if v > 0) for row in rows]
    maxneg = [max((v for v in row if v < 0), default=0) for row in rows]
    negmask = [
        sum(1 << j for j, v in enumerate(row) if v < 0) for row in rows
    ]
    bit_index = {1 << i: i for i in range(n)}
    for mask in subset_masks(n):
        ok = True
        strict = False
        m = mask
        while m:
            b = m & -m
            m ^= b
            i = bit_index[b]
            c = cur[i]
            ub = maxpos[i] + (maxneg[i] if mask & negmask[i] else 0)
            if ub < c or (not weak and ub <= c):
                ok = False
                break
            row = rows[i]
            s = 0
            mm = mask
            while mm:
                bb = mm & -mm
                mm ^= bb
                s += row[bit_index[bb]]
            if weak:
                if s < c:
                    ok = False
                    break
                if s > c:
                    strict = True
            else:
                if s <= c:
                    ok = False
                    break
        if ok and (not weak or strict):
            members = frozenset(bit_index[1 << i] for i in range(n) if mask >> i & 1)
            if weak:
                better = frozenset(i for i in members if int_utility(game, i, members) > cur[i])
                yield BlockingWitness(members, "weak", better)
            else:
                yield BlockingWitness(members, "strong", members)


def find_strongly_blocking(game: Game, partition, cap: int = SUBSET_CAP) -> Optional[BlockingWitness]:
    """First coalition every member strictly prefers to its current block."""
    part = validate_partition(game, partition)
    return next(_iter_blocking(game, part, weak=False, cap=cap), None)


def find_weakly_blocking(game: Game, partition, cap: int = SUBSET_CAP) -> Optional[BlockingWitness]:
    """First coalition all members weakly prefer, at least one strictly."""
    part = validate_partition(game, partition)
    return next(_iter_blocking(game, part, weak=True, cap=cap), None)


def find_csc_violation(game: Game, partition, cap: int = SUBSET_CAP) -> Optional[BlockingWitness]:
    """First weakly blocking coalition whose break-off harms no outsider.

    Breaking off turns the partition into ``{S}`` plus the remainders
    ``C \\ S``; the coalition is a contractual-strict-core violation only if
    every remaining player does at least as well in its remainder.
    """
    part = validate_partition(game, partition)
    for w in _iter_blocking(game, part, weak=True, cap=cap):
        s = w.coalition
        harmless = True
        for block in part.blocks:
            gone = block & s
            if not gone:
                continue
            rem = block - s
            for j in rem:
                if int_utility(game, j, gone) > 0:  # j loses value it had from S
                    harmless = False
                    break
            if not harmless:
                break
        if harmless:
            return w
    return None


def find_pareto_improvement(game: Game, partition, cap: int = PARTITION_CAP) -> Optional[Partition]:
    """First partition weakly better for everyone and strictly for someone."""
    part = validate_partition(game, partition)
    n = game.n
    if n > cap:
        raise TooLarge(n, cap)
    rows = game.rows
    base = _current_utilities(game, part)
    for rgs in partitions_rgs(n):
        blocks = rgs_blocks(rgs)
        ok = True
        strict = False
        for p in range(n):
            row = rows[p]
            s = sum(row[q] for q in blocks[rgs[p]])
            if s < base[p]:
                ok = False
                break
            if s > base[p]:
                strict = True
        if ok and strict:
            return Partition(blocks)
    return None


def verify(
    game: Game,
    partition,
    concept: StabilityConcept,
    subset_cap: int = SUBSET_CAP,
    partition_cap: int = PARTITION_CAP,
) -> StabilityVerdict:
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
        witness = find_strongly_blocking(game, partition, cap=subset_cap)
    elif concept is StabilityConcept.STRICT_CORE:
        witness = find_weakly_blocking(game, partition, cap=subset_cap)
    elif concept is StabilityConcept.CSC:
        witness = find_csc_violation(game, partition, cap=subset_cap)
    elif concept is StabilityConcept.PARETO:
        witness = find_pareto_improvement(game, partition, cap=partition_cap)
    elif concept is StabilityConcept.IR:
        part = validate_partition(game, partition)
        ok, violator = is_individually_rational(game, part)
        witness = None if ok else DeviationMove(violator, part.block_of(violator), frozenset())
    else:  # pragma: no cover
        raise ValueError(f"unknown concept: {concept!r}")
    return StabilityVerdict(concept, witness is None, witness)


def core_exists(game: Game, strict: bool = False, cap: int = PARTITION_CAP) -> Optional[Partition]:
    """First core (or strict-core) stable partition in enumeration order, if any."""
    n = game.n
    if n > cap:
        raise TooLarge(n, cap)
    finder = find_weakly_blocking if strict else find_strongly_blocking
    for rgs in partitions_rgs(n):
        part = Partition(rgs_blocks(rgs))
        if finder(game, part) is None:
            return part
    return None
