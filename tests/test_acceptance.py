"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report. Every check is exact; no tolerances anywhere.
"""

import itertools
import random
import time

import ashg
from ashg import StabilityConcept as C
from ashg.game import Partition, dense_rows

from conftest import (
    all_partitions,
    brute_all_blocking,
    brute_utility,
    random_game,
    random_partition,
)


def report(num, text, start):
    print(f"PASS criterion {num} ({time.time() - start:.1f}s): {text}")


def test_criterion_1_example_core_is_empty():
    start = time.time()
    game = ashg.example_six_player()
    partitions = list(all_partitions(6))
    assert len(partitions) == 203
    for blocks in partitions:
        assert ashg.find_strongly_blocking(game, Partition(blocks)) is not None, blocks
    assert ashg.core_exists(game) is None
    report(1, "all 203 partitions of the six-player game admit a blocking coalition", start)


def test_criterion_2_example_blocking_structure():
    start = time.time()
    game = ashg.example_six_player()
    pi = ashg.Partition.of_labels(game, [["1", "2"], ["3", "4", "5"], ["6"]])
    utilities = tuple(ashg.partition_utility(game, pi, p) for p in range(6))
    assert utilities == (6, 6, 10, 11, 9, 0)

    expected = frozenset(game.index(x) for x in "156")
    found = ashg.find_weakly_blocking(game, pi)
    assert found.coalition == expected

    # exhaustive: {1,5,6} is the only weakly blocking coalition at all, and it
    # is individually rational
    all_weak = brute_all_blocking(game, pi, weak=True)
    assert all_weak == [expected]
    assert all(brute_utility(game, expected, p) >= 0 for p in expected)

    # the individually rational multi-player coalitions are exactly the 13 known ones
    feasible = {
        frozenset(members)
        for size in range(2, 7)
        for members in itertools.combinations(range(6), size)
        if all(brute_utility(game, members, p) >= 0 for p in members)
    }
    listed = {
        frozenset(game.index(x) for x in names)
        for names in [
            "12", "13", "15", "16", "123", "135", "156",
            "23", "34", "345", "35", "45", "56",
        ]
    }
    assert feasible == listed
    report(2, "utility vector, unique weakly blocking coalition, 13 feasible coalitions", start)


def test_criterion_3_cis_always_stable():
    start = time.time()
    rng = random.Random(2024)
    failures = 0
    for _ in range(1000):
        n = rng.randint(1, 12)
        game = random_game(rng, n, lo=-10, hi=10, density=0.5)
        for seed in [None] + [rng.randint(0, 2**32) for _ in range(20)]:
            part, _ = ashg.compute_cis(game, seed=seed)
            if ashg.find_cis_deviation(game, part) is not None:
                failures += 1
    assert failures == 0
    report(3, "1000 random games x 21 pick orders, CIS verifier accepts every output", start)


def test_criterion_4_cover_witness_is_strict_core_stable():
    start = time.time()
    inst = ashg.E3CInstance(("1", "2", "3"), (frozenset({"1", "2", "3"}),))
    gadget = ashg.reduce_e3c(inst)
    game = gadget.game
    assert game.n == 19
    pi = ashg.witness_partition_e3c(gadget, ashg.solve_e3c(inst))
    from fractions import Fraction

    for r in "123":
        assert ashg.partition_utility(game, pi, game.index(f"x6_{r}")) == Fraction(45, 4)
    assert ashg.partition_utility(game, pi, game.index("y_0")) == Fraction(123, 4)
    # full 2^19 - 1 coalition scan
    assert ashg.find_weakly_blocking(game, pi) is None
    report(4, "19-player cover gadget: witness utilities exact, no weakly blocking coalition", start)


def test_criterion_5_split_equivalence_sweep():
    start = time.time()
    checked = 0
    for k in range(1, 6):
        # weight lists up to reordering; permuting weights only relabels the
        # interchangeable z players
        for weights in itertools.combinations_with_replacement(range(1, 7), k):
            inst = ashg.PartitionInstance(weights)
            gadget, grand = ashg.reduce_partition(inst)
            no_split = ashg.solve_partition(inst) is None
            assert (ashg.find_csc_violation(gadget.game, grand) is None) == no_split
            assert (ashg.find_pareto_improvement(gadget.game, grand) is None) == no_split
            checked += 1
    assert checked == sum(
        len(list(itertools.combinations_with_replacement(range(1, 7), k)))
        for k in range(1, 6)
    )

    # spot anchors
    gadget, grand = ashg.reduce_partition(ashg.PartitionInstance((1, 1, 2)))
    w = ashg.find_csc_violation(gadget.game, grand)
    assert {gadget.game.labels[p] for p in w.coalition} == {"x1", "y1", "z1", "z2"}
    gadget, grand = ashg.reduce_partition(ashg.PartitionInstance((2, 3, 7)))
    assert ashg.verify(gadget.game, grand, C.CSC).stable
    assert ashg.verify(gadget.game, grand, C.PARETO).stable
    report(5, f"{checked} weight lists: CSC stability and Pareto optimality iff no equal split", start)


def test_criterion_6_stability_lattice():
    start = time.time()
    concepts = [C.NS, C.IS, C.CIS, C.CORE, C.STRICT_CORE, C.CSC, C.PARETO]
    implications = [
        (C.NS, C.IS),
        (C.IS, C.CIS),
        (C.STRICT_CORE, C.CORE),
        (C.STRICT_CORE, C.IS),
        (C.STRICT_CORE, C.PARETO),
        (C.PARETO, C.CSC),
        (C.CSC, C.CIS),
    ]
    rng = random.Random(99)
    counterexamples = 0
    for _ in range(500):
        n = rng.randint(1, 8)
        game = random_game(rng, n)
        pi = random_partition(rng, n)
        stable = {c: ashg.verify(game, pi, c).stable for c in concepts}
        for pre, post in implications:
            if stable[pre] and not stable[post]:
                counterexamples += 1
    assert counterexamples == 0
    report(6, "500 random games x 7 implications, zero counterexamples", start)


def test_criterion_7_solver_output_may_violate_individual_rationality():
    start = time.time()
    game = ashg.example_six_player()
    part, _ = ashg.compute_cis(game)
    expected = ashg.Partition.of_labels(game, [["1", "2", "3", "5", "6"], ["4"]])
    assert part == expected
    two = game.index("2")
    assert ashg.partition_utility(game, part, two) == -55
    ok, violator = ashg.is_individually_rational(game, part)
    assert not ok and violator == two
    report(7, "pinned non-individually-rational solver output on the six-player game", start)


def _local_blocking_coalition(inst, game, part):
    """Search per-element neighborhoods (a hexagon plus its adjacent hub
    players) for a strongly blocking coalition; sound but not exhaustive."""
    rows = dense_rows(game)
    cur = [sum(rows[p][j] for j in part.block_of(p)) for p in range(game.n)]
    for r in inst.universe:
        players = [game.index(f"x{j}_{r}") for j in range(1, 7)]
        players += [
            game.index(f"y_{k}") for k, s in enumerate(inst.triples) if r in s
        ]
        m = len(players)
        for mask in range(1, 1 << m):
            members = [players[i] for i in range(m) if mask >> i & 1]
            if all(sum(rows[i][j] for j in members) > cur[i] for i in members):
                return frozenset(members)
    return None


def test_criterion_8_no_instance_candidates_all_blocked():
    start = time.time()
    # every triple contains element 1, so no two are disjoint: a no-instance
    inst = ashg.E3CInstance(
        tuple("123456"),
        (frozenset("123"), frozenset("145"), frozenset("124")),
    )
    assert ashg.solve_e3c(inst) is None
    gadget = ashg.reduce_e3c(inst)
    game = gadget.game
    assert game.n == 39

    candidates = []
    part, _ = ashg.compute_cis(game)
    candidates.append(part)

    # cover-shaped partitions for every pairwise-disjoint sub-collection
    def cover_shaped(selection):
        blocks = []
        hubbed = set()
        for r in inst.universe:
            blocks.append([game.index(f"x1_{r}"), game.index(f"x2_{r}")])
            blocks.append([game.index(f"x{j}_{r}") for j in (3, 4, 5)])
        for k, s in enumerate(inst.triples):
            if k in selection:
                blocks.append(
                    [game.index(f"y_{k}")] + [game.index(f"x6_{r}") for r in sorted(s)]
                )
                hubbed.update(s)
            else:
                blocks.append([game.index(f"y_{k}")])
        for r in inst.universe:
            if r not in hubbed:
                blocks.append([game.index(f"x6_{r}")])
        return Partition(blocks)

    m = len(inst.triples)
    for size in range(m + 1):
        for sel in itertools.combinations(range(m), size):
            covered = [r for k in sel for r in inst.triples[k]]
            if len(covered) == len(set(covered)):  # pairwise disjoint
                candidates.append(cover_shaped(set(sel)))

    assert len(candidates) >= 5
    for candidate in candidates:
        blocker = _local_blocking_coalition(inst, game, candidate)
        assert blocker is not None, candidate
        # double-check the blocker strongly blocks, by direct utilities
        for p in blocker:
            assert brute_utility(game, blocker, p) > brute_utility(
                game, candidate.block_of(p), p
            )
    report(8, f"{len(candidates)} candidate partitions on the 39-player no-instance all blocked", start)
