"""Stability verifiers: frozen witnesses, cross-checks against brute force."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ashg
from ashg import StabilityConcept as C
from ashg.errors import TooLarge

from conftest import (
    brute_all_blocking,
    brute_has_deviation,
    brute_has_pareto_improvement,
    brute_utility,
    random_game,
    random_partition,
    random_rational_rows,
)


def labelset(game, players):
    return {game.labels[p] for p in players}


class TestNashDeviation:
    def test_example_partition_is_nash_stable(self, example6, example6_partition):
        assert ashg.find_nash_deviation(example6, example6_partition) is None
        assert not brute_has_deviation(example6, example6_partition, "ns")

    def test_singletons_first_move(self, example6):
        move = ashg.find_nash_deviation(example6, ashg.Partition.singletons(6))
        assert move == ashg.DeviationMove(0, frozenset({0}), frozenset({1}))

    def test_one_player_game(self):
        g = ashg.Game(["p"])
        assert ashg.find_nash_deviation(g, ashg.Partition.grand(1)) is None


class TestIsDeviation:
    def test_singletons_symmetric_game(self, example6):
        move = ashg.find_is_deviation(example6, ashg.Partition.singletons(6))
        assert move == ashg.DeviationMove(0, frozenset({0}), frozenset({1}))

    def test_split_gadget_solver_output(self, split_gadget_112):
        # y1 sits with y2 (value -W) in the big block, so leaving for the x2
        # singleton is beneficial and x2 is indifferent: an IS deviation exists
        gadget, _ = split_gadget_112
        part, _ = ashg.compute_cis(gadget.game)
        move = ashg.find_is_deviation(gadget.game, part)
        assert move is not None
        assert gadget.game.labels[move.player] == "y1"
        assert labelset(gadget.game, move.target) == {"x2"}

    def test_one_player_game(self):
        g = ashg.Game(["p"])
        assert ashg.find_is_deviation(g, ashg.Partition.grand(1)) is None


class TestCisDeviation:
    def test_solver_output_on_example(self, example6):
        pi = ashg.Partition.of_labels(example6, [["1", "2", "3", "5", "6"], ["4"]])
        assert ashg.find_cis_deviation(example6, pi) is None
        assert not brute_has_deviation(example6, pi, "cis")

    def test_unencumbered_move(self):
        g = ashg.Game(["a", "b"], {("a", "b"): 1})
        move = ashg.find_cis_deviation(g, ashg.Partition.singletons(2))
        assert move == ashg.DeviationMove(0, frozenset({0}), frozenset({1}))

    def test_all_zero_game(self):
        g = ashg.Game(["a", "b", "c"])
        for pi in (ashg.Partition.grand(3), ashg.Partition.singletons(3)):
            assert ashg.find_cis_deviation(g, pi) is None


class TestBlocking:
    def test_example_strong_witness(self, example6, example6_partition):
        w = ashg.find_strongly_blocking(example6, example6_partition)
        assert labelset(example6, w.coalition) == {"1", "5", "6"}
        assert w.kind == "strong"

    def test_example_weak_witness(self, example6, example6_partition):
        w = ashg.find_weakly_blocking(example6, example6_partition)
        assert labelset(example6, w.coalition) == {"1", "5", "6"}
        assert w.kind == "weak"
        assert w.strictly_better == w.coalition

    def test_pairs_partition_minimal_witness(self, example6):
        # frozen: first strongly blocking coalition in mask order is {1,2,3}
        pi = ashg.Partition.of_labels(example6, [["1", "2"], ["3", "4"], ["5", "6"]])
        w = ashg.find_strongly_blocking(example6, pi)
        assert labelset(example6, w.coalition) == {"1", "2", "3"}
        blockers = brute_all_blocking(example6, pi, weak=False)
        assert w.coalition in blockers
        assert frozenset(example6.index(x) for x in "345") in blockers

    def test_all_zero_grand_coalition(self):
        g = ashg.Game(["a", "b", "c"])
        assert ashg.find_strongly_blocking(g, ashg.Partition.grand(3)) is None
        assert ashg.find_weakly_blocking(g, ashg.Partition.grand(3)) is None

    def test_one_player(self):
        g = ashg.Game(["p"])
        assert ashg.find_weakly_blocking(g, ashg.Partition.grand(1)) is None

    def test_cap_refusal(self):
        g = ashg.Game([f"p{i}" for i in range(5)])
        with pytest.raises(TooLarge):
            ashg.find_strongly_blocking(g, ashg.Partition.grand(5), cap=4)

    def test_weak_without_strong(self):
        # b strictly gains in {a,b}, a is indifferent: the strict core fails
        # while the core holds
        g = ashg.Game(["a", "b"], {("b", "a"): 1})
        pi = ashg.Partition.singletons(2)
        assert ashg.find_strongly_blocking(g, pi) is None
        w = ashg.find_weakly_blocking(g, pi)
        assert w.coalition == frozenset({0, 1})
        assert w.strictly_better == frozenset({1})


class TestCscViolation:
    def test_split_gadget_yes_instance(self, split_gadget_112):
        gadget, grand = split_gadget_112
        w = ashg.find_csc_violation(gadget.game, grand)
        assert labelset(gadget.game, w.coalition) == {"x1", "y1", "z1", "z2"}

    def test_split_gadget_no_instance(self):
        gadget, grand = ashg.reduce_partition(ashg.PartitionInstance((2, 3, 7)))
        assert ashg.find_csc_violation(gadget.game, grand) is None

    def test_one_player(self):
        g = ashg.Game(["p"])
        assert ashg.find_csc_violation(g, ashg.Partition.grand(1)) is None

    def test_violation_is_weakly_blocking(self, split_gadget_112):
        gadget, grand = split_gadget_112
        w = ashg.find_csc_violation(gadget.game, grand)
        blockers = brute_all_blocking(gadget.game, grand, weak=True)
        assert w.coalition in blockers


class TestParetoImprovement:
    def test_split_gadget_yes_instance(self, split_gadget_112):
        gadget, grand = split_gadget_112
        improved = ashg.find_pareto_improvement(gadget.game, grand)
        assert improved is not None
        base = [brute_utility(gadget.game, grand.block_of(p), p) for p in range(7)]
        new = [brute_utility(gadget.game, improved.block_of(p), p) for p in range(7)]
        assert all(a >= b for a, b in zip(new, base))
        assert any(a > b for a, b in zip(new, base))

    def test_two_block_split_also_improves(self, split_gadget_112):
        gadget, grand = split_gadget_112
        candidate = ashg.witness_partition_split(gadget, [0, 1])
        base = [brute_utility(gadget.game, grand.block_of(p), p) for p in range(7)]
        new = [brute_utility(gadget.game, candidate.block_of(p), p) for p in range(7)]
        assert all(a >= b for a, b in zip(new, base))
        assert any(a > b for a, b in zip(new, base))

    def test_split_gadget_no_instance(self):
        gadget, grand = ashg.reduce_partition(ashg.PartitionInstance((2, 3, 7)))
        assert ashg.find_pareto_improvement(gadget.game, grand) is None
        assert not brute_has_pareto_improvement(gadget.game, grand)

    def test_all_zero_game(self):
        g = ashg.Game(["a", "b", "c"])
        assert ashg.find_pareto_improvement(g, ashg.Partition.singletons(3)) is None

    def test_cap_refusal(self):
        g = ashg.Game([f"p{i}" for i in range(4)])
        with pytest.raises(TooLarge):
            ashg.find_pareto_improvement(g, ashg.Partition.grand(4), cap=3)


class TestVerify:
    def test_core_verdict(self, example6, example6_partition):
        verdict = ashg.verify(example6, example6_partition, C.CORE)
        assert not verdict.stable
        assert labelset(example6, verdict.witness.coalition) == {"1", "5", "6"}

    def test_ns_verdict(self, example6, example6_partition):
        verdict = ashg.verify(example6, example6_partition, C.NS)
        assert verdict.stable and verdict.witness is None

    def test_csc_verdict_stable(self):
        gadget, grand = ashg.reduce_partition(ashg.PartitionInstance((2, 3, 7)))
        assert ashg.verify(gadget.game, grand, C.CSC).stable

    def test_ir_witness_is_singleton_move(self, example6):
        verdict = ashg.verify(example6, ashg.Partition.grand(6), C.IR)
        assert not verdict.stable
        assert verdict.witness == ashg.DeviationMove(0, frozenset(range(6)), frozenset())


class TestCoreExists:
    def test_example_core_is_empty(self, example6):
        assert ashg.core_exists(example6) is None

    def test_example_strict_core_is_empty(self, example6):
        assert ashg.core_exists(example6, strict=True) is None

    def test_mutual_friends_pair(self):
        g = ashg.Game(["a", "b"], {("a", "b"): 1, ("b", "a"): 1})
        assert ashg.core_exists(g) == ashg.Partition.grand(2)

    def test_triangle(self):
        g = ashg.Game.from_matrix(["a", "b", "c"], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert ashg.core_exists(g) == ashg.Partition.grand(3)

    def test_cap_refusal(self):
        g = ashg.Game([f"p{i}" for i in range(3)])
        with pytest.raises(TooLarge):
            ashg.core_exists(g, cap=2)


ALL_CONCEPTS = [C.NS, C.IS, C.CIS, C.CORE, C.STRICT_CORE, C.CSC, C.PARETO]

IMPLICATIONS = [
    (C.NS, C.IS),
    (C.IS, C.CIS),
    (C.STRICT_CORE, C.CORE),
    (C.STRICT_CORE, C.IS),
    (C.STRICT_CORE, C.PARETO),
    (C.PARETO, C.CSC),
    (C.CSC, C.CIS),
]


def test_stability_lattice_random_games():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 6)
        g = random_game(rng, n)
        pi = random_partition(rng, n)
        stable = {c: ashg.verify(g, pi, c).stable for c in ALL_CONCEPTS}
        for pre, post in IMPLICATIONS:
            assert not stable[pre] or stable[post], (ashg.serialize_game(g), pi, pre, post)


def test_witness_soundness_random_games():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 6)
        g = random_game(rng, n)
        pi = random_partition(rng, n)
        for concept in (C.NS, C.IS, C.CIS):
            v = ashg.verify(g, pi, concept)
            assert v.stable == (not brute_has_deviation(g, pi, concept.value))
            if not v.stable:
                m = v.witness
                assert m.player in m.source and m.player not in m.target
                gain = brute_utility(g, m.target | {m.player}, m.player)
                assert gain > brute_utility(g, m.source, m.player)
                if concept in (C.IS, C.CIS):
                    assert all(g.value(j, m.player) >= 0 for j in m.target)
                if concept is C.CIS:
                    assert all(
                        g.value(j, m.player) <= 0 for j in m.source if j != m.player
                    )
        for concept, weak in ((C.CORE, False), (C.STRICT_CORE, True)):
            v = ashg.verify(g, pi, concept)
            blockers = brute_all_blocking(g, pi, weak=weak)
            assert v.stable == (not blockers)
            if not v.stable:
                assert v.witness.coalition == min(
                    blockers, key=lambda s: sum(1 << p for p in s)
                )
        v = ashg.verify(g, pi, C.PARETO)
        assert v.stable == (not brute_has_pareto_improvement(g, pi))


def test_witnesses_are_deterministic(example6, example6_partition):
    for concept in ALL_CONCEPTS:
        first = ashg.verify(example6, example6_partition, concept)
        second = ashg.verify(example6, example6_partition, concept)
        assert first == second


def test_csc_witness_never_precedes_weak_witness():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(2, 6)
        g = random_game(rng, n)
        pi = random_partition(rng, n)
        csc = ashg.find_csc_violation(g, pi)
        if csc is None:
            continue
        weak = ashg.find_weakly_blocking(g, pi)
        assert weak is not None
        mask = lambda s: sum(1 << p for p in s)
        assert mask(weak.coalition) <= mask(csc.coalition)


FINDERS = [
    ashg.find_nash_deviation,
    ashg.find_is_deviation,
    ashg.find_cis_deviation,
    ashg.find_strongly_blocking,
    ashg.find_weakly_blocking,
    ashg.find_csc_violation,
    ashg.find_pareto_improvement,
    ashg.is_individually_rational,
]


@given(data=st.data(), n=st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_outputs_invariant_under_positive_scaling(data, n):
    """Multiplying every value by a rational c > 0 changes no witness or trace."""
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    rows = random_rational_rows(rng, n)
    c = Fraction(data.draw(st.integers(1, 60)), data.draw(st.integers(1, 60)))
    labels = [f"p{i}" for i in range(n)]
    g = ashg.Game.from_matrix(labels, rows)
    scaled = ashg.Game.from_matrix(labels, [[v * c for v in row] for row in rows])
    pi = random_partition(rng, n)
    for finder in FINDERS:
        assert finder(scaled, pi) == finder(g, pi), finder.__name__
    for strict in (False, True):
        assert ashg.core_exists(scaled, strict=strict) == ashg.core_exists(g, strict=strict)
    for seed in (None, rng.randint(0, 999)):
        assert ashg.compute_cis(scaled, seed) == ashg.compute_cis(g, seed)
