"""Gadget constructions, their witness partitions, and the source oracles."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ashg
from ashg import StabilityConcept as C
from ashg.errors import InvalidInstance, NotACover, NotAnEqualSplit, TooLarge

from conftest import TOKENS, brute_solve_partition, reference_solve_partition


def e3c(universe, triples):
    return ashg.E3CInstance(tuple(universe), tuple(frozenset(t) for t in triples))


class TestExampleSixPlayer:
    def test_symmetric(self, example6):
        assert ashg.is_symmetric(example6)

    def test_hexagon_utilities(self, example6):
        six = example6.index("6")
        members = {example6.index(x) for x in "156"}
        assert ashg.utility(example6, members, six) == 11

    def test_unlisted_pair_is_negative(self, example6):
        one = example6.index("1")
        assert ashg.utility(example6, {one, example6.index("4")}, one) == -33


class TestE3CInstance:
    def test_universe_must_be_multiple_of_three(self):
        with pytest.raises(InvalidInstance):
            e3c("1234", [])

    def test_triples_must_have_three_known_elements(self):
        with pytest.raises(InvalidInstance):
            e3c("123", [("1", "2")])
        with pytest.raises(InvalidInstance):
            e3c("123", [("1", "2", "9")])

    def test_occurrence_bound_enforced_by_default(self):
        triples = [("1", "2", "3"), ("1", "2", "4"), ("1", "3", "4"), ("1", "5", "6")]
        with pytest.raises(InvalidInstance):
            e3c("123456", triples)

    def test_repeated_triple_rejected(self):
        # a second hub on a covered triple would weakly block the witness
        with pytest.raises(InvalidInstance, match=r"repeated triple: \['1', '2', '3'\]"):
            e3c("123", [("1", "2", "3"), ("3", "2", "1")])


class TestReduceE3C:
    def test_player_count(self):
        gadget = ashg.reduce_e3c(e3c("123", [("1", "2", "3")]))
        assert gadget.game.n == 19

    def test_hub_values(self):
        gadget = ashg.reduce_e3c(e3c("123", [("1", "2", "3")]))
        g = gadget.game
        assert g.value(g.index("x6_1"), g.index("y_0")) == Fraction(41, 4)
        assert g.value(g.index("x6_1"), g.index("x6_2")) == Fraction(1, 2)
        assert g.value(g.index("x1_1"), g.index("x1_2")) == -33

    def test_always_symmetric(self):
        for triples in ([("1", "2", "3")], [("1", "2", "3"), ("1", "4", "5")]):
            universe = "123" if len(triples) == 1 else "123456"
            gadget = ashg.reduce_e3c(e3c(universe, triples))
            assert ashg.is_symmetric(gadget.game)


class TestWitnessPartitionE3C:
    def test_utilities(self):
        gadget = ashg.reduce_e3c(e3c("123", [("1", "2", "3")]))
        pi = ashg.witness_partition_e3c(gadget, [0])
        g = gadget.game
        assert ashg.partition_utility(g, pi, g.index("x6_1")) == Fraction(45, 4)
        assert ashg.partition_utility(g, pi, g.index("y_0")) == Fraction(123, 4)
        for j, expected in zip(range(1, 6), (6, 6, 10, 11, 9)):
            assert ashg.partition_utility(g, pi, g.index(f"x{j}_2")) == expected

    def test_uncovered_hub_is_singleton(self):
        inst = e3c("123456", [("1", "2", "3"), ("1", "4", "5"), ("4", "5", "6")])
        gadget = ashg.reduce_e3c(inst)
        pi = ashg.witness_partition_e3c(gadget, [0, 2])
        g = gadget.game
        assert pi.block_of(g.index("y_1")) == frozenset({g.index("y_1")})
        assert ashg.partition_utility(g, pi, g.index("y_1")) == 0

    def test_not_a_cover(self):
        gadget = ashg.reduce_e3c(e3c("123456", [("1", "2", "3"), ("1", "4", "5")]))
        with pytest.raises(NotACover):
            ashg.witness_partition_e3c(gadget, [0, 1])
        with pytest.raises(NotACover):
            ashg.witness_partition_e3c(gadget, [0])


class TestSolveE3C:
    def test_single_triple(self):
        assert ashg.solve_e3c(e3c("123", [("1", "2", "3")])) == (0,)

    def test_first_cover_in_lexicographic_order(self):
        inst = e3c("123456", [("1", "2", "3"), ("4", "5", "6"), ("1", "4", "5")])
        assert ashg.solve_e3c(inst) == (0, 1)

    def test_no_cover(self):
        assert ashg.solve_e3c(e3c("123456", [("1", "2", "3"), ("1", "4", "5")])) is None

    def test_cap(self):
        # 25 triples (i, i+1, i+2) over 27 elements; without the cap the
        # cover 0, 3, ..., 24 is found at once
        universe = [str(i) for i in range(27)]
        inst = e3c(universe, [universe[i : i + 3] for i in range(25)])
        with pytest.raises(TooLarge) as exc:
            ashg.solve_e3c(inst)
        assert (exc.value.n, exc.value.cap) == (25, 24)

    def test_soundness_on_random_instances(self):
        rng = random.Random(17)
        for _ in range(50):
            m = 2
            universe = tuple(str(i) for i in range(1, 3 * m + 1))
            pool = list(itertools.combinations(universe, 3))
            triples = tuple(frozenset(t) for t in rng.sample(pool, rng.randint(1, 5)))
            try:
                inst = ashg.E3CInstance(universe, triples)
            except InvalidInstance:
                continue
            cover = ashg.solve_e3c(inst)
            brute = [
                sel
                for r in range(len(triples) + 1)
                for sel in itertools.combinations(range(len(triples)), r)
                if sorted(x for k in sel for x in triples[k]) == sorted(universe)
            ]
            assert (cover is None) == (not brute)
            if cover is not None:
                covered = [x for k in cover for x in inst.triples[k]]
                assert sorted(covered) == sorted(universe)


class TestReducePartition:
    def test_grand_coalition_utilities(self, split_gadget_112):
        gadget, grand = split_gadget_112
        g = gadget.game
        assert ashg.partition_utility(g, grand, g.index("x1")) == 4
        assert ashg.partition_utility(g, grand, g.index("y1")) == -4
        assert ashg.partition_utility(g, grand, g.index("z1")) == 0

    def test_asymmetric(self, split_gadget_112):
        gadget, _ = split_gadget_112
        g = gadget.game
        assert g.value(g.index("x1"), g.index("y1")) == 2
        assert g.value(g.index("y1"), g.index("x1")) == 0
        assert not ashg.is_symmetric(g)

    def test_odd_total_stays_exact(self):
        gadget, _ = ashg.reduce_partition(ashg.PartitionInstance((1,)))
        g = gadget.game
        assert g.value(g.index("x1"), g.index("y1")) == Fraction(1, 2)

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(InvalidInstance):
            ashg.PartitionInstance((1, 0))
        with pytest.raises(InvalidInstance):
            ashg.PartitionInstance((-2,))


class TestWitnessPartitionSplit:
    def test_split_utilities(self, split_gadget_112):
        gadget, _ = split_gadget_112
        g = gadget.game
        pi = ashg.witness_partition_split(gadget, [0, 1])
        assert ashg.partition_utility(g, pi, g.index("y1")) == 0
        assert ashg.partition_utility(g, pi, g.index("x1")) == 4

    def test_alternate_split(self, split_gadget_112):
        gadget, _ = split_gadget_112
        g = gadget.game
        pi = ashg.witness_partition_split(gadget, [2])
        assert ashg.partition_utility(g, pi, g.index("x1")) == 4
        assert ashg.partition_utility(g, pi, g.index("x2")) == 4

    def test_unequal_split_rejected(self, split_gadget_112):
        gadget, _ = split_gadget_112
        with pytest.raises(NotAnEqualSplit):
            ashg.witness_partition_split(gadget, [0])


class TestSolvePartition:
    def test_first_subset_in_mask_order(self):
        assert ashg.solve_partition(ashg.PartitionInstance((1, 1, 2))) == (0, 1)

    def test_no_equal_split(self):
        assert ashg.solve_partition(ashg.PartitionInstance((2, 3, 7))) is None

    def test_empty_weight_list(self):
        assert ashg.solve_partition(ashg.PartitionInstance(())) == ()

    def test_cap(self):
        # an odd total: without the cap the answer is None at once
        with pytest.raises(TooLarge) as exc:
            ashg.solve_partition(ashg.PartitionInstance((1,) * 31))
        assert (exc.value.n, exc.value.cap) == (31, 30)

    def test_matches_brute_force(self):
        rng = random.Random(19)
        for _ in range(100):
            weights = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 7)))
            got = ashg.solve_partition(ashg.PartitionInstance(weights))
            assert (got is None) == (brute_solve_partition(weights) is None)
            if got is not None:
                assert 2 * sum(weights[i] for i in got) == sum(weights)


SMALL_WEIGHTS = st.integers(1, 12)
WEIGHT_LISTS = st.one_of(
    st.lists(SMALL_WEIGHTS, max_size=12),
    st.lists(SMALL_WEIGHTS, max_size=12).map(lambda ws: [w + 10**39 for w in ws]),  # 40 digits, splits common
    st.lists(SMALL_WEIGHTS | st.integers(10**39, 10**40 - 1), max_size=12),
)


@given(weights=WEIGHT_LISTS)
@settings(max_examples=300, deadline=None)
def test_solve_partition_finds_the_smallest_mask(weights):
    assert ashg.solve_partition(ashg.PartitionInstance(tuple(weights))) == reference_solve_partition(weights)


class TestParseE3C:
    def test_good_file(self):
        inst = ashg.parse_e3c("# cover spec\nuniverse 1 2 3\nset 1 2 3\n")
        assert inst.universe == ("1", "2", "3")
        assert inst.triples == (frozenset({"1", "2", "3"}),)

    def test_empty_file(self):
        with pytest.raises(ashg.GameFormatError):
            ashg.parse_e3c("")

    def test_bad_directive(self):
        with pytest.raises(ashg.GameFormatError):
            ashg.parse_e3c("universe 1 2 3\ntriple 1 2 3\n")

    def test_bad_universe_size(self):
        with pytest.raises(ashg.GameFormatError):
            ashg.parse_e3c("universe 1 2\n")

    def test_repeated_triple(self):
        with pytest.raises(ashg.GameFormatError, match="repeated triple"):
            ashg.parse_e3c("universe 1 2 3\nset 1 2 3\nset 3 2 1\n")

    @pytest.mark.parametrize(
        "sets, message",
        [
            (["set 1 2 9"], "line 3: each triple needs 3 distinct universe elements: ['1', '2', '9']"),
            (["set 1 2 3", "set 4 4 5"], "line 4: each triple needs 3 distinct universe elements: ['4', '5']"),
            (["set 1 2 3", "", "set 3 2 1"], "line 5: repeated triple: ['1', '2', '3']"),
            (["set 1 2 3", "set 1 2 4", "set 1 3 4", "# fourth 1", "set 6 5 1", "set 1 2 9"],
             "line 7: element '1' occurs in more than 3 triples"),
        ],
        ids=["unknown-element", "repeated-element", "repeated-triple", "occurrence-bound"],
    )
    def test_instance_errors_name_the_set_line(self, sets, message):
        text = "# spec\nuniverse 1 2 3 4 5 6\n" + "\n".join(sets) + "\n"
        with pytest.raises(ashg.GameFormatError) as exc:
            ashg.parse_e3c(text)
        assert str(exc.value) == message


@st.composite
def e3c_specs(draw):
    """A universe, distinct triples that keep the occurrence bound, and their spec lines."""
    m = draw(st.integers(1, 4))
    universe = draw(st.lists(TOKENS, min_size=3 * m, max_size=3 * m, unique=True))
    picks = draw(st.lists(st.lists(st.sampled_from(universe), min_size=3, max_size=3, unique=True), max_size=8))
    counts = dict.fromkeys(universe, 0)
    triples = []
    for t in picks:
        if frozenset(t) not in map(frozenset, triples) and all(counts[r] < 3 for r in t):
            triples.append(t)
            for r in t:
                counts[r] += 1
    lines = ["universe " + " ".join(universe)] + ["set " + " ".join(t) for t in triples]
    return universe, triples, lines


@given(spec=e3c_specs(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_parse_e3c_reproduces_spec(spec, data):
    universe, triples, lines = spec
    # comments and blank lines anywhere change nothing
    noisy = []
    for line in lines:
        noisy += data.draw(st.lists(st.sampled_from(["", "  ", "# note", " # set a b c"]), max_size=2))
        noisy.append(line + data.draw(st.sampled_from(["", "  ", " # comment"])))
    inst = ashg.parse_e3c("\n".join(noisy) + "\n")
    assert inst.universe == tuple(universe)
    assert inst.triples == tuple(frozenset(t) for t in triples)


@given(spec=e3c_specs(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_parse_e3c_rejects_bad_lines(spec, data):
    universe, triples, lines = spec
    bad_line = data.draw(st.sampled_from(["directive", "set", "repeat"] if triples else ["directive", "set"]))
    if bad_line == "directive":
        word = data.draw(TOKENS.filter(lambda t: t not in ("set", "universe")))
        args = data.draw(st.lists(st.sampled_from(universe), max_size=4))
    elif bad_line == "set":
        word = "set"
        args = data.draw(
            st.lists(st.sampled_from(universe), max_size=5).filter(lambda a: len(a) != 3 or len(set(a)) < 3)
        )
    else:  # repeat an earlier triple, in any order
        word = "set"
        args = data.draw(st.permutations(data.draw(st.sampled_from(triples))))
    at = data.draw(st.integers(0, len(lines)))
    bad = lines[:at] + [" ".join([word] + args)] + lines[at:]
    with pytest.raises(ashg.GameFormatError, match=r"^line [0-9]+: "):
        ashg.parse_e3c("\n".join(bad) + "\n")


class TestReductionProperties:
    def test_cover_instance_witness_is_strict_core_stable(self):
        inst = e3c("123", [("1", "2", "3")])
        cover = ashg.solve_e3c(inst)
        assert cover == (0,)
        gadget = ashg.reduce_e3c(inst)
        pi = ashg.witness_partition_e3c(gadget, cover)
        assert ashg.find_weakly_blocking(gadget.game, pi) is None

    @pytest.mark.parametrize(
        "triples, has_cover", [([], False), ([("a", "b", "c")], True)], ids=["no-cover-18", "cover-19"]
    )
    def test_strict_core_nonempty_exactly_on_covers(self, monkeypatch, triples, has_cover):
        # both directions of the reduction at |R| = 3, by exhaustive partition search; at most one
        # triple fits, so no cover leaves a triple out
        monkeypatch.setattr(ashg.stability, "PARTITION_CAP", 19)
        inst = e3c("abc", triples)
        assert (ashg.solve_e3c(inst) is not None) is has_cover
        found = ashg.core_exists(ashg.reduce_e3c(inst).game, strict=True)
        assert (found is not None) is has_cover

    def test_witness_is_core_stable_but_weakly_blocked_by_a_triple_left_out(self, monkeypatch):
        # |R| = 6: the cover (0, 1) leaves "ade" out; its hub gains with x6_a, x6_d and x6_e,
        # who do exactly as well there as in their chosen hubs' blocks
        monkeypatch.setattr(ashg.stability, "SUBSET_CAP", 39)
        inst = e3c("abcdef", ["abc", "def", "ade"])
        assert ashg.solve_e3c(inst) == (0, 1)
        gadget = ashg.reduce_e3c(inst)
        game, pi = gadget.game, ashg.witness_partition_e3c(gadget, (0, 1))
        assert game.n == 39
        assert ashg.find_strongly_blocking(game, pi) is None
        w = ashg.find_weakly_blocking(game, pi)

        def names(players):
            return {game.labels[p] for p in players}

        assert (names(w.coalition), w.kind, names(w.strictly_better)) == (
            {"y_2", "x6_a", "x6_d", "x6_e"},
            "weak",
            {"y_2"},
        )

    def test_split_equivalence_small(self):
        for weights in itertools.product(range(1, 5), repeat=3):
            inst = ashg.PartitionInstance(weights)
            gadget, grand = ashg.reduce_partition(inst)
            has_split = ashg.solve_partition(inst) is not None
            csc_stable = ashg.find_csc_violation(gadget.game, grand) is None
            pareto = ashg.find_pareto_improvement(gadget.game, grand) is None
            assert csc_stable == (not has_split)
            assert pareto == (not has_split)
