"""Core model: utilities, friends, symmetry, partition validation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ashg
from ashg.errors import (
    DuplicatePlayer,
    EmptyCoalition,
    EmptyGame,
    GameFormatError,
    MissingPlayer,
    PlayerNotInCoalition,
    UnknownPlayer,
)

from conftest import brute_utility, random_game


def idx(game, *labels):
    return frozenset(game.index(lab) for lab in labels)


class TestGameConstruction:
    def test_rejects_empty_player_set(self):
        with pytest.raises(EmptyGame):
            ashg.Game([])

    def test_single_player_is_legal(self):
        g = ashg.Game(["solo"])
        assert g.n == 1

    @pytest.mark.parametrize("label", ["has space", "ha#sh", ""])
    def test_rejects_bad_labels(self, label):
        with pytest.raises(GameFormatError):
            ashg.Game([label])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(GameFormatError):
            ashg.Game(["a", "a"])

    def test_rejects_nonzero_self_value(self):
        with pytest.raises(GameFormatError):
            ashg.Game(["a", "b"], {("a", "a"): 1})

    def test_zero_self_value_is_tolerated(self):
        g = ashg.Game(["a", "b"], {("a", "a"): 0, ("a", "b"): 3})
        assert g.value(0, 1) == 3

    def test_rejects_floats(self):
        with pytest.raises(GameFormatError):
            ashg.Game(["a", "b"], {("a", "b"): 0.5})

    def test_default_fills_unspecified_pairs_only(self):
        g = ashg.Game(["a", "b", "c"], {("a", "b"): 7}, default=-2)
        assert g.value(0, 1) == 7
        assert g.value(1, 0) == -2
        assert g.value(0, 0) == 0

    def test_rows_share_the_lcm_scale(self):
        g = ashg.Game(
            ["a", "b", "c"],
            {("a", "b"): Fraction(1, 2), ("b", "a"): Fraction(2, 3)},
            default=Fraction(1, 4),
        )
        assert g.scale == 12
        assert g.rows == ((0, 6, 3), (8, 0, 3), (3, 3, 0))

    def test_unused_default_leaves_equality_and_hash(self):
        values = {("a", "b"): 1, ("b", "a"): Fraction(-1, 2)}
        g = ashg.Game(["a", "b"], values, default=Fraction(1, 3))
        h = ashg.Game(["a", "b"], values)
        assert g == h
        assert hash(g) == hash(h)

    def test_values_are_exact_canonical_rationals(self):
        g = ashg.Game(["a", "b"], {("a", "b"): Fraction(2, 4)})
        v = g.value(0, 1)
        assert (v.numerator, v.denominator) == (1, 2)


class TestUtility:
    def test_example_coalition(self, example6):
        # player 4 together with 3 and 5
        assert ashg.utility(example6, idx(example6, "3", "4", "5"), example6.index("4")) == 11

    def test_singleton_utility_is_zero(self, example6):
        assert ashg.utility(example6, {2}, 2) == 0

    def test_grand_coalition_in_split_gadget(self, split_gadget_112):
        gadget, grand = split_gadget_112
        x1 = gadget.player("x1")
        assert ashg.utility(gadget.game, frozenset(range(gadget.game.n)), x1) == 4

    def test_player_must_be_member(self, example6):
        with pytest.raises(PlayerNotInCoalition):
            ashg.utility(example6, {0, 1}, 2)

    def test_unknown_member_rejected(self, example6):
        with pytest.raises(UnknownPlayer):
            ashg.utility(example6, {0, 99}, 0)


class TestPartitionUtility:
    def test_example_values(self, example6, example6_partition):
        assert ashg.partition_utility(example6, example6_partition, example6.index("6")) == 0
        assert ashg.partition_utility(example6, example6_partition, example6.index("3")) == 10

    def test_singletons_give_zero(self, example6):
        pi = ashg.Partition.singletons(6)
        assert all(ashg.partition_utility(example6, pi, p) == 0 for p in range(6))


class TestFriends:
    def test_positive_valued_pool_members(self, example6):
        pool = idx(example6, "2", "3", "4", "5", "6")
        assert ashg.friends(example6, example6.index("1"), pool) == idx(
            example6, "2", "3", "5", "6"
        )

    def test_empty_pool(self, example6):
        assert ashg.friends(example6, 0, frozenset()) == frozenset()

    def test_all_enemies(self, example6):
        pool = idx(example6, "1", "2", "6")
        assert ashg.friends(example6, example6.index("4"), pool) == frozenset()


class TestSymmetryStrictness:
    def test_example_is_symmetric_and_strict(self, example6):
        assert ashg.is_symmetric(example6)
        assert ashg.is_strict(example6)

    def test_split_gadget_is_neither(self, split_gadget_112):
        gadget, _ = split_gadget_112
        assert not ashg.is_symmetric(gadget.game)
        assert not ashg.is_strict(gadget.game)

    def test_empty_valuation_game(self):
        g = ashg.Game(["a", "b", "c"])
        assert ashg.is_symmetric(g)
        assert not ashg.is_strict(g)

    def test_one_player_game_is_vacuously_strict(self):
        assert ashg.is_strict(ashg.Game(["a"]))


class TestValidatePartition:
    def test_accepts_valid(self, example6, example6_partition):
        assert ashg.validate_partition(example6, example6_partition) == example6_partition

    def test_duplicate_player(self, example6):
        with pytest.raises(DuplicatePlayer):
            ashg.validate_partition(example6, [[0, 1], [1, 2, 3, 4, 5]])

    def test_missing_player(self, example6):
        with pytest.raises(MissingPlayer):
            ashg.validate_partition(example6, [[0, 1], [2, 3, 4]])

    def test_unknown_player(self, example6):
        with pytest.raises(UnknownPlayer):
            ashg.validate_partition(example6, [[0, 1, 2, 3, 4, 5, 6]])

    def test_empty_coalition(self, example6):
        with pytest.raises(EmptyCoalition):
            ashg.validate_partition(example6, [[0, 1, 2, 3, 4, 5], []])


class TestIndividualRationality:
    def test_example_partition_is_ir(self, example6, example6_partition):
        assert ashg.is_individually_rational(example6, example6_partition) == (True, None)

    def test_grand_coalition_violator(self, example6):
        # player 1 sums 6 + 4 - 33 + 4 + 5
        ok, violator = ashg.is_individually_rational(example6, ashg.Partition.grand(6))
        assert not ok
        assert violator == example6.index("1")

    def test_singletons_are_ir(self, example6):
        assert ashg.is_individually_rational(example6, ashg.Partition.singletons(6)) == (
            True,
            None,
        )


@given(data=st.data(), n=st.integers(2, 6))
@settings(max_examples=100, deadline=None)
def test_utility_is_additive(data, n):
    import random

    seed = data.draw(st.integers(0, 2**32))
    g = random_game(random.Random(seed), n)
    members = data.draw(
        st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1).map(frozenset)
    )
    player = data.draw(st.sampled_from(sorted(members)))
    joiner = data.draw(st.sampled_from(sorted(set(range(n)) - members)))
    assert ashg.utility(g, members | {joiner}, player) == ashg.utility(
        g, members, player
    ) + g.value(player, joiner)


@given(data=st.data(), n=st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_friends_distributes_over_union(data, n):
    import random

    seed = data.draw(st.integers(0, 2**32))
    g = random_game(random.Random(seed), n)
    player = data.draw(st.integers(0, n - 1))
    pool_a = data.draw(st.sets(st.integers(0, n - 1)).map(frozenset))
    pool_b = data.draw(st.sets(st.integers(0, n - 1)).map(frozenset))
    assert ashg.friends(g, player, pool_a | pool_b) == ashg.friends(
        g, player, pool_a
    ) | ashg.friends(g, player, pool_b)


@given(data=st.data(), n=st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_validate_accepts_exactly_partitions(data, n):
    g = ashg.Game([f"p{i}" for i in range(n)])
    system = data.draw(
        st.lists(
            st.sets(st.integers(0, n - 1), max_size=n).map(frozenset),
            max_size=4,
        )
    )
    covered = [p for block in system for p in block]
    is_partition = (
        all(system)
        and len(covered) == len(set(covered))
        and set(covered) == set(range(n))
    )
    if is_partition:
        ashg.validate_partition(g, system)
    else:
        with pytest.raises(ashg.AshgError):
            ashg.validate_partition(g, system)


@given(data=st.data(), n=st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_utility_matches_direct_sum(data, n):
    import random

    seed = data.draw(st.integers(0, 2**32))
    g = random_game(random.Random(seed), n)
    members = data.draw(
        st.sets(st.integers(0, n - 1), min_size=1, max_size=n).map(frozenset)
    )
    player = data.draw(st.sampled_from(sorted(members)))
    assert ashg.utility(g, members, player) == brute_utility(g, members, player)
