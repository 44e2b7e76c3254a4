"""Core model: utilities, friends, symmetry, partition validation."""

from decimal import Decimal
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

from conftest import brute_utility, random_game, random_rational_rows


def idx(game, *labels):
    return frozenset(game.index(lab) for lab in labels)


class TestGameConstruction:
    def test_rejects_empty_player_set(self):
        with pytest.raises(EmptyGame):
            ashg.Game([])

    def test_single_player_is_legal(self):
        g = ashg.Game(["solo"])
        assert g.n == 1

    @pytest.mark.parametrize("label", ["has space", "ha#sh", "", "a\n"])
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

    @pytest.mark.parametrize("value", ["0.5", "abc", Decimal("NaN"), Decimal("Infinity"), None, 1 + 0j, True],
                             ids=["decimal-str", "str", "nan", "infinity", "none", "complex", "bool"])
    def test_values_other_than_int_or_fraction_are_refused_by_type(self, value):
        # the message names the type, not the value, whose repr can be arbitrarily long
        message = f"^value of type {type(value).__name__} rejected; use Fraction or int$"
        builds = [lambda: ashg.Game(["a", "b"], {("a", "b"): value}),
                  lambda: ashg.Game(["a", "b"], default=value),
                  lambda: ashg.Game.from_matrix(["a", "b"], [[0, value], [0, 0]])]
        if value is not None:  # serialize_game's default=None writes no default line
            builds.append(lambda: ashg.serialize_game(ashg.Game(["a", "b"]), default=value))
        for build in builds:
            with pytest.raises(GameFormatError, match=message):
                build()

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
        assert g.rows == [{1: 6, 2: 3}, {0: 8, 2: 3}, {0: 3, 1: 3}]

    def test_unused_default_leaves_equality_and_hash(self):
        values = {("a", "b"): 1, ("b", "a"): Fraction(-1, 2)}
        g = ashg.Game(["a", "b"], values, default=Fraction(1, 3))
        h = ashg.Game(["a", "b"], values)
        assert g == h
        assert hash(g) == hash(h)

    @pytest.mark.parametrize("rows", [[[0, 1], [1]], [[0, 1], [1, 0], [0, 0]]], ids=["ragged", "extra-row"])
    def test_from_matrix_shape_must_match_the_labels(self, rows):
        with pytest.raises(GameFormatError, match="matrix shape does not match the player count"):
            ashg.Game.from_matrix(["a", "b"], rows)

    def test_equality_with_another_type_is_false(self):
        assert (ashg.Game(["a"]) == "a") is False

    def test_repr(self):
        assert repr(ashg.Game(["a", "b"])) == "Game(2 players: a b)"

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
        x1 = gadget.game.index("x1")
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
        with pytest.raises(DuplicatePlayer):
            ashg.validate_partition(example6, [[0, 1, 1], [2, 3, 4, 5]])

    def test_missing_player(self, example6):
        with pytest.raises(MissingPlayer):
            ashg.validate_partition(example6, [[0, 1], [2, 3, 4]])

    def test_unknown_player(self, example6):
        with pytest.raises(UnknownPlayer):
            ashg.validate_partition(example6, [[0, 1, 2, 3, 4, 5, 6]])

    def test_empty_coalition(self, example6):
        with pytest.raises(EmptyCoalition):
            ashg.validate_partition(example6, [[0, 1, 2, 3, 4, 5], []])

    def test_a_bool_is_not_a_player(self):
        # True == 1, but a player index is a plain int
        g = ashg.Game(["a", "b"])
        for call in (lambda: g.value(True, 0), lambda: g.label(False),
                     lambda: ashg.validate_partition(g, [[True], [0]]),
                     lambda: ashg.verify(g, [[True], [0]], ashg.StabilityConcept.NS)):
            with pytest.raises(UnknownPlayer):
                call()


class TestPartition:
    def test_block_of_an_unknown_player(self):
        with pytest.raises(UnknownPlayer):
            ashg.Partition([[0, 1]]).block_of(2)

    def test_block_of_a_bool(self):
        # True == 1, but a player index is a plain int
        with pytest.raises(UnknownPlayer):
            ashg.Partition([[0, 1]]).block_of(True)

    def test_equality_with_another_type_is_false(self):
        assert (ashg.Partition([[0]]) == [[0]]) is False

    def test_repr(self):
        assert repr(ashg.Partition([[2, 0], [1]])) == "Partition(0 2 | 1)"

    def test_iteration_length_and_hash(self):
        part = ashg.Partition([[2, 0], [1]])
        assert list(part) == [frozenset({0, 2}), frozenset({1})]
        assert len(part) == 2
        assert hash(part) == hash(ashg.Partition([[1], [0, 2]]))
        assert ashg.Partition([[1], [2, 0]]) in {part}


# an int whose repr Python refuses (over 4,300 digits): each error still names it
BIG = 10**5000


@pytest.mark.parametrize("call, error", [
    (lambda g: g.label(BIG), UnknownPlayer),
    (lambda g: g.value(0, BIG), UnknownPlayer),
    (lambda g: ashg.validate_partition(g, [[BIG], [0, 1]]), UnknownPlayer),
    (lambda g: ashg.verify(g, [[BIG], [0, 1]], ashg.StabilityConcept.CSC), UnknownPlayer),
    (lambda g: ashg.Partition([[BIG], [BIG]]), DuplicatePlayer),
    (lambda g: ashg.Partition([[0]]).block_of(BIG), UnknownPlayer),
    (lambda g: ashg.utility(g, [0, BIG], 0), UnknownPlayer),
    (lambda g: ashg.utility(g, [0], BIG), PlayerNotInCoalition),
    (lambda g: ashg.friends(g, BIG, [0]), UnknownPlayer),
    (lambda g: ashg.Game([BIG]), GameFormatError),
], ids=["label", "value", "validate_partition", "verify", "duplicate", "block_of", "utility-member",
        "utility-player", "friends", "label-type"])
def test_an_int_too_long_to_print_is_an_ashg_error(call, error):
    with pytest.raises(error, match="<(int|list) too long to show>"):
        call(ashg.Game(["a", "b"]))


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


@given(data=st.data(), n=st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_from_matrix_matches_label_pairs(data, n):
    import random

    rows = random_rational_rows(random.Random(data.draw(st.integers(0, 2**32))), n)
    labels = [f"p{i}" for i in range(n)]
    values = {(a, b): v for a, row in zip(labels, rows) for b, v in zip(labels, row)}
    assert ashg.Game.from_matrix(labels, rows) == ashg.Game(labels, values)
    # a float is rejected wherever it sits, the zero diagonal included
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    rows[i][j] = float(rows[i][j])
    with pytest.raises(GameFormatError, match="floating-point value"):
        ashg.Game.from_matrix(labels, rows)


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


@given(data=st.data(), n=st.integers(1, 6), default=st.sampled_from([None, 0, -1, Fraction(1, 3)]))
@settings(max_examples=150, deadline=None)
def test_rows_hold_exactly_the_nonzero_off_diagonal_values(data, n, default):
    labels = [f"p{i}" for i in range(n)]
    # None: no val line; 0: an explicit "val a b 0", on the diagonal too
    cells = data.draw(st.lists(st.none() | st.sampled_from([0, 0, 2, -1, Fraction(-5, 2)]),
                               min_size=n * n, max_size=n * n))
    values = {(labels[k // n], labels[k % n]): v for k, v in enumerate(cells)
              if v is not None and (k // n != k % n or v == 0)}
    text = "players " + " ".join(labels) + "\n" + ("" if default is None else f"default {default}\n")
    text += "".join(data.draw(st.permutations([f"val {a} {b} {v}\n" for (a, b), v in values.items()])))
    parsed = ashg.parse_game(text)
    built = ashg.Game(labels, values, default=0 if default is None else default)
    expected = [[0 if i == j else Fraction(values.get((a, b), default or 0)) for j, b in enumerate(labels)]
                for i, a in enumerate(labels)]
    matrix = ashg.Game.from_matrix(labels, expected)
    for game in (parsed, built, matrix):
        for i in range(n):  # nonzero values only, none on the diagonal, in ascending column order
            assert list(game.rows[i].items()) == [(j, v * game.scale) for j, v in enumerate(expected[i]) if v]
            assert all(type(v) is int for v in game.rows[i].values())
    assert parsed == built == matrix
    for spelled in (None, 0, default):  # each game's text parses back to the same bytes
        text = ashg.serialize_game(parsed, default=spelled)
        assert ashg.parse_game(text) == parsed
        assert ashg.serialize_game(ashg.parse_game(text), default=spelled) == text
        assert text == ashg.serialize_game(built, default=spelled) == ashg.serialize_game(matrix, default=spelled)
