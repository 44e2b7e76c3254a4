"""Game and partition text formats: parsing, canonical serialization, round trips."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ashg
from ashg.errors import DuplicatePlayer, GameFormatError, MissingPlayer, UnknownPlayer
from ashg.formats import parse_rational

from conftest import TOKENS, random_rational_rows

GOOD = """\
# three players
players a b c
default -2
val a b 6      # trailing comment
val b c 1/2
"""


class TestParseRational:
    @pytest.mark.parametrize(
        "token,expected",
        [("3", 3), ("-33", -33), ("1/2", Fraction(1, 2)), ("41/4", Fraction(41, 4)), ("+2", 2)],
    )
    def test_valid(self, token, expected):
        assert parse_rational(token) == expected

    @pytest.mark.parametrize(
        "token,kind", [("3", int), ("-0", int), ("+2", int), ("1/2", Fraction), ("4/2", Fraction)]
    )
    def test_value_type(self, token, kind):
        # integers skip Fraction's second parse; Game accepts both forms
        assert type(parse_rational(token)) is kind

    @pytest.mark.parametrize(
        "token", ["1/0", "1/-2", "0.5", "1 / 2", "", "a", "1/+2", "3\n", "\u0661\u0662", "\u0663/4"]
    )
    def test_invalid(self, token):
        with pytest.raises(GameFormatError):
            parse_rational(token)


class TestParseGame:
    def test_basic(self):
        g = ashg.parse_game(GOOD)
        assert g.labels == ("a", "b", "c")
        assert g.value(0, 1) == 6
        assert g.value(1, 2) == Fraction(1, 2)
        assert g.value(1, 0) == -2  # default
        assert g.value(0, 0) == 0

    def test_players_line_must_come_first(self):
        with pytest.raises(GameFormatError):
            ashg.parse_game("val a b 1\nplayers a b\n")

    def test_empty_file(self):
        with pytest.raises(GameFormatError):
            ashg.parse_game("# nothing here\n")

    def test_zero_players(self):
        with pytest.raises(GameFormatError):
            ashg.parse_game("players\n")

    def test_duplicate_val_pair(self):
        with pytest.raises(GameFormatError):
            ashg.parse_game("players a b\nval a b 1\nval a b 2\n")

    def test_reversed_pair_is_not_a_duplicate(self):
        g = ashg.parse_game("players a b\nval a b 1\nval b a 2\n")
        assert (g.value(0, 1), g.value(1, 0)) == (1, 2)

    def test_duplicate_default(self):
        with pytest.raises(GameFormatError):
            ashg.parse_game("players a b\ndefault 1\ndefault 2\n")

    def test_undeclared_player(self):
        with pytest.raises(GameFormatError):
            ashg.parse_game("players a b\nval a z 1\n")

    def test_nonzero_self_value(self):
        with pytest.raises(GameFormatError):
            ashg.parse_game("players a b\nval a a 5\n")

    def test_unknown_directive(self):
        with pytest.raises(GameFormatError):
            ashg.parse_game("players a b\nweight a b 1\n")


class TestSerializeGame:
    def test_canonical_and_deterministic(self, example6):
        text = ashg.serialize_game(example6, default=-33)
        assert text == ashg.serialize_game(example6, default=-33)
        lines = text.splitlines()
        assert lines[0] == "players 1 2 3 4 5 6"
        assert lines[1] == "default -33"
        # 9 symmetric positive pairs -> 18 directed val lines
        assert sum(1 for ln in lines if ln.startswith("val ")) == 18

    def test_round_trip_with_default(self, example6):
        assert ashg.parse_game(ashg.serialize_game(example6, default=-33)) == example6

    def test_round_trip_without_default(self, example6):
        assert ashg.parse_game(ashg.serialize_game(example6)) == example6

    def test_round_trip_split_gadget(self, split_gadget_112):
        gadget, _ = split_gadget_112
        assert ashg.parse_game(ashg.serialize_game(gadget.game, default=0)) == gadget.game

    def test_lowest_terms(self):
        g = ashg.Game(["a", "b"], {("a", "b"): Fraction(2, 4)})
        assert "val a b 1/2" in ashg.serialize_game(g)


@given(data=st.data(), n=st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_serialize_parse_round_trip(data, n):
    rows = random_rational_rows(random.Random(data.draw(st.integers(0, 2**32))), n)
    g = ashg.Game.from_matrix([f"p{i}" for i in range(n)], rows)
    assert [[g.value(i, j) for j in range(n)] for i in range(n)] == rows
    # no default, zero, a value some pair may use, and one no pair uses
    default = data.draw(st.sampled_from([None, 0, g.value(0, n - 1), Fraction(-1, 11)]))
    text = ashg.serialize_game(g, default=default)
    parsed = ashg.parse_game(text)
    assert parsed == g
    assert ashg.serialize_game(parsed, default=default) == text


class TestPartitionFormat:
    def test_parse(self, example6, example6_partition):
        pi = ashg.parse_partition("1 2\n3 4 5\n6\n", example6)
        assert pi == example6_partition

    def test_round_trip(self, example6, example6_partition):
        text = ashg.serialize_partition(example6, example6_partition)
        assert ashg.parse_partition(text, example6) == example6_partition

    def test_serialized_blocks_ordered_by_smallest_member(self, example6):
        pi = ashg.Partition.of_labels(example6, [["6"], ["3", "4", "5"], ["1", "2"]])
        assert ashg.serialize_partition(example6, pi) == "1 2\n3 4 5\n6\n"

    def test_missing_player(self, example6):
        with pytest.raises(MissingPlayer):
            ashg.parse_partition("1 2\n3 4 5\n", example6)

    def test_unknown_label(self, example6):
        with pytest.raises(UnknownPlayer):
            ashg.parse_partition("1 2 7\n3 4 5 6\n", example6)



@st.composite
def labeled_partitions(draw):
    """A game on distinct drawn labels and the label groups of a partition of it."""
    labels = draw(st.lists(TOKENS, min_size=1, max_size=8, unique=True))
    block_of = draw(st.lists(st.integers(0, len(labels) - 1), min_size=len(labels), max_size=len(labels)))
    groups = {}
    for lab, b in zip(labels, block_of):
        groups.setdefault(b, []).append(lab)
    return ashg.Game(labels), list(groups.values())


@given(case=labeled_partitions())
@settings(max_examples=200, deadline=None)
def test_partition_serialize_parse_round_trip(case):
    game, groups = case
    pi = ashg.Partition.of_labels(game, groups)
    text = ashg.serialize_partition(game, pi)
    parsed = ashg.parse_partition(text, game)
    assert parsed == pi
    assert ashg.serialize_partition(game, parsed) == text


@given(case=labeled_partitions(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_parse_partition_rejects_bad_cover(case, data):
    game, groups = case
    lines = [list(g) for g in groups]
    fault = data.draw(st.sampled_from(["drop", "repeat", "unknown"]))
    row = data.draw(st.integers(0, len(lines) - 1))
    if fault == "drop":
        lines[row].pop(data.draw(st.integers(0, len(lines[row]) - 1)))
    elif fault == "repeat":
        twice = data.draw(st.sampled_from(game.labels))
        lines[row].insert(data.draw(st.integers(0, len(lines[row]))), twice)
    else:
        stranger = data.draw(TOKENS.filter(lambda t: t not in game.labels))
        lines[row].append(stranger)
    text = "".join(" ".join(line) + "\n" for line in lines)
    expected = {"drop": MissingPlayer, "repeat": DuplicatePlayer, "unknown": UnknownPlayer}[fault]
    with pytest.raises(expected):
        ashg.parse_partition(text, game)
