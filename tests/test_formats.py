"""Game and partition text formats: parsing, canonical serialization, round trips."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ashg
from ashg.errors import AshgError, DuplicatePlayer, GameFormatError, MissingPlayer, UnknownPlayer
from ashg.formats import parse_rational

from conftest import TOKENS, random_rational_rows, reference_parse_game

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


def exactly(message):
    """A ``pytest.raises`` pattern that matches the whole message and nothing else."""
    return f"^{re.escape(message)}$"


class TestParseGame:
    def test_basic(self):
        g = ashg.parse_game(GOOD)
        assert g.labels == ("a", "b", "c")
        assert g.value(0, 1) == 6
        assert g.value(1, 2) == Fraction(1, 2)
        assert g.value(1, 0) == -2  # default
        assert g.value(0, 0) == 0

    def test_players_line_must_come_first(self):
        with pytest.raises(GameFormatError, match=exactly("line 1: expected a 'players' line first")):
            ashg.parse_game("val a b 1\nplayers a b\n")

    def test_empty_file(self):
        with pytest.raises(GameFormatError, match=exactly("empty game file")):
            ashg.parse_game("# nothing here\n")

    def test_zero_players(self):
        with pytest.raises(GameFormatError, match=exactly("line 1: a game needs at least one player")):
            ashg.parse_game("players\n")

    def test_duplicate_player_label(self):
        with pytest.raises(GameFormatError, match=exactly("line 2: duplicate player label")):
            ashg.parse_game("\nplayers a b a\n")

    def test_duplicate_val_pair(self):
        with pytest.raises(GameFormatError, match=exactly("line 3: duplicate val for pair a b")):
            ashg.parse_game("players a b\nval a b 1\nval a b 2\n")

    def test_reversed_pair_is_not_a_duplicate(self):
        g = ashg.parse_game("players a b\nval a b 1\nval b a 2\n")
        assert (g.value(0, 1), g.value(1, 0)) == (1, 2)

    def test_duplicate_default(self):
        with pytest.raises(GameFormatError, match=exactly("line 3: duplicate default line")):
            ashg.parse_game("players a b\ndefault 1\ndefault 2\n")

    @pytest.mark.parametrize(
        "line,message",
        [("val a b", "val takes <from> <to> <rational>"), ("val a b 1 2", "val takes <from> <to> <rational>"),
         ("default", "default takes one rational"), ("default 1 2", "default takes one rational")],
    )
    def test_wrong_arity(self, line, message):
        with pytest.raises(GameFormatError, match=exactly(f"line 2: {message}")):
            ashg.parse_game(f"players a b\n{line}\n")

    @pytest.mark.parametrize("line", ["val a b 1/0", "default 1/0"])
    def test_bad_rational(self, line):
        with pytest.raises(GameFormatError, match=exactly("bad rational: '1/0' (use p or p/q with q > 0)")):
            ashg.parse_game(f"players a b\n{line}\n")

    def test_undeclared_player(self):
        for line in ["val a z 1", "val z a 1"]:
            with pytest.raises(GameFormatError, match=exactly("line 2: undeclared player in val line")):
                ashg.parse_game(f"players a b\n{line}\n")

    def test_nonzero_self_value(self):
        with pytest.raises(GameFormatError, match=exactly("nonzero self-value for player 'a'")):
            ashg.parse_game("players a b\nval a a 5\n")

    def test_first_nonzero_self_value_in_file_order_is_reported(self):
        with pytest.raises(GameFormatError, match=exactly("nonzero self-value for player 'b'")):
            ashg.parse_game("players a b\nval b b 1\nval a a 2\n")

    def test_line_errors_win_over_a_nonzero_self_value(self):
        with pytest.raises(GameFormatError, match=exactly("bad rational: 'x' (use p or p/q with q > 0)")):
            ashg.parse_game("players a b\nval a a 5\nval a b x\n")

    def test_unknown_directive(self):
        with pytest.raises(GameFormatError, match=exactly("line 2: unknown directive 'weight'")):
            ashg.parse_game("players a b\nweight a b 1\n")

    def test_second_players_line_is_an_unknown_directive(self):
        with pytest.raises(GameFormatError, match=exactly("line 3: unknown directive 'players'")):
            ashg.parse_game("players a b\n# again\nplayers c\n")

    @pytest.mark.parametrize(
        "sep", ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"]
    )
    def test_every_line_break_counts_for_line_numbers(self, sep):
        # str.splitlines breaks on all of these, so they number lines alike
        text = sep.join(["players a b # c", "val a b 1", "val a b 2"]) + sep
        with pytest.raises(GameFormatError, match=exactly("line 3: duplicate val for pair a b")):
            ashg.parse_game(text)
        with pytest.raises(GameFormatError, match=exactly("line 3: set takes exactly 3 elements")):
            ashg.parse_e3c(sep.join(["universe 1 2 3", "set 1 2 3", "set 1 2"]))


GOOD_RATIONALS = st.one_of(
    st.sampled_from(["4/2", "0/7", "-6/4", "+3", "-0", "0", "+0/5", "-12/8"]),
    st.integers(-30, 30).map(str),
    st.tuples(st.integers(-30, 30), st.integers(1, 12)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
)
BAD_RATIONALS = st.sampled_from(["1/0", "0.5", "x", "1/-2", "+-1", "1//2", "\u0661", "3/", "/3", "1/+2"])
FAULTS = ["rational", "arity", "undeclared", "duplicate", "players", "before", "default"]


@st.composite
def game_files(draw):
    """Game file text: valid apart from at most one injected bad line."""
    labels = draw(st.lists(TOKENS, min_size=1, max_size=5, unique=True))
    pick = st.sampled_from(labels)
    every = [(a, b) for a in labels for b in labels if a != b]  # all given: a default no pair takes
    pairs = []
    if every:
        pairs = draw(st.lists(st.sampled_from(every), unique=True, max_size=12) | st.permutations(every))
    # self-values in any order, zero or not: only the first nonzero one in the file is reported
    selves = draw(st.permutations(labels))[: draw(st.integers(0, len(labels)))]
    self_values = st.sampled_from(["0", "-0", "0/4"]) | GOOD_RATIONALS
    body = [f"val {a} {b} {draw(GOOD_RATIONALS)}" for a, b in pairs]
    body += [f"val {a} {a} {draw(self_values)}" for a in selves]
    lines = ["players " + " ".join(labels)] + draw(st.permutations(body))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(1, len(lines))), "default " + draw(GOOD_RATIONALS))
    fault = draw(st.none() | st.sampled_from(FAULTS))
    where = draw(st.integers(1, len(lines)))
    a, b = draw(pick), draw(pick)
    if fault == "rational":
        lines.insert(where, f"val {a} {b} {draw(BAD_RATIONALS)}")
    elif fault == "arity":
        short_or_long = [f"val {a} {b}", f"val {a} {b} 1 2", "default", "default 1 2"]
        lines.insert(where, draw(st.sampled_from(short_or_long)))
    elif fault == "undeclared":
        stranger = draw(TOKENS.filter(lambda t: t not in labels))
        lines.insert(where, draw(st.sampled_from([f"val {a} {stranger} 1", f"val {stranger} {b} 1"])))
    elif fault == "duplicate":
        lines.insert(where, f"val {a} {b} 1")
        lines.insert(draw(st.integers(where + 1, len(lines))), f"val {a} {b} {draw(GOOD_RATIONALS)}")
    elif fault == "players":
        lines.insert(where, "players " + " ".join(labels))
    elif fault == "before":
        lines.insert(0, f"val {a} {b} 1")
    elif fault == "default":
        lines.insert(where, "default 1")
        lines.insert(draw(st.integers(where + 1, len(lines))), "default " + draw(GOOD_RATIONALS))
    decorated = []
    for line in lines:
        decorated += draw(st.lists(st.sampled_from(["", "   ", "# note", "  #"]), max_size=2))
        pad = draw(st.sampled_from(["", " ", "\t"]))
        comment = draw(st.sampled_from(["", " # x", "#", "\t# val a b 1"]))
        decorated.append(pad + line + comment)
    sep = draw(st.sampled_from(["\n", "\r\n", "\x0c", "\u2028"]))
    return sep.join(decorated) + draw(st.sampled_from(["", sep]))


def _outcome(parse, text):
    try:
        return parse(text)
    except AshgError as exc:
        return type(exc), str(exc)


@given(text=game_files())
@settings(max_examples=400, deadline=None)
def test_parse_game_matches_reference(text):
    def parse(text):
        g = ashg.parse_game(text)
        return g.labels, g.rows, g.scale

    assert _outcome(parse, text) == _outcome(reference_parse_game, text)


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

    def test_float_default_rejected_as_in_game(self):
        g = ashg.Game(["a", "b"])
        message = exactly("floating-point value 0.1 rejected; use Fraction or int")
        with pytest.raises(GameFormatError, match=message):
            ashg.Game(["a", "b"], default=0.1)
        with pytest.raises(GameFormatError, match=message):
            ashg.serialize_game(g, default=0.1)

    def test_default_off_the_scale_elides_nothing(self):
        # scale 1: the default 1/2 is no whole number of units, so no cell equals it
        text = ashg.serialize_game(ashg.Game(["a", "b"], {("a", "b"): 3}), default=Fraction(1, 2))
        assert text == "players a b\ndefault 1/2\nval a b 3\nval b a 0\n"


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
