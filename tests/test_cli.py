"""CLI surface: exit codes, stable text formats, pipeline soundness."""

import contextlib
import io
import itertools
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ashg
from ashg.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestGen:
    def test_example6_file(self, capsys, tmp_path):
        out = tmp_path / "ex6.game"
        code, _ = run(capsys, "gen", "example6", "-o", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "players 1 2 3 4 5 6"
        assert lines[1] == "default -33"
        assert sum(1 for ln in lines if ln.startswith("val ")) == 18

    def test_gen_is_byte_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "gen", "example6", "-o", str(a))
        run(capsys, "gen", "example6", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_partition_kind_writes_both_files(self, capsys, tmp_path):
        out = tmp_path / "split.game"
        code, _ = run(capsys, "gen", "partition", "--weights", "1,1,2", "-o", str(out))
        assert code == 0
        game = ashg.parse_game(out.read_text())
        assert game.n == 7
        pi_text = (tmp_path / "split.game.partition").read_text()
        assert pi_text == "x1 x2 y1 y2 z1 z2 z3\n"

    @pytest.mark.parametrize("with_out", [True, False], ids=["with-o", "game-to-stdout"])
    def test_partition_out_names_the_partition_file(self, capsys, tmp_path, with_out):
        _, both = run(capsys, "gen", "partition", "-w", "1,1,2")  # game, then partition
        po, game_file = tmp_path / "p.partition", tmp_path / "g.game"
        argv = ["gen", "partition", "-w", "1,1,2", "--partition-out", str(po)]
        code, out = run(capsys, *argv, *(["-o", str(game_file)] if with_out else []))
        assert code == 0 and po.read_text() == "x1 x2 y1 y2 z1 z2 z3\n"
        if with_out:
            assert out == ""
            out = game_file.read_text()
        assert out + po.read_text() == both
        assert not (tmp_path / "g.game.partition").exists()

    def test_e3c_from_spec(self, capsys, tmp_path):
        spec = tmp_path / "cover.e3c"
        spec.write_text("universe 1 2 3\nset 1 2 3\n")
        out = tmp_path / "cover.game"
        code, _ = run(capsys, "gen", "e3c", "--spec", str(spec), "-o", str(out))
        assert code == 0
        assert ashg.parse_game(out.read_text()).n == 19

    def test_empty_e3c_spec_fails(self, capsys, tmp_path):
        spec = tmp_path / "empty.e3c"
        spec.write_text("")
        code, _ = run(capsys, "gen", "e3c", "--spec", str(spec))
        assert code == 1

    def test_round_trip_generated_gadgets(self, capsys, tmp_path):
        out = tmp_path / "g"
        run(capsys, "gen", "example6", "-o", str(out))
        game = ashg.parse_game(out.read_text())
        assert game == ashg.example_six_player()


@pytest.fixture
def ex6_file(tmp_path):
    path = tmp_path / "ex6.game"
    path.write_text(ashg.serialize_game(ashg.example_six_player(), default=-33))
    return str(path)


def zero_game_file(tmp_path, n):
    """An all-zero game on ``n`` players, whose searches would finish at once."""
    path = tmp_path / f"zero{n}.game"
    path.write_text("players " + " ".join(f"p{i}" for i in range(n)) + "\n")
    return str(path)


@pytest.fixture
def ex6_partition_file(tmp_path):
    path = tmp_path / "ex6.partition"
    path.write_text("1 2\n3 4 5\n6\n")
    return str(path)


class TestSolveCis:
    def test_example_output(self, capsys, ex6_file):
        code, out = run(capsys, "solve-cis", ex6_file)
        assert code == 0
        assert out == "1 2 3 5 6\n4\n"

    def test_one_player_game(self, capsys, tmp_path):
        path = tmp_path / "one.game"
        path.write_text("players solo\n")
        code, out = run(capsys, "solve-cis", str(path))
        assert code == 0
        assert out == "solo\n"

    def test_trace_output(self, capsys, ex6_file, tmp_path):
        trace_path = tmp_path / "trace.txt"
        code, out = run(
            capsys, "solve-cis", ex6_file, "--trace", "--trace-out", str(trace_path)
        )
        assert code == 0
        assert trace_path.read_text().splitlines()[0] == "leader 1 1"

    def test_trace_out_implies_trace(self, capsys, ex6_file, tmp_path):
        trace_path = tmp_path / "trace.txt"
        code, out = run(capsys, "solve-cis", ex6_file, "--trace-out", str(trace_path))
        assert code == 0
        assert out == "1 2 3 5 6\n4\n"
        assert trace_path.read_text().splitlines()[0] == "leader 1 1"

    def test_malformed_rational(self, capsys, tmp_path):
        path = tmp_path / "bad.game"
        path.write_text("players a b\nval a b 1/0\n")
        code, _ = run(capsys, "solve-cis", str(path))
        assert code == 1

    def test_seeded_order_still_cis(self, capsys, ex6_file, tmp_path):
        out = tmp_path / "pi"
        code, _ = run(capsys, "solve-cis", ex6_file, "--seed", "7", "-o", str(out))
        assert code == 0
        game = ashg.example_six_player()
        pi = ashg.parse_partition(out.read_text(), game)
        assert ashg.find_cis_deviation(game, pi) is None

    @pytest.mark.parametrize("seed", ["1_0", "\u0661\u0660", " 10 "])
    def test_non_integer_seed_tokens_rejected(self, capsys, ex6_file, seed):
        assert main(["solve-cis", ex6_file, "--seed", seed]) == 1
        assert "argument --seed: invalid int value" in capsys.readouterr().err


class TestVerify:
    def test_core_unstable_witness(self, capsys, ex6_file, ex6_partition_file):
        code, out = run(
            capsys, "verify", ex6_file, ex6_partition_file, "--concept", "core"
        )
        assert code == 2
        assert out.strip() == "blocking 1 5 6"

    def test_nash_stable(self, capsys, ex6_file, ex6_partition_file):
        code, out = run(capsys, "verify", ex6_file, ex6_partition_file, "--concept", "ns")
        assert code == 0
        assert out.strip() == "stable"

    def test_csc_stable_no_split(self, capsys, tmp_path):
        out = tmp_path / "g"
        run(capsys, "gen", "partition", "-w", "2,3,7", "-o", str(out))
        code, text = run(
            capsys, "verify", str(out), str(out) + ".partition", "--concept", "csc"
        )
        assert code == 0

    def test_invalid_partition_is_an_input_error(self, capsys, ex6_file, tmp_path):
        bad = tmp_path / "bad.partition"
        bad.write_text("1 2\n3 4 5\n")  # player 6 missing
        code, _ = run(capsys, "verify", ex6_file, str(bad), "--concept", "core")
        assert code == 1

    def test_cap_exceeded_is_an_input_error(self, capsys, tmp_path):
        grand = tmp_path / "grand.partition"
        grand.write_text(" ".join(f"p{i}" for i in range(27)) + "\n")
        code = main(["verify", zero_game_file(tmp_path, 27), str(grand), "--concept", "core"])
        assert code == 1
        assert "27 players exceeds the exhaustive-search cap of 26" in capsys.readouterr().err

    def test_ir_witness_move(self, capsys, ex6_file, tmp_path):
        grand = tmp_path / "grand.partition"
        grand.write_text("1 2 3 4 5 6\n")
        code, out = run(capsys, "verify", ex6_file, str(grand), "--concept", "ir")
        assert code == 2
        assert out.strip() == "move 1 ->"

    def test_pareto_witness_lines(self, capsys, tmp_path):
        out = tmp_path / "g"
        run(capsys, "gen", "partition", "-w", "1,1,2", "-o", str(out))
        code, text = run(
            capsys, "verify", str(out), str(out) + ".partition", "--concept", "pareto"
        )
        assert code == 2
        assert text.splitlines()[0] == "pareto-dominating:"


class TestSearch:
    def test_example_core_empty(self, capsys, ex6_file):
        code, out = run(capsys, "search", ex6_file, "--concept", "core")
        assert code == 2
        assert out.strip() == "none"

    def test_example_strict_core_empty(self, capsys, ex6_file):
        code, out = run(capsys, "search", ex6_file, "--concept", "strict-core")
        assert code == 2
        assert out.strip() == "none"

    def test_mutual_friends_pair(self, capsys, tmp_path):
        path = tmp_path / "pair.game"
        path.write_text("players a b\nval a b 1\nval b a 1\n")
        code, out = run(capsys, "search", str(path), "--concept", "core")
        assert code == 0
        assert out == "a b\n"

    def test_over_cap(self, capsys, tmp_path):
        code = main(["search", zero_game_file(tmp_path, 13), "--concept", "core"])
        assert code == 1
        assert "13 players exceeds the exhaustive-search cap of 12" in capsys.readouterr().err


class TestOracle:
    def test_partition_yes(self, capsys):
        code, out = run(capsys, "oracle", "partition", "--weights", "1,1,2")
        assert code == 0
        assert out.strip() == "A1: 0 1"

    def test_partition_no(self, capsys):
        code, out = run(capsys, "oracle", "partition", "--weights", "2,3,7")
        assert code == 2
        assert out.strip() == "none"

    def test_e3c_yes(self, capsys, tmp_path):
        spec = tmp_path / "cover.e3c"
        spec.write_text("universe 1 2 3\nset 1 2 3\n")
        code, out = run(capsys, "oracle", "e3c", "--spec", str(spec))
        assert code == 0
        assert out.strip() == "cover: 0"

    def test_weights_file(self, capsys, tmp_path):
        wf = tmp_path / "weights.txt"
        wf.write_text("1\n1\n2\n")
        code, out = run(capsys, "oracle", "partition", "--weights-file", str(wf))
        assert code == 0
        assert out.strip() == "A1: 0 1"

    @pytest.mark.parametrize("spec", ["1_0,3,7", "10,\u0663,7"])
    def test_non_ascii_weight_tokens_rejected(self, capsys, spec):
        assert main(["oracle", "partition", "-w", spec]) == 1
        assert "bad weight list" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen", "oracle"])
def test_repeated_e3c_triple_is_an_input_error(capsys, tmp_path, command):
    spec = tmp_path / "repeat.e3c"
    spec.write_text("universe 1 2 3\nset 1 2 3\nset 3 2 1\n")
    assert main([command, "e3c", "--spec", str(spec)]) == 1
    assert capsys.readouterr() == ("", "error: line 3: repeated triple: ['1', '2', '3']\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["solve-cis", ""],
        ["verify", "", "", "--concept", "ns"],
        ["gen", "e3c", "--spec", ""],
        ["gen", "example6", "-o", ""],
        ["oracle", "partition", "--weights-file", ""],
    ],
    ids=["solve-cis", "verify", "gen-e3c", "gen-out", "oracle-weights"],
)
def test_empty_path_is_an_input_error(capsys, argv):
    # an empty path is not taken as the current directory
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: empty file path\n")


class TestNonUtf8Input:
    """A file that is not UTF-8 is an input error naming the file, not a traceback."""

    @pytest.fixture
    def bad(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"players a b\n\xff\n")
        return str(path)

    def check(self, capsys, argv, bad):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and bad in err and "UTF-8" in err

    def test_solve_cis(self, capsys, bad):
        self.check(capsys, ["solve-cis", bad], bad)

    def test_verify_game_file(self, capsys, bad, ex6_partition_file):
        self.check(capsys, ["verify", bad, ex6_partition_file, "--concept", "ns"], bad)

    def test_verify_partition_file(self, capsys, bad, ex6_file):
        self.check(capsys, ["verify", ex6_file, bad, "--concept", "ns"], bad)

    def test_gen_e3c_spec(self, capsys, bad):
        self.check(capsys, ["gen", "e3c", "--spec", bad], bad)

    def test_oracle_weights_file(self, capsys, bad):
        self.check(capsys, ["oracle", "partition", "--weights-file", bad], bad)


# int() refuses decimal strings past this many digits (0: no limit, on Pythons before 3.10.7)
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not INT_DIGITS, reason="this Python converts decimal strings of any length")
class TestLongIntegers:
    """A number past int()'s digit limit is an input error that names its length, not a traceback."""

    LONG = "7" * (INT_DIGITS + 1)

    @pytest.mark.parametrize("line,where", [("val a b {}", 2), ("val a b 1/{}", 2), ("default -{}/3", 2),
                                            ("val a b 1/2\ndefault {}", 3)])
    def test_game_values(self, capsys, tmp_path, line, where):
        path = tmp_path / "long.game"
        path.write_text("players a b\n" + line.format(self.LONG) + "\n")
        assert main(["solve-cis", str(path)]) == 1
        width = len(line.format(self.LONG).split()[-1])
        assert capsys.readouterr() == ("", f"error: line {where}: rational too long: {width} characters\n")

    def test_weights(self, capsys, tmp_path):
        expected = ("", f"error: weight 2 too long: {INT_DIGITS + 1} characters\n")
        assert main(["oracle", "partition", "-w", f"3,{self.LONG},1"]) == 1
        assert capsys.readouterr() == expected
        wf = tmp_path / "w.txt"
        wf.write_text(f"3\n{self.LONG}\n1\n")
        assert main(["gen", "partition", "--weights-file", str(wf)]) == 1
        assert capsys.readouterr() == expected

    def test_gadget_values_past_the_limit_are_not_written(self, capsys):
        # each weight converts, but the gadget's x1-x2 value is minus their total, one digit longer
        weights = f"{'9' * INT_DIGITS},1,2"
        assert main(["gen", "partition", "-w", weights]) == 1
        assert capsys.readouterr() == ("", "error: value of x1 for x2 too long to write\n")
        assert main(["oracle", "partition", "-w", weights]) == 2

    @pytest.mark.parametrize("default", [10 ** INT_DIGITS, Fraction(1, 10 ** INT_DIGITS)], ids=["int", "fraction"])
    def test_a_default_past_the_limit_is_not_written(self, default):
        with pytest.raises(ashg.AshgError, match="^default too long to write$"):
            ashg.serialize_game(ashg.Game(["a", "b"]), default=default)

    def test_seed_is_a_usage_error_that_does_not_echo_it(self, capsys, ex6_file):
        assert main(["solve-cis", ex6_file, "--seed", self.LONG]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage:") and err.endswith(
            f"error: argument --seed: seed too long: {INT_DIGITS + 1} characters\n")
        assert self.LONG not in err


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_weights(self, capsys):
        assert main(["oracle", "partition"]) == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gen", "e3c"], "the following arguments are required: --spec"),
            (["oracle", "e3c"], "the following arguments are required: --spec"),
            (["gen", "partition"], "one of the arguments --weights/-w --weights-file is required"),
        ],
        ids=["gen-e3c", "oracle-e3c", "gen-partition"],
    )
    def test_missing_required_option(self, capsys, argv, message):
        assert main(argv) == 1
        assert f"error: {message}\n" in capsys.readouterr().err

    @pytest.fixture
    def files(self, tmp_path):
        (tmp_path / "cover.e3c").write_text("universe 1 2 3\nset 1 2 3\n")
        (tmp_path / "weights.txt").write_text("1\n1\n2\n")
        return {"spec": tmp_path / "cover.e3c", "wf": tmp_path / "weights.txt", "po": tmp_path / "p"}

    @pytest.mark.parametrize(
        "argv",
        [
            "gen example6 --spec {spec}",
            "gen example6 -w 1,1,2",
            "gen example6 --weights-file {wf}",
            "gen example6 --partition-out {po}",
            "gen e3c --spec {spec} -w 1,1,2",
            "gen e3c --spec {spec} --weights-file {wf}",
            "gen e3c --spec {spec} --partition-out {po}",
            "gen partition -w 1,1,2 --spec {spec}",
            "oracle e3c --spec {spec} -w 1,1,2",
            "oracle e3c --spec {spec} --weights-file {wf}",
            "oracle partition -w 1,1,2 --spec {spec}",
        ],
    )
    def test_flags_the_kind_does_not_read_are_rejected(self, capsys, files, argv):
        # the last flag is one that only another kind reads
        argv = [a.format(**files) for a in argv.split()]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: ashg ") and f"error: unrecognized arguments: {argv[-2]} " in err

    @pytest.mark.parametrize("command", ["gen", "oracle"])
    def test_weight_sources_are_alternatives(self, capsys, files, command):
        assert main([command, "partition", "-w", "1,1,2", "--weights-file", str(files["wf"])]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: ashg ")
        assert "error: argument --weights-file: not allowed with argument --weights/-w\n" in err

    def test_bad_threads(self, capsys):
        assert main(["--threads", "0", "gen", "example6"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "g", "p", "--concept", "core", "--subset-cap", "3"],
            ["verify", "g", "p", "--concept", "pareto", "--partition-cap", "3"],
            ["search", "g", "--concept", "core", "--cap", "3"],
        ],
    )
    def test_cap_flags_are_unknown(self, capsys, argv):
        assert main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


def test_console_script_entry_point(tmp_path):
    # the child imports the same ashg as this process, installed or not
    src = str(Path(ashg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "ashg.cli", "oracle", "partition", "-w", "2,3,7"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 2
    assert result.stdout.strip() == "none"


def test_reused_parser_gives_the_same_bytes(capsys, tmp_path):
    """The parser is built once per process; no call may change what the next one does."""
    spec = tmp_path / "cover.e3c"
    spec.write_text("universe 1 2 3\nset 1 2 3\n")
    game = tmp_path / "g"
    assert main(["gen", "partition", "-w", "2,3,7", "-o", str(game)]) == 0
    calls = [
        ["gen", "partition", "-w", "1,1,2"],
        ["oracle", "e3c", "--spec", str(spec)],
        ["verify", str(game), str(game) + ".partition", "--concept", "csc"],
        ["oracle", "partition", "-w", "1", "--weights-file", str(spec)],
    ]
    seen = []
    for argv in calls + calls:
        code = main(argv)
        seen.append((code, *capsys.readouterr()))
    assert [code for code, _out, _err in seen[:4]] == [0, 0, 0, 1]
    assert seen[4:] == seen[:4]


def test_pipeline_csc_verdict_matches_oracle(capsys, tmp_path):
    """gen partition + verify csc agrees with the source oracle on small lists."""
    for weights in itertools.product(range(1, 4), repeat=3):
        spec = ",".join(str(w) for w in weights)
        out = tmp_path / f"g{spec.replace(',', '_')}"
        assert run(capsys, "gen", "partition", "-w", spec, "-o", str(out))[0] == 0
        verify_code, _ = run(
            capsys, "verify", str(out), str(out) + ".partition", "--concept", "csc"
        )
        oracle_code, _ = run(capsys, "oracle", "partition", "-w", spec)
        assert (verify_code == 0) == (oracle_code == 2)


# Small valid inputs for every command that reads text, each game at most 6 players
ROBUST_BASES = [
    {"game": "players a b c d\ndefault 0\nval a b 3/2\nval b a -1\nval c d 2\nval d c 1 # friends\n",
     "part": "a b\nc d\n", "spec": "universe 1 2 3\nset 1 2 3\n", "weights": "1\n1\n2\n", "wlist": "1,1,2"},
    {"game": ashg.serialize_game(ashg.example_six_player(), default=-33), "part": "1 2\n3 4 5\n6\n",
     "spec": "universe 1 2 3 4 5 6\nset 1 2 3\nset 4 5 6\nset 1 2 4\n", "weights": "2\n3\n7\n", "wlist": "2, 3,7"},
]
ROBUST_COMMANDS = [
    ["solve-cis", "{game}"],
    ["solve-cis", "{game}", "--trace", "--seed", "3"],
    *(["verify", "{game}", "{part}", "--concept", c.value] for c in ashg.StabilityConcept),
    ["search", "{game}", "--concept", "core"],
    ["search", "{game}", "--concept", "strict-core"],
    ["gen", "e3c", "--spec", "{spec}"],
    ["oracle", "e3c", "--spec", "{spec}"],
    ["gen", "partition", "--weights-file", "{weights}"],
    ["oracle", "partition", "--weights-file", "{weights}"],
    ["gen", "partition", "-w", "{wlist}"],
    ["oracle", "partition", "-w", "{wlist}"],
]
# whitespace that str.split or str.splitlines knows but a space-separated format may not, plus look-alikes
ODD_SPACES = ["\u00a0", "\u2028", "\u2029", "\u3000", "\x0b", "\x0c", "\x1c", "\x85", "\u200b", "\ufeff", "\t", "\r"]
LONG_TOKENS = st.builds(
    lambda head, char, width, tail: head + char * width + tail,
    st.sampled_from(["", "-", "+", "1/", "p"]),
    st.sampled_from("790x"),
    st.sampled_from([4299, 4300, 4301, 20000]),
    st.sampled_from(["", "/3", "/", "a"]),
)


@st.composite
def mutated(draw, text):
    """``text`` with a few over-long tokens, odd whitespace and empty lines put in."""
    lines = text.split("\n")
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["long", "space", "empty"]))
        if kind == "empty":
            lines.insert(k, draw(st.sampled_from(["", " ", *ODD_SPACES])))
            continue
        tokens = lines[k].split(" ")
        t = draw(st.integers(0, len(tokens) - 1))
        if kind == "long":
            tokens[t] = draw(LONG_TOKENS)
        else:
            cut = draw(st.integers(0, len(tokens[t])))
            tokens[t] = tokens[t][:cut] + draw(st.sampled_from(ODD_SPACES)) + tokens[t][cut:]
        lines[k] = " ".join(tokens)
    return "\n".join(lines)


@given(data=st.data(), base=st.sampled_from(ROBUST_BASES), command=st.sampled_from(ROBUST_COMMANDS))
@settings(max_examples=150, deadline=None)
def test_mangled_inputs_give_an_exit_code_and_no_traceback(data, base, command):
    """Any mangled game, partition, spec or weight text ends in exit 0, 1 or 2, and an
    error (exit 1) is reported on stderr, never as an exception."""
    with tempfile.TemporaryDirectory() as tmp:
        names = {}
        for name, text in base.items():
            if "{" + name + "}" in command:
                text = data.draw(mutated(text), label=name)
                if name == "wlist":
                    names[name] = text
                else:
                    names[name] = os.path.join(tmp, name)
                    Path(names[name]).write_text(text, encoding="utf-8")
        argv = [names[a[1:-1]] if a[1:-1] in names else a for a in command]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith(("error:", "usage:")), err.getvalue()[:300]
