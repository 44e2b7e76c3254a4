"""README examples run as written: the library quick start and every CLI line.

The fenced blocks are read from README.md itself, so an edit that breaks an
example fails here.
"""

import re
import shlex
from pathlib import Path

import ashg
from ashg.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

# documented exit codes per subcommand: 0 found / written, 2 unstable / none
EXIT_CODES = {"gen": 0, "solve-cis": 0, "verify": 2, "search": 2, "oracle": 2}

COVER = "universe 1 2 3 4 5 6\nset 1 2 3\nset 4 5 6\nset 1 2 4\n"


def fenced_block(section: str, lang: str) -> str:
    """The first ``lang`` fenced block under the ``## section`` heading."""
    body = re.search(rf"^## {re.escape(section)}\n(.*?)(?=^## |\Z)", README, re.M | re.S).group(1)
    return re.search(rf"^```{lang}\n(.*?)^```", body, re.M | re.S).group(1)


def test_library_quick_start_runs(capsys):
    exec(compile(fenced_block("Library quick start", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "False"


def test_cli_examples_exit_as_documented(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cover.e3c").write_text(COVER)
    commands = [shlex.split(line, comments=True) for line in fenced_block("CLI", "sh").splitlines()]
    commands = [argv for argv in commands if argv]
    assert commands
    for prog, *argv in commands:
        assert prog == "ashg"
        assert main(argv) == EXIT_CODES[argv[0]], argv
    assert (tmp_path / "g.game.partition").exists() and (tmp_path / "cov.game").exists()
    assert (tmp_path / "t.txt").read_text().startswith("leader ")


def test_trace_example_is_the_hexagon_trace():
    game = ashg.example_six_player()
    assert fenced_block("Trace format", "text") == ashg.serialize_trace(game, ashg.compute_cis(game)[1])
