"""Byte-identity corpus: seeded inputs for every CLI command and the digest of each output.

Each case runs ``ashg.cli.main`` in-process on files in one temporary directory
(relative paths, so no output names the directory) and is summarized by the
SHA-256 of its (exit code, stdout, stderr). ``corpus_digests.json`` holds the
digest of every case, keyed by case name; ``tests/test_corpus.py`` checks
them. Inputs are built with the standard library only, from one seed, and
never through the library's own serializers.

Regenerate the digests only when a change alters output bytes on purpose,
and list every changed case with the change:

    python tests/corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

DIGESTS = Path(__file__).with_name("corpus_digests.json")
SEED = 2023
CONCEPTS = ("ns", "is", "cis", "core", "strict-core", "csc", "pareto", "ir")

# player p2 joins {p0,p3,p5} as a latecomer under seed 4, and the output is
# not CIS stable, so solve-cis refuses it (tests/test_cis.py has the same game)
BUG6 = """players p0 p1 p2 p3 p4 p5
val p0 p1 -10
val p0 p3 9
val p0 p5 7
val p1 p3 1
val p1 p4 4
val p2 p1 5
val p2 p3 10
val p2 p4 8
val p2 p5 1
val p3 p5 5
val p5 p0 6
"""

HEXAGON = """players 1 2 3 4 5 6
default -33
val 1 2 6
val 2 1 6
val 3 4 6
val 4 3 6
val 5 6 6
val 6 5 6
val 1 6 5
val 6 1 5
val 2 3 5
val 3 2 5
val 4 5 5
val 5 4 5
val 1 3 4
val 3 1 4
val 3 5 4
val 5 3 4
val 1 5 4
val 5 1 4
"""

E3C_SPECS = {
    "e3c-yes": "universe a b c d e f\nset a b c\nset d e f\nset a d e\n",
    "e3c-no": "universe a b c d e f\nset a b d\nset c d e\nset b e f\n",
}

# (name, file name, text, command that reads it); every error is an input error
MALFORMED = [
    ("empty-game", "empty.game", "", ["solve-cis", "{}"]),
    ("comment-only-game", "comment.game", "# nothing here\n\n", ["solve-cis", "{}"]),
    ("no-players-line", "noplayers.game", "val a b 1\nplayers a b\n", ["solve-cis", "{}"]),
    ("duplicate-label", "dup.game", "players a b a\n", ["solve-cis", "{}"]),
    ("bad-rational", "badrat.game", "players a b\nval a b 1/0\n", ["solve-cis", "{}"]),
    ("undeclared-player", "undecl.game", "players a b\nval a c 1\n", ["solve-cis", "{}"]),
    ("self-value", "self.game", "players a b\nval b b 2\nval a b 1\n", ["solve-cis", "{}"]),
    ("duplicate-val", "dupval.game", "players a b\nval a b 1\nval a b 2\n", ["solve-cis", "{}"]),
    ("unknown-directive", "directive.game", "players a b\nvalue a b 1\n", ["solve-cis", "{}"]),
    ("partition-missing-player", "missing.partition", "a\n", ["verify", "two.game", "{}", "--concept", "ns"]),
    ("partition-unknown-label", "unknown.partition", "a b\nz\n", ["verify", "two.game", "{}", "--concept", "core"]),
    ("partition-twice", "twice.partition", "a b\nb\n", ["verify", "two.game", "{}", "--concept", "csc"]),
    ("e3c-bad-triple", "bad.e3c", "universe a b c\nset a b\n", ["oracle", "e3c", "--spec", "{}"]),
    ("e3c-repeated-triple", "rep.e3c", "universe a b c\nset a b c\nset c b a\n", ["gen", "e3c", "--spec", "{}"]),
    ("weights-bad-token", "bad.weights", "1\n2x\n3\n", ["oracle", "partition", "--weights-file", "{}"]),
    ("weights-zero", "zero.weights", "1\n0\n1\n", ["gen", "partition", "--weights-file", "{}"]),
    ("not-utf8", "latin1.game", b"players a\xe9 b\n", ["solve-cis", "{}"]),
    ("no-such-file", "absent.game", None, ["solve-cis", "{}"]),
]


def _value(rng: random.Random) -> str:
    if rng.random() < 0.3:
        return f"{rng.randint(-9, 9)}/{rng.randint(1, 6)}"
    return str(rng.randint(-5, 5))


def random_game_text(rng: random.Random, n: int) -> str:
    """A game file with ``n`` players, values in random line order and some diagonal zeros."""
    labels = [f"{rng.choice('pqx')}{i}" for i in range(n)]
    density = rng.choice([0.1, 0.3, 0.5, 0.8, 1.0])
    default = rng.choice([None, "0", "-2", "3"])
    lines = []
    for i in range(n):
        for j in range(n):
            if i == j:
                if rng.random() < 0.3:
                    lines.append(f"val {labels[i]} {labels[i]} 0")
            elif rng.random() < density:
                lines.append(f"val {labels[i]} {labels[j]} {_value(rng)}")
    rng.shuffle(lines)
    head = ["players " + " ".join(labels)] + ([] if default is None else [f"default {default}"])
    return "\n".join(head + lines) + "\n"


def weight_lists(rng: random.Random):
    """PARTITION instances of 3-8 weights: an even total with a split, and an odd total."""
    for k in range(3, 9):
        half = [rng.randint(1, 9) for _ in range(k // 2)]
        rest = [rng.randint(1, 9) for _ in range(k - len(half) - 1)]
        last = sum(half) - sum(rest)
        if last < 1:  # move the surplus into the first half so that both halves stay equal
            half[0] += 1 - last
            last = 1
        weights = half + rest + [last]
        rng.shuffle(weights)
        yield f"w{k}-yes", weights
        odd = [rng.randint(1, 9) for _ in range(k)]
        if sum(odd) % 2 == 0:
            odd[0] += 1
        yield f"w{k}-no", odd


def build():
    """Return ``(files, cases)``: file name -> text (bytes, or None for an absent file), and
    an ordered list of ``(case name, argv, file to save stdout to or None)``."""
    rng = random.Random(SEED)
    files = {"two.game": "players a b\nval a b 1\n"}
    cases = []
    games = [("hexagon", HEXAGON), ("bug6", BUG6)]
    for g in range(24):
        n = 1 + g % 9
        games.append((f"g{g:02d}-n{n}", random_game_text(rng, n)))

    for name, text in games:
        game = f"{name}.game"
        files[game] = text
        labels = text.split("\n", 1)[0].split()[1:]
        files[f"{name}.singletons"] = "".join(f"{lab}\n" for lab in labels)
        files[f"{name}.grand"] = " ".join(labels) + "\n"
        seeds = [None, 1, 2, 3] + ([4] if name == "bug6" else [])
        for seed in seeds:
            order = ["--seed", str(seed)] if seed is not None else []
            tag = "default" if seed is None else f"seed{seed}"
            cases.append((f"{name}/solve-cis/{tag}", ["solve-cis", game, *order],
                          f"{name}.cis" if seed is None else None))
            cases.append((f"{name}/solve-cis/{tag}/trace", ["solve-cis", game, "--trace", *order], None))
        for part in ("singletons", "grand", "cis"):
            for concept in CONCEPTS:
                cases.append((f"{name}/verify/{part}/{concept}",
                              ["verify", game, f"{name}.{part}", "--concept", concept], None))
        if len(labels) <= 8:
            for concept in ("core", "strict-core"):
                cases.append((f"{name}/search/{concept}", ["search", game, "--concept", concept], None))

    cases.append(("gen/example6", ["gen", "example6"], None))
    for name, weights in weight_lists(rng):
        wlist = ",".join(map(str, weights))
        cases.append((f"{name}/oracle", ["oracle", "partition", "-w", wlist], None))
        cases.append((f"{name}/gen", ["gen", "partition", "-w", wlist, "-o", f"{name}.game"], None))
        for concept in ("csc", "pareto"):
            cases.append((f"{name}/verify/grand/{concept}",
                          ["verify", f"{name}.game", f"{name}.game.partition", "--concept", concept], None))
        cases.append((f"{name}/game-file", ["_cat", f"{name}.game"], None))
    for name, spec in E3C_SPECS.items():
        files[f"{name}.spec"] = spec
        cases.append((f"{name}/gen", ["gen", "e3c", "--spec", f"{name}.spec"], None))
        cases.append((f"{name}/oracle", ["oracle", "e3c", "--spec", f"{name}.spec"], None))
    for name, path, text, argv in MALFORMED:
        files[path] = text
        cases.append((f"malformed/{name}", [a.format(path) for a in argv], None))
    return files, cases


def _run(argv):
    from ashg.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if argv[0] == "_cat":  # a file an earlier case wrote
            out.write(Path(argv[1]).read_text(encoding="utf-8"))
            code = 0
        else:
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def digests() -> dict:
    """Run every case in order in a fresh directory; case name -> SHA-256 hex digest."""
    files, cases = build()
    result = {}
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for path, text in files.items():
                if isinstance(text, bytes):
                    Path(path).write_bytes(text)
                elif text is not None:
                    Path(path).write_text(text, encoding="utf-8")
            for name, argv, save in cases:
                code, out, err = _run(argv)
                if save is not None:
                    Path(save).write_text(out, encoding="utf-8")
                blob = json.dumps([code, out, err]).encode("ascii")
                result[name] = hashlib.sha256(blob).hexdigest()
        finally:
            os.chdir(home)
    return result


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    found = digests()
    DIGESTS.write_text(json.dumps(found, indent=0, sort_keys=True) + "\n", encoding="ascii")
    print(f"wrote {len(found)} digests to {DIGESTS}")
