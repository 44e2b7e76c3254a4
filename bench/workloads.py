"""Seeded inputs, operation lists and output checks for the three workloads.

``build(name, seed, workdir)`` writes the workload's input files and returns
a ``Workload``: the operations the timed worker runs, the games it parses
during set-up, and one check per operation. Inputs depend only on the seed.
Checks use ``checks.py`` and the generator's own exact values, never ashg.
A check gets an op's first output and returns None or the reason it fails.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional

import checks
from checks import RefGame

WHY = {
    "cli_ingest": "dense 300-player files through the CLI: parsing, Game build and integer scaling dominate",
    "cis_sweep": "compute_cis on parsed sparse 600-player games in many pick orders: the CIS solver dominates",
    "exhaustive": "verify core/strict-core/csc/pareto and search on 8-20 players: coalition mask scans and partition enumeration dominate",
}

# The one accepted failure: the output is the reference construction's,
# and that partition is not CIS stable (the known solver defect).
CIS_DEFECT = "known CIS defect: the reference construction is not CIS stable"

# The 6-player game on which the seeded order 4 yields a partition that is
# not CIS stable; it stays in cis_sweep so that defect counts as a failure.
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

HEXAGON_EDGES = (
    (1, 2, 6), (3, 4, 6), (5, 6, 6),
    (1, 6, 5), (2, 3, 5), (4, 5, 5),
    (1, 3, 4), (3, 5, 4), (1, 5, 4),
)


@dataclass
class Workload:
    name: str
    ops: List[dict] = field(default_factory=list)
    games: List[str] = field(default_factory=list)  # parsed once during set-up
    check: Dict[str, Callable[[dict], Optional[str]]] = field(default_factory=dict)

    def add(self, op: dict, check: Callable[[dict], Optional[str]]) -> None:
        op["id"] = f"{len(self.ops):02d}-{op.pop('tag')}"
        self.ops.append(op)
        self.check[op["id"]] = check


def _value(rng: random.Random, lo: int, hi: int, rational_share: float) -> Fraction:
    if rng.random() < rational_share:
        return Fraction(rng.randint(lo * 3, hi * 3), rng.randint(2, 9))
    return Fraction(rng.randint(lo, hi))


def dense_game(rng, n, density, lo, hi, rational_share=0.0):
    labels = [f"p{i}" for i in range(n)]
    rows = [[checks.ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < density:
                rows[i][j] = _value(rng, lo, hi, rational_share)
    return RefGame(labels, rows)


def sparse_game(rng, n, degree):
    labels = [f"p{i}" for i in range(n)]
    rows = [[checks.ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in rng.sample(range(n), degree + 1):
            if j != i:
                rows[i][j] = Fraction(rng.choice([v for v in range(-10, 11) if v]))
    return RefGame(labels, rows)


def partition_gadget(weights):
    """The weight-splitting reduction: grand coalition CSC stable and Pareto
    optimal exactly when the weights have no equal split."""
    labels = ["x1", "x2", "y1", "y2"] + [f"z{i}" for i in range(1, len(weights) + 1)]
    total = sum(weights)
    values = {}
    for x in ("x1", "x2"):
        values[(x, "y1")] = values[(x, "y2")] = Fraction(total, 2)
        for i, a in enumerate(weights, start=1):
            values[(x, f"z{i}")] = a
    for a, b in (("x1", "x2"), ("y1", "y2")):
        values[(a, b)] = values[(b, a)] = -total
    return RefGame.from_values(labels, values)


def has_equal_split(weights):
    total = sum(weights)
    if total % 2:
        return False
    reachable = 1
    for a in weights:
        reachable |= reachable << a
    return bool(reachable >> (total // 2) & 1)


def split_weights(rng, k, want_split):
    while True:
        if want_split:
            head = [rng.randint(1, 60) for _ in range(k - 1)]
            left = sum(a for a in head if rng.random() < 0.5)
            gap = sum(head) - 2 * left
            weights = head + [abs(gap)]
            if gap == 0:
                continue
        else:
            weights = [rng.randint(1, 60) for _ in range(k)]
            if has_equal_split(weights):
                weights[0] += 1
        rng.shuffle(weights)
        if has_equal_split(weights) == want_split:
            return weights


def hexagon_padded(pad):
    """The empty-core hexagon game plus ``pad`` players everyone dislikes."""
    labels = [str(i) for i in range(1, 7 + pad)]
    values = {}
    for i, j, w in HEXAGON_EDGES:
        values[(str(i), str(j))] = values[(str(j), str(i))] = w
    return RefGame.from_values(labels, values, default=Fraction(-33))


def e3c_gadget(universe, triples):
    """The exact-cover reduction and the witness partition of cover [0]."""
    labels = [f"x{j}_{r}" for r in universe for j in range(1, 7)]
    labels += [f"y_{k}" for k in range(len(triples))]
    values = {}

    def put(a, b, w):
        values[(a, b)] = values[(b, a)] = w

    for r in universe:
        for i, j, w in HEXAGON_EDGES:
            put(f"x{i}_{r}", f"x{j}_{r}", w)
    for k, s in enumerate(triples):
        members = sorted(s)
        for a in range(3):
            for b in range(a + 1, 3):
                put(f"x6_{members[a]}", f"x6_{members[b]}", Fraction(1, 2))
            put(f"y_{k}", f"x6_{members[a]}", Fraction(41, 4))
    game = RefGame.from_values(labels, values, default=Fraction(-33))
    ix = game.index
    blocks = []
    for r in universe:
        blocks.append([ix[f"x1_{r}"], ix[f"x2_{r}"]])
        blocks.append([ix[f"x{j}_{r}"] for j in (3, 4, 5)])
    blocks.append([ix["y_0"]] + [ix[f"x6_{r}"] for r in sorted(triples[0])])
    blocks += [[ix[f"y_{k}"]] for k in range(1, len(triples))]
    return game, checks.canonical(blocks)


def random_partition(rng, n, nblocks):
    blocks = [[] for _ in range(nblocks)]
    for p in range(n):
        blocks[rng.randrange(nblocks)].append(p)
    return checks.canonical(b for b in blocks if b)


# --- checks -------------------------------------------------------------


def _expect(rc, out):
    def check(first):
        if first["rc"] != rc or first["out"] != out:
            return f"expected exit {rc} and {out[:60]!r}, got exit {first['rc']} and {first['out'][:60]!r}"
        return None

    return check


def _cis_reference(game, seed):
    """The reference construction for one pick order, and whether it is CIS stable."""
    blocks, trace = checks.reference_cis(game, seed)
    return blocks, trace, checks.find_deviation(game, blocks, "cis") is None


def _check_solve_cis(game, seed, with_trace):
    """Exact bytes of the reference construction. Where that construction hits
    the known defect, the CLI's bug trap must fire; a program that instead
    prints a valid CIS partition has fixed the defect and passes."""
    blocks, trace, sound = _cis_reference(game, seed)
    text = checks.partition_text(game, blocks) + (trace if with_trace else "")

    def check(first):
        if sound:
            if (first["rc"], first["out"]) != (0, text):
                return f"differs from the reference construction: exit {first['rc']}, {first['out'][:60]!r}"
            return None
        if first["rc"] == 1 and first["out"] == "" and "not CIS stable" in first["err"]:
            return CIS_DEFECT
        if first["rc"] != 0:
            return f"exit {first['rc']}: {first['err'][:80]!r}"
        lines = first["out"].splitlines()
        cut = next((i for i, l in enumerate(lines) if l.startswith("leader ")), len(lines))
        got = checks.parse_blocks(game, lines[:cut])
        if got is None or checks.partition_text(game, got) != "".join(l + "\n" for l in lines[:cut]):
            return "output is not a canonical partition"
        if with_trace:
            try:
                replayed = checks.replay_trace(game, lines[cut:])
            except ValueError:
                replayed = None
            if replayed != got:
                return "trace does not replay to the printed partition"
        elif cut != len(lines):
            return "unexpected trace output"
        if checks.find_deviation(game, got, "cis") is not None:
            return "partition is not CIS stable"
        return None

    return check


def _check_lib_cis(game, seed):
    """Same contract as ``_check_solve_cis`` for ``compute_cis`` itself."""
    blocks, _trace, sound = _cis_reference(game, seed)

    def check(first):
        got = checks.canonical(first["blocks"])
        if got == blocks:
            return None if sound else CIS_DEFECT
        if sound:
            return "partition differs from the reference construction"
        if sorted(p for b in got for p in b) != list(range(game.n)):
            return "output is not a partition of the players"
        if checks.find_deviation(game, got, "cis") is not None:
            return "partition is not CIS stable"
        return None

    return check


def _check_coalition(game, blocks, concept, expect_stable):
    """Exact bytes of the first witness in ascending mask order."""
    mask = checks.first_witness_mask(game.scaled(), blocks, concept)
    if expect_stable is not None and (mask is None) != expect_stable:
        raise RuntimeError("reference coalition scan contradicts the reduction")
    return _expect(0 if mask is None else 2, checks.render_coalition(game, mask))


def _check_search(game, strict, empty_core):
    """Exact bytes of the first stable partition in RGS order, or ``none``."""
    found = checks.first_stable_partition(game.scaled(), strict)
    if empty_core and found is not None:
        raise RuntimeError("reference search finds a stable partition in an empty-core game")
    if found is None:
        return _expect(2, "none\n")
    return _expect(0, checks.partition_text(game, found))


def _check_pareto(game, has_split):
    scaled = game.scaled()
    grand = [list(range(game.n))]
    expected = checks.first_pareto_improvement(scaled, grand)
    if (expected is not None) != has_split:
        raise RuntimeError("reference Pareto search contradicts the reduction")
    if expected is None:
        return _expect(0, "stable\n")
    return _expect(2, "pareto-dominating:\n" + checks.partition_text(game, expected))


# --- workloads ----------------------------------------------------------


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _cli_ingest(rng, wl, workdir):
    kinds = ["solve-trace", "solve-seed", "ns", "is", "cis", "ir"]
    files = []
    for g in range(3):
        game = dense_game(rng, 300, 0.5, -10, 10, rational_share=0.25)
        blocks = random_partition(rng, game.n, 17)
        gpath = _write(workdir, f"dense{g}.game", game.to_text())
        ppath = _write(workdir, f"dense{g}.partition", checks.partition_text(game, blocks))
        files.append((game, blocks, gpath, ppath))
    for k, kind in enumerate(kinds):
        game, blocks, gpath, ppath = files[k % len(files)]
        if kind == "solve-trace":
            wl.add({"tag": kind, "argv": ["solve-cis", gpath, "--trace"]}, _check_solve_cis(game, None, True))
        elif kind == "solve-seed":
            seed = rng.randrange(1000)
            argv = ["solve-cis", gpath, "--seed", str(seed)]
            wl.add({"tag": kind, "argv": argv}, _check_solve_cis(game, seed, False))
        else:
            expected = checks.render_deviation(game, blocks, checks.find_deviation(game, blocks, kind))
            wl.add(
                {"tag": "verify-" + kind, "argv": ["verify", gpath, ppath, "--concept", kind]},
                _expect(0 if expected == "stable\n" else 2, expected),
            )


def _cis_sweep(rng, wl, workdir):
    for g, degree in enumerate((8, 8)):
        game = sparse_game(rng, 600, degree)
        wl.games.append(_write(workdir, f"sparse{g}.game", game.to_text()))
        for seed in [None] + rng.sample(range(10_000), 7):
            wl.add({"tag": f"cis-g{g}-s{seed}", "game": g, "seed": seed}, _check_lib_cis(game, seed))
    labels = BUG6.split("\n")[0].split()[1:]
    bug6 = RefGame.from_values(
        labels, {(a, b): Fraction(v) for _, a, b, v in (l.split() for l in BUG6.splitlines()[1:])}
    )
    wl.games.append(_write(workdir, "bug6.game", BUG6))
    wl.add({"tag": "cis-bug6-s4", "game": len(wl.games) - 1, "seed": 4}, _check_lib_cis(bug6, 4))


def _coalition_ops(rng, wl, workdir):
    # Full scans of 13-player PARTITION no-instances: 12 of these 19 ops. The
    # E3C witness checks cost more; yes-instances and 15-player random games
    # stop early. Expected outputs come from the reference scan.
    def gadget(k, want_split):
        game = partition_gadget(split_weights(rng, k, want_split))
        return game, [list(range(game.n))], "csc", not want_split

    def random_cis(n):
        game = dense_game(rng, n, 0.5, -10, 10)
        return game, checks.reference_cis(game)[0], "csc", None

    def e3c(copies, concept):
        game, blocks = e3c_gadget(("a", "b", "c"), [frozenset("abc")] * copies)
        return game, blocks, concept, True if copies == 1 else None

    cases = [
        ("partition9no-a", gadget(9, False)),
        ("random15-a", random_cis(15)),
        ("partition9no-b", gadget(9, False)),
        ("e3c19", e3c(1, "strict-core")),
        ("partition9no-c", gadget(9, False)),
        ("partition11yes", gadget(11, True)),
        ("partition9no-d", gadget(9, False)),
        ("partition9no-e", gadget(9, False)),
        ("e3c20", e3c(2, "strict-core")),
        ("partition9no-f", gadget(9, False)),
        ("random15-b", random_cis(15)),
        ("partition9no-g", gadget(9, False)),
        ("partition9no-h", gadget(9, False)),
        ("e3c19", e3c(1, "core")),
        ("partition9no-i", gadget(9, False)),
        ("partition12yes", gadget(12, True)),
        ("partition9no-j", gadget(9, False)),
        ("partition9no-k", gadget(9, False)),
        ("partition9no-l", gadget(9, False)),
    ]
    for tag, (game, blocks, concept, expect_stable) in cases:
        gpath = _write(workdir, tag + ".game", game.to_text())
        ppath = _write(workdir, tag + ".partition", checks.partition_text(game, blocks))
        wl.add(
            {"tag": f"{tag}-{concept}", "argv": ["verify", gpath, ppath, "--concept", concept]},
            _check_coalition(game, blocks, concept, expect_stable),
        )


def _partition_ops(rng, wl, workdir):
    # Three 9-player no-instance Pareto sweeps (all 21147 partitions) cost
    # more than the full coalition scans, six 8-player ones (4140) less. The
    # six searches walk most of the 4140 partitions of 8 players at a higher
    # cost per partition; mostly negative values make the random searches
    # walk far. The two yes-instances stop early.
    def search(tag, game, concept, empty_core):
        gpath = _write(workdir, tag + ".game", game.to_text())
        wl.add(
            {"tag": f"{tag}-{concept}", "argv": ["search", gpath, "--concept", concept]},
            _check_search(game, concept == "strict-core", empty_core),
        )

    def pareto(tag, k, want_split):
        game = partition_gadget(split_weights(rng, k, want_split))
        gpath = _write(workdir, tag + ".game", game.to_text())
        ppath = _write(workdir, tag + ".partition", " ".join(game.labels) + "\n")
        wl.add(
            {"tag": tag + "-pareto", "argv": ["verify", gpath, ppath, "--concept", "pareto"]},
            _check_pareto(game, want_split),
        )

    randoms = [dense_game(rng, 8, 1.0, -30, 1) for _ in range(2)]
    hexagon = hexagon_padded(2)
    search("random8-a", randoms[0], "core", False)
    pareto("partition5no-a", 5, False)
    pareto("partition5yes", 5, True)
    search("hexagon8", hexagon, "core", True)
    pareto("partition5no-b", 5, False)
    pareto("partition5no-c", 5, False)
    search("random8-a", randoms[0], "strict-core", False)
    pareto("partition4no-a", 4, False)
    pareto("partition4no-b", 4, False)
    pareto("partition4no-c", 4, False)
    search("random8-b", randoms[1], "core", False)
    pareto("partition4yes", 4, True)
    search("hexagon8", hexagon, "strict-core", True)
    pareto("partition4no-d", 4, False)
    pareto("partition4no-e", 4, False)
    search("random8-b", randoms[1], "strict-core", False)
    pareto("partition4no-f", 4, False)


def _exhaustive(rng, wl, workdir):
    # The 12 full coalition scans form one tight band of cost with about
    # as many ops below it (the 8-player Pareto sweeps, the early stops) as
    # above it (the 9-player sweeps, the E3C checks, the searches), so the
    # median falls in the middle of the band, not on a gap between two kinds
    # of op. The six searches hold the tail.
    _coalition_ops(rng, wl, workdir)
    _partition_ops(rng, wl, workdir)


BUILDERS = {
    "cli_ingest": _cli_ingest,
    "cis_sweep": _cis_sweep,
    "exhaustive": _exhaustive,
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    wl = Workload(name)
    BUILDERS[name](random.Random(f"{name}/{seed}"), wl, workdir)
    return wl
