"""ashg benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload cli_ingest --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The script writes the workload's inputs
under ``.bench_work/``, runs the set-up several times and the timed ops
once in fresh worker processes (so peak RSS counts only the workload's
inputs), checks every op's output with its own exact reference code, and
prints a report. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# setup_s is the median of fresh-process set-ups: at least SETUP_MIN_RUNS,
# and more (up to SETUP_MAX_RUNS) until they add up to SETUP_MIN_S
SETUP_MIN_RUNS, SETUP_MAX_RUNS, SETUP_MIN_S = 3, 25, 3.0
BUDGET_S = 170  # a workload's workers must all finish within this


def run_worker(spec_path, result_path, mode, seconds, trace, deadline):
    cmd = [sys.executable, str(BENCH / "worker.py"), str(spec_path), str(result_path), "--mode", mode]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode} in {mode} mode")
    return json.loads(result_path.read_text(encoding="utf-8"))


def tail(times):
    """Value at the highest percentile with at least 10 samples beyond it."""
    ordered = sorted(times)
    i = len(ordered) - 11
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def end_to_end(result, setups):
    times = [t for _id, t, _status in result["samples"]]
    tail_s, tail_pct = tail(times)
    metrics = {
        "op_p50_ms": (1000 * statistics.median(times), "ms"),
        "op_tail_ms": (1000 * tail_s, "ms"),
        "ops_per_s": (len(times) / result["loop_s"], "1/s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    notes = {"op_tail_percentile": tail_pct, "op_samples": len(times)}
    return metrics, notes


def per_layer(result, reasons):
    tr = result["trace"]
    self_s, total_s = tr["self_s"], tr["total_s"]
    ops = len(result["samples"])
    per_op = {ident: 0 for ident in reasons}
    for ident, _t, _status in result["samples"]:
        per_op[ident] += 1

    def per_op_s(span):
        return self_s.get(span, 0.0) / ops

    def rate(amount, span):
        seconds = total_s.get(span, 0.0)
        return amount / seconds if seconds else 0.0

    def summed(counter, weights=None):
        """Counter over one pass of the op list, or over every traced run."""
        return sum(
            tr["counters"].get(ident, {}).get(counter, 0) * (weights[ident] if weights else 1)
            for ident in reasons
        )

    metrics = {
        "cli.self_s": (per_op_s("cli.main"), "s"),
        "formats.parse_game_s": (per_op_s("formats.parse_game"), "s"),
        "formats.parse_partition_s": (per_op_s("formats.parse_partition"), "s"),
        "formats.serialize_s": (per_op_s("formats.serialize"), "s"),
        "formats.parse_mb_per_s": (rate(summed("game_bytes", per_op) / 1e6, "formats.parse_game"), "MB/s"),
        "game.build_s": (per_op_s("game.build"), "s"),
        "game.scale_s": (per_op_s("game.scale"), "s"),
        "cis.compute_s": (per_op_s("cis.compute"), "s"),
        "cis.players_per_s": (
            summed("players", per_op) / self_s["cis.compute"] if self_s.get("cis.compute") else 0.0,
            "1/s",
        ),
        "cis.failed": (sum(r == workloads.CIS_DEFECT for r in reasons.values()), "count"),
        "stability.deviation_s": (per_op_s("stability.deviation"), "s"),
        "stability.coalition_scan_s": (per_op_s("stability.coalition_scan"), "s"),
        "stability.coalitions_enumerated": (summed("coalitions"), "count"),
        "stability.coalitions_per_s": (rate(summed("coalitions", per_op), "stability.coalition_scan"), "1/s"),
        "stability.partition_search_self_s": (per_op_s("stability.partition_search"), "s"),
        "enumeration.partitions_enumerated": (summed("partitions"), "count"),
        "enumeration.partitions_per_s": (
            rate(summed("partitions", per_op), "stability.partition_search"),
            "1/s",
        ),
        "trace.overhead_pct": (100.0 * (tr["traced_s"] / tr["untraced_s"] - 1), "%"),
    }
    notes = {
        "absent_spans": tr["absent"],
        "span_self_s": {name: round(s / ops, 6) for name, s in sorted(self_s.items())},
        "span_calls": tr["calls"],
        "counters_repeat": not any(c.get("mismatch") for c in tr["counters"].values()),
    }
    return metrics, notes


def run_workload(name, seed, seconds, trace):
    deadline = time.monotonic() + BUDGET_S
    workdir = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = workloads.build(name, seed, workdir)
        spec_path = workdir / "spec.json"
        spec = {"src": str(ROOT / "src"), "games": wl.games, "ops": wl.ops}
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        result_path = workdir / "result.json"
        result = run_worker(spec_path, result_path, "measure", seconds, trace, deadline)
        setups = [result["setup_s"]]
        while len(setups) < SETUP_MIN_RUNS or (sum(setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_RUNS):
            setups.append(run_worker(spec_path, result_path, "setup", seconds, 0, deadline)["setup_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only if no other run is using it
        except OSError:
            pass

    reasons = {
        ident: "exception: " + first["exc"] if "exc" in first else wl.check[ident](first)
        for ident, first in result["firsts"].items()
    }
    # attempted and failed count distinct ops, not timed samples: every repeat
    # of an op must reproduce its first output, so an op passes or fails as a
    # whole, and the counts depend on the seed alone, not on how many rounds
    # of the op list fitted into the timed loop.
    failures, failed_ops = {}, set()
    for ident, _t, status in result["samples"]:
        reason = "output differs from the op's first run" if status == "diff" else reasons[ident]
        if reason is not None:
            failures.setdefault(f"{ident}: {reason}", 0)
            failures[f"{ident}: {reason}"] += 1
            failed_ops.add(ident)
    attempted = len(reasons)
    failed = len(failed_ops)
    metrics, notes = end_to_end(result, setups)
    if trace:
        metrics, layer_notes = per_layer(result, reasons)
        notes.update(layer_notes)
    # A CIS output the exact check rejects is a counted program failure (the
    # known solver defect); anything else unexplained makes the run incorrect.
    correct = len(reasons) == len(wl.ops) and notes.get("counters_repeat", True)
    correct = correct and all(k.endswith(": " + workloads.CIS_DEFECT) for k in failures)
    by_op = {}
    for ident, t, _status in result["samples"]:
        by_op.setdefault(ident, []).append(1000 * t)
    record = {
        "workload": name,
        "seed": seed,
        "why": workloads.WHY[name],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "fail_rate": failed / attempted,
        "failures": failures,
        "setup_samples_s": setups,
        "op_median_ms": {ident: round(statistics.median(ts), 3) for ident, ts in by_op.items()},
        **notes,
    }
    return record, {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def report(record, line):
    print(f"== {record['workload']}  seed {record['seed']}  python {record['python']}  nproc {record['nproc']}")
    print(f"   why: {record['why']}")
    for key, m in line["metrics"].items():
        print(f"   {key:<36} {m['value']:>14.6g} {m['unit']}")
    print(f"   {'fail_rate':<36} {record['fail_rate']:>14.6g} ({line['failed']} of {line['attempted']} ops failed)")
    if "op_tail_percentile" in record:
        print(f"   op_tail_ms is p{record['op_tail_percentile']:.1f} of {record['op_samples']} samples")
    for failure, count in record["failures"].items():
        print(f"   failed x{count}: {failure}")
    print(json.dumps({"record": record}, sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description="ashg benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ashg" / "__init__.py").is_file():
        print(f"error: no ashg package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(workloads.BUILDERS) if args.workload == "all" else [args.workload]
    lines = []
    for name in names:
        record, line = run_workload(name, args.seed, args.seconds, args.trace)
        report(record, line)
        lines.append((name, line))
    if len(lines) == 1:
        print(json.dumps(lines[0][1]))
    else:
        print(json.dumps({
            "correct": all(line["correct"] for _n, line in lines),
            "attempted": sum(line["attempted"] for _n, line in lines),
            "failed": sum(line["failed"] for _n, line in lines),
            "metrics": {f"{n}/{k}": m for n, line in lines for k, m in line["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
