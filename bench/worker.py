"""Timed worker: one process, one thread, driving ashg through its public API.

Started by ``run.py`` with a spec file that lists the input games and the
operations. It imports ashg from the checkout's ``src``, loads the inputs
(the set-up), and in ``measure`` mode runs the operation list round after
round until ``--seconds`` of op time have passed and the round in progress
is complete, so every op runs the same number of times. The first output of
each op goes back to ``run.py`` for checking; every later output of the same
op must repeat it exactly. With ``--trace 1`` each op runs twice, untraced and
traced, in alternating order, so the difference is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

perf = time.perf_counter
MIN_OPS = 11  # the tail percentile needs at least 10 samples beyond it


def set_up(spec):
    """Import ashg and load the inputs the way a library user would."""
    start = perf()
    sys.path.insert(0, spec["src"])
    import ashg
    import ashg.cli

    if not ashg.__file__.startswith(spec["src"]):
        raise SystemExit(f"ashg imported from {ashg.__file__}, not from {spec['src']}")
    games = []
    for path in spec["games"]:
        game = ashg.parse_game(Path(path).read_text(encoding="utf-8"))
        # fills the integer-scaling cache that the solver would fill on first use
        ashg.is_individually_rational(game, ashg.Partition.singletons(game.n))
        games.append(game)
    return perf() - start, ashg, games


def run_op(ashg, games, op):
    """Execute one op; return (seconds, output record)."""
    if "argv" in op:
        out, err = io.StringIO(), io.StringIO()
        start = perf()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = ashg.cli.main(op["argv"])
        except Exception as exc:  # an escaped exception is a failed op, not a crash
            return perf() - start, {"exc": repr(exc)}
        elapsed = perf() - start
        return elapsed, {"rc": rc, "out": out.getvalue(), "err": err.getvalue()}
    game = games[op["game"]]
    start = perf()
    try:
        partition, _trace = ashg.compute_cis(game, op["seed"])
    except Exception as exc:
        return perf() - start, {"exc": repr(exc)}
    elapsed = perf() - start
    return elapsed, {"blocks": sorted(sorted(b) for b in partition.blocks)}


def measure(spec, seconds, traced):
    setup_s, ashg, games = set_up(spec)
    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
    ops = spec["ops"]
    firsts, samples, counters = {}, [], {}
    paired = {"untraced_s": 0.0, "traced_s": 0.0}
    op_time = 0.0
    k = 0
    loop_start = perf()
    # Stop only between rounds: a part-round would tilt the op mix, and with
    # it the median, the tail and ops/s, by where the time ran out.
    while k < len(ops) or k % len(ops) or op_time < seconds or len(samples) < MIN_OPS:
        op = ops[k % len(ops)]
        if tracer is None:
            elapsed, record = run_op(ashg, games, op)
            op_time += elapsed
        else:
            # alternate which run goes first so warm caches favour neither
            order = (False, True) if k % 2 == 0 else (True, False)
            records = {}
            for on in order:
                if on:
                    tracer.install()
                try:
                    t, records[on] = run_op(ashg, games, op)
                finally:
                    if on:
                        tracer.uninstall()
                if on:
                    paired["traced_s"] += t
                    counts = tracer.finish_op()
                    if counters.setdefault(op["id"], counts) != counts:
                        counters[op["id"]] = {"mismatch": True}
                else:
                    paired["untraced_s"] += t
                    elapsed = t
            record = records[False]
            op_time = paired["traced_s"] + paired["untraced_s"]
        if op["id"] not in firsts:
            firsts[op["id"]] = record
            status = "first"
        else:
            status = "same" if record == firsts[op["id"]] else "diff"
        if tracer is not None and records[True] != record:
            status = "diff"
        samples.append((op["id"], elapsed, status))
        k += 1
    result = {
        "setup_s": setup_s,
        "loop_s": perf() - loop_start,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "samples": samples,
        "firsts": firsts,
    }
    if tracer is not None:
        result["trace"] = {
            "self_s": tracer.self_s,
            "total_s": tracer.total_s,
            "calls": tracer.calls,
            "absent": tracer.absent,
            "counters": counters,
            **paired,
        }
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spec", type=Path)
    parser.add_argument("result", type=Path)
    parser.add_argument("--mode", choices=["setup", "measure"], required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    spec = json.loads(args.spec.read_text(encoding="utf-8"))
    if args.mode == "setup":
        result = {"setup_s": set_up(spec)[0]}
    else:
        result = measure(spec, args.seconds, bool(args.trace))
    args.result.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
