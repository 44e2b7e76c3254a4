"""Spans around ashg's public functions, installed from outside the package.

Each wrapped name is replaced on its module by a function that records a
span (name, start, end, parent span) and, for the exhaustive searches,
counts the work the result implies:

* a coalition scan enumerated exactly the returned witness's mask, or all
  2**n - 1 masks when it returns nothing;
* a partition search enumerated the returned partition's RGS rank plus 1,
  or Bell(n) partitions when it returns nothing.

Both counts follow from the enumeration-minimal output contract, so they
are exact and do not depend on the machine. A name a later version no
longer has is reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import checks

perf = time.perf_counter


def _coalitions(args, kwargs, result):
    n = args[0].n
    return checks.mask_of(result.coalition) if result is not None else (1 << n) - 1


def _partitions(args, kwargs, result):
    n = args[0].n
    if result is None:
        return checks.bell(n)
    return checks.rgs_rank(checks.rgs_of(result.blocks, n)) + 1


def _players(args, kwargs, result):
    return args[0].n


def _bytes(args, kwargs, result):
    return len(args[0].encode("utf-8"))


# (module, attribute, span name, counter name, counter)
WRAPPED = [
    ("ashg.cli", "main", "cli.main", None, None),
    ("ashg.cli", "parse_game", "formats.parse_game", "game_bytes", _bytes),
    ("ashg.formats", "Game", "game.build", None, None),
    ("ashg.cli", "parse_partition", "formats.parse_partition", None, None),
    ("ashg.cli", "serialize_partition", "formats.serialize", None, None),
    ("ashg.cli", "serialize_game", "formats.serialize", None, None),
    ("ashg.cli", "serialize_trace", "formats.serialize", None, None),
    ("ashg.cis", "scaled_rows", "game.scale", None, None),
    ("ashg.stability", "scaled_rows", "game.scale", None, None),
    ("ashg.game", "scaled_rows", "game.scale", None, None),
    ("ashg.cli", "compute_cis", "cis.compute", "players", _players),
    ("ashg", "compute_cis", "cis.compute", "players", _players),
    ("ashg.cli", "find_cis_deviation", "stability.deviation", None, None),
    ("ashg.stability", "find_nash_deviation", "stability.deviation", None, None),
    ("ashg.stability", "find_is_deviation", "stability.deviation", None, None),
    ("ashg.stability", "find_cis_deviation", "stability.deviation", None, None),
    ("ashg.stability", "is_individually_rational", "stability.deviation", None, None),
    ("ashg.cli", "verify", "stability.verify", None, None),
    ("ashg.stability", "find_strongly_blocking", "stability.coalition_scan", "coalitions", _coalitions),
    ("ashg.stability", "find_weakly_blocking", "stability.coalition_scan", "coalitions", _coalitions),
    ("ashg.stability", "find_csc_violation", "stability.coalition_scan", "coalitions", _coalitions),
    ("ashg.cli", "core_exists", "stability.partition_search", "partitions", _partitions),
    ("ashg.stability", "find_pareto_improvement", "stability.partition_search", "partitions", _partitions),
]


class Tracer:
    """Records spans while installed; folds them into per-name totals per op."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.stack = []
        self.counts = defaultdict(int)  # counters of the current op
        self.self_s = defaultdict(float)  # span name -> summed self time
        self.total_s = defaultdict(float)  # span name -> summed span time
        self.calls = defaultdict(int)
        self.absent = []
        self._patches = []  # (module, attribute, original, wrapper)
        for modname, attr, span, counter, count in WRAPPED:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            self._patches.append((module, attr, original, self._wrap(span, original, counter, count)))

    def _wrap(self, span, fn, counter, count):
        spans, stack, counts = self.spans, self.stack, self.counts

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[index] = (span, start, end, parent)
            if counter is not None:
                counts[counter] += count(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for module, attr, _original, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _wrapper in self._patches:
            setattr(module, attr, original)

    def finish_op(self):
        """Fold this op's spans into the totals; return and reset its counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for k, (name, start, end, _parent) in enumerate(self.spans):
            self.total_s[name] += end - start
            self.self_s[name] += end - start - child_time[k]
            self.calls[name] += 1
        counts = dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return counts
