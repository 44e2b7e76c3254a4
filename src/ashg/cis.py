"""Polynomial-time computation of a contractually individually stable partition.

Coalitions are grown one at a time. The picked player either joins an
earlier coalition whose members are all indifferent to it and which beats
the best coalition it could assemble from the remaining pool (a latecomer),
or founds a new coalition with everyone it strictly likes from the pool (the
leader and its helpers). After either step, remaining players that the
current coalition unanimously tolerates and someone strictly likes are
absorbed one by one (needed players).

Each placement is recorded as one ``TraceStep(kind, coalition, players)``,
kind ``leader``, ``helpers``, ``needed`` or ``latecomer``, into the 1-based
coalition ``coalition``; the trace is the tuple of these steps.
``replay_trace`` rebuilds the partition from that tuple and raises
``InconsistentTrace`` on any step it cannot apply.

The pick order is the remaining player with the lowest index by default, or
a seeded shuffle. The output is meant to be contractually individually
stable, but some orders give a partition that is not: the ``bug6`` game of
``tests/test_cis.py`` with seed 4, and about 1 in 18,000 orders on small
dense games. ``ashg solve-cis`` refuses such output with exit 1; item 1 of
ROADMAP.md tracks the fix.

Cost: one walk over a player's stored row (its nonzero values, see
``Game``) when it is picked and one when it joins, plus heap work on the
liked entries: O(m) row steps and O(m log m) heap steps for m nonzero
values. No step reads a dense row or rescans the pool or a coalition.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from typing import List, NamedTuple, Optional, Tuple

from .errors import InconsistentTrace, shown
from .game import Game, Partition

KINDS = ("leader", "helpers", "needed", "latecomer")


class TraceStep(NamedTuple):
    """One construction step: ``players`` join coalition ``coalition`` (1-based creation index).

    ``kind`` is one of ``KINDS``; a ``leader`` step founds the coalition. Every
    kind but ``helpers`` places exactly one player.
    """

    kind: str
    coalition: int
    players: Tuple[int, ...]


def compute_cis(game: Game, seed: Optional[int] = None) -> Tuple[Partition, Tuple[TraceStep, ...]]:
    """Build a CIS partition and its trace; ``seed=None`` picks lowest-index players first."""
    n = game.n
    rows = game.rows
    priority = list(range(n))
    if seed is not None:
        random.Random(seed).shuffle(priority)

    home = [-1] * n  # coalition index of each placed player; -1 = still in the pool
    vetoes: List[set] = []  # per coalition: every player some member dislikes
    steps: List[TraceStep] = []

    for a in priority:
        if home[a] >= 0:
            continue
        row = rows[a]
        pool_friends, worth = [], {}  # worth[k]: a's total value for coalition k
        for b, v in row.items():
            if home[b] >= 0:
                worth[home[b]] = worth.get(home[b], 0) + v
            elif v > 0:
                pool_friends.append(b)
        h = sum(row[b] for b in pool_friends)
        z = -1  # index into vetoes; -1 = found none, a becomes a leader
        # A coalition a values at 0 never wins, as h >= 0. Every coalition is
        # closed under absorption, so none of its members likes an unplaced
        # player it does not veto: all members are indifferent to a exactly
        # when a is not vetoed.
        for k in sorted(worth):
            # strictly-greater update: ties keep the earliest-created target
            if h < worth[k] and a not in vetoes[k]:
                h = worth[k]
                z = k
        if z >= 0:
            newcomers = [a]
            steps.append(TraceStep("latecomer", z + 1, (a,)))
        else:
            z = len(vetoes)
            vetoes.append(set())
            newcomers = [a] + pool_friends
            steps.append(TraceStep("leader", z + 1, (a,)))
            if pool_friends:
                steps.append(TraceStep("helpers", z + 1, tuple(pool_friends)))
        # absorb needed players: unanimously tolerated, strictly liked by someone.
        # A joining member vetoes everyone it dislikes and queues every unplaced,
        # unvetoed player it likes. A veto is never lifted, so the first queued
        # player still unplaced and unvetoed is the lowest-index eligible one.
        veto, ready = vetoes[z], []
        while newcomers:
            for p in newcomers:  # place them all first: none queues another
                home[p] = z
            for p in newcomers:
                for b, v in rows[p].items():
                    if v < 0:
                        veto.add(b)
                    elif home[b] < 0 and b not in veto:
                        heappush(ready, b)
            newcomers = []
            while ready and not newcomers:
                b = heappop(ready)
                if home[b] < 0 and b not in veto:
                    newcomers = [b]
                    steps.append(TraceStep("needed", z + 1, (b,)))

    blocks: List[List[int]] = [[] for _ in vetoes]
    for p, k in enumerate(home):
        blocks[k].append(p)
    return Partition(blocks), tuple(steps)


def replay_trace(game: Game, trace: Tuple[TraceStep, ...]) -> Partition:
    """Reconstruct the partition a trace (a tuple of steps) describes, checking its consistency."""
    if not isinstance(trace, tuple):
        raise InconsistentTrace(f"a trace is a tuple of steps, not {type(trace).__name__}")
    n = game.n
    coalitions: List[set] = []
    placed = set()
    for step in trace:
        if not isinstance(step, TraceStep) or step.kind not in KINDS:  # no repr: a step may be huge
            what = "a step of unknown kind" if isinstance(step, TraceStep) else f"a {type(step).__name__}"
            raise InconsistentTrace(f"unknown trace event: {what}")
        kind, k, players = step
        if type(k) is not int or not isinstance(players, tuple) or (kind != "helpers" and len(players) != 1):
            raise InconsistentTrace(f"malformed {kind} step")
        if kind == "leader":
            if k != len(coalitions) + 1:
                raise InconsistentTrace(f"leader creates coalition {shown(k)}, expected {len(coalitions) + 1}")
            coalitions.append(set())
        elif not 1 <= k <= len(coalitions):
            raise InconsistentTrace(f"trace references coalition {shown(k)} before creation")
        for p in players:
            if type(p) is not int or not 0 <= p < n:
                raise InconsistentTrace(f"unknown player in trace: {shown(p)}")
            if p in placed:
                raise InconsistentTrace(f"player {p} placed twice")
            placed.add(p)
            coalitions[k - 1].add(p)

    if len(placed) != n:
        missing = sorted(set(range(n)) - placed)
        raise InconsistentTrace(f"trace leaves players unplaced: {missing}")
    return Partition(coalitions)


def serialize_trace(game: Game, trace: Tuple[TraceStep, ...]) -> str:
    """One step per line, players by label: ``helpers <k> <labels>``, else ``<kind> <label> <k>``."""
    lines = []
    for kind, k, players in trace:
        labs = " ".join(game.label(p) for p in players)
        lines.append(f"helpers {k} {labs}" if kind == "helpers" else f"{kind} {labs} {k}")
    return "\n".join(lines) + "\n"
