"""Polynomial-time computation of a contractually individually stable partition.

Coalitions are grown one at a time. The picked player either joins an
earlier coalition whose members are all indifferent to it and which beats
the best coalition it could assemble from the remaining pool (a latecomer),
or founds a new coalition with everyone it strictly likes from the pool (the
leader and its helpers). After either step, remaining players that the
current coalition unanimously tolerates and someone strictly likes are
absorbed one by one (needed players).

The pick order is the remaining player with the lowest index by default, or
a seeded shuffle. The output is meant to be contractually individually
stable, but some orders give a partition that is not: the ``bug6`` game of
``tests/test_cis.py`` with seed 4, and about 1 in 18,000 orders on small
dense games. ``ashg solve-cis`` refuses such output with exit 1; item 1 of
ROADMAP.md tracks the fix.

Cost: one pass over a player's row when it is picked and one when it joins,
visiting only nonzero entries, plus heap work on the liked entries: O(n^2)
row reading at C speed and O(m log m) steps for m nonzero values. No step
rescans the pool or a coalition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import compress
from typing import List, Optional, Tuple, Union

from .errors import EmptyGame, InconsistentTrace
from .game import Game, Partition


@dataclass(frozen=True)
class LeaderChosen:
    player: int
    coalition: int  # 1-based creation index


@dataclass(frozen=True)
class HelpersAdded:
    coalition: int
    players: Tuple[int, ...]


@dataclass(frozen=True)
class NeededAdded:
    player: int
    coalition: int


@dataclass(frozen=True)
class LatecomerJoined:
    player: int
    coalition: int


TraceEvent = Union[LeaderChosen, HelpersAdded, NeededAdded, LatecomerJoined]


@dataclass(frozen=True)
class CisTrace:
    steps: Tuple[TraceEvent, ...]


def compute_cis(game: Game, seed: Optional[int] = None) -> Tuple[Partition, CisTrace]:
    """Build a CIS partition; ``seed=None`` picks lowest-index players first."""
    n = game.n
    if n == 0:
        raise EmptyGame()
    rows = game.rows
    priority = list(range(n))
    if seed is not None:
        random.Random(seed).shuffle(priority)

    home = [-1] * n  # coalition index of each placed player; -1 = still in the pool
    vetoes: List[set] = []  # per coalition: every player some member dislikes
    steps: List[TraceEvent] = []

    for a in priority:
        if home[a] >= 0:
            continue
        row = rows[a]
        pool_friends, worth = [], {}  # worth[k]: a's total value for coalition k
        for b in compress(range(n), row):
            if home[b] >= 0:
                worth[home[b]] = worth.get(home[b], 0) + row[b]
            elif row[b] > 0:
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
            steps.append(LatecomerJoined(a, z + 1))
        else:
            z = len(vetoes)
            vetoes.append(set())
            newcomers = [a] + pool_friends
            steps.append(LeaderChosen(a, z + 1))
            if pool_friends:
                steps.append(HelpersAdded(z + 1, tuple(pool_friends)))
        # absorb needed players: unanimously tolerated, strictly liked by someone.
        # A joining member vetoes everyone it dislikes and queues every unplaced,
        # unvetoed player it likes. A veto is never lifted, so the first queued
        # player still unplaced and unvetoed is the lowest-index eligible one.
        veto, ready = vetoes[z], []
        while newcomers:
            for p in newcomers:  # place them all first: none queues another
                home[p] = z
            for p in newcomers:
                r = rows[p]
                for b in compress(range(n), r):
                    if r[b] < 0:
                        veto.add(b)
                    elif home[b] < 0 and b not in veto:
                        heappush(ready, b)
            newcomers = []
            while ready and not newcomers:
                b = heappop(ready)
                if home[b] < 0 and b not in veto:
                    newcomers = [b]
                    steps.append(NeededAdded(b, z + 1))

    blocks: List[List[int]] = [[] for _ in vetoes]
    for p, k in enumerate(home):
        blocks[k].append(p)
    return Partition(blocks), CisTrace(tuple(steps))


def replay_trace(game: Game, trace: CisTrace) -> Partition:
    """Reconstruct the partition a trace describes, checking its consistency."""
    n = game.n
    coalitions: List[set] = []
    placed = set()

    def place(player: int) -> None:
        if not isinstance(player, int) or not 0 <= player < n:
            raise InconsistentTrace(f"unknown player in trace: {player!r}")
        if player in placed:
            raise InconsistentTrace(f"player {player} placed twice")
        placed.add(player)

    def existing(k: int) -> set:
        if not 1 <= k <= len(coalitions):
            raise InconsistentTrace(f"trace references coalition {k} before creation")
        return coalitions[k - 1]

    for step in trace.steps:
        if isinstance(step, LeaderChosen):
            if step.coalition != len(coalitions) + 1:
                raise InconsistentTrace(
                    f"leader creates coalition {step.coalition}, expected {len(coalitions) + 1}"
                )
            place(step.player)
            coalitions.append({step.player})
        elif isinstance(step, HelpersAdded):
            members = existing(step.coalition)
            for p in step.players:
                place(p)
                members.add(p)
        elif isinstance(step, (NeededAdded, LatecomerJoined)):
            members = existing(step.coalition)
            place(step.player)
            members.add(step.player)
        else:
            raise InconsistentTrace(f"unknown trace event: {step!r}")

    if placed != set(range(n)):
        missing = sorted(set(range(n)) - placed)
        raise InconsistentTrace(f"trace leaves players unplaced: {missing}")
    return Partition(coalitions)


def serialize_trace(game: Game, trace: CisTrace) -> str:
    """One event per line, players rendered by label."""
    lines = []
    for step in trace.steps:
        if isinstance(step, LeaderChosen):
            lines.append(f"leader {game.label(step.player)} {step.coalition}")
        elif isinstance(step, HelpersAdded):
            labs = " ".join(game.label(p) for p in step.players)
            lines.append(f"helpers {step.coalition} {labs}")
        elif isinstance(step, NeededAdded):
            lines.append(f"needed {game.label(step.player)} {step.coalition}")
        elif isinstance(step, LatecomerJoined):
            lines.append(f"latecomer {game.label(step.player)} {step.coalition}")
    return "\n".join(lines) + "\n"
