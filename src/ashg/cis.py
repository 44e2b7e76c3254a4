"""Polynomial-time computation of a contractually individually stable partition.

Coalitions are grown one at a time. The picked player either joins an
earlier coalition whose members are all indifferent to it and which beats
the best coalition it could assemble from the remaining pool (a latecomer),
or founds a new coalition with everyone it strictly likes from the pool (the
leader and its helpers). After either step, remaining players that the
current coalition unanimously tolerates and someone strictly likes are
absorbed one by one (needed players).

The pick order is the remaining player with the lowest index by default, or
a seeded shuffle; the output is contractually individually stable for every
order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from .errors import EmptyGame, InconsistentTrace
from .game import Game, Partition, int_utility


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
    if seed is None:
        priority = list(range(n))
    else:
        priority = list(range(n))
        random.Random(seed).shuffle(priority)
    rank = {p: k for k, p in enumerate(priority)}

    remaining = set(range(n))
    coalitions: List[set] = []
    steps: List[TraceEvent] = []

    while remaining:
        a = min(remaining, key=rank.__getitem__)
        row = rows[a]
        pool_friends = [b for b in remaining if row[b] > 0]
        h = int_utility(game, a, pool_friends)
        z = -1  # index into coalitions; -1 = found none, a becomes a leader
        for k, members in enumerate(coalitions):
            h2 = int_utility(game, a, members)
            # strictly-greater update: ties keep the earliest-created target
            if h < h2 and all(rows[b][a] == 0 for b in members):
                h = h2
                z = k
        if z >= 0:
            coalitions[z].add(a)
            remaining.discard(a)
            steps.append(LatecomerJoined(a, z + 1))
        else:
            z = len(coalitions)
            members = {a} | set(pool_friends)
            coalitions.append(members)
            remaining -= members
            steps.append(LeaderChosen(a, z + 1))
            if pool_friends:
                steps.append(HelpersAdded(z + 1, tuple(sorted(pool_friends))))
        # absorb needed players: unanimously tolerated, strictly liked by someone
        members = coalitions[z]
        while True:
            absorbed = None
            for j in sorted(remaining):
                if all(rows[i][j] >= 0 for i in members) and any(
                    rows[i][j] > 0 for i in members
                ):
                    absorbed = j
                    break
            if absorbed is None:
                break
            remaining.discard(absorbed)
            members.add(absorbed)
            steps.append(NeededAdded(absorbed, z + 1))

    return Partition(coalitions), CisTrace(tuple(steps))


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
