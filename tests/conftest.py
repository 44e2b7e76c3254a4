"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's search code paths: they
use itertools over sorted member tuples and a recursive set-partition
generator, so library results can be checked against an independent route.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

import ashg


@pytest.fixture
def example6():
    return ashg.example_six_player()


@pytest.fixture
def example6_partition(example6):
    return ashg.Partition.of_labels(example6, [["1", "2"], ["3", "4", "5"], ["6"]])


@pytest.fixture
def split_gadget_112():
    gadget, grand = ashg.reduce_partition(ashg.PartitionInstance((1, 1, 2)))
    return gadget, grand


def random_game(rng: random.Random, n: int, lo=-10, hi=10, density=0.5) -> ashg.Game:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < density:
                rows[i][j] = rng.randint(lo, hi)
    return ashg.Game.from_matrix([f"p{i}" for i in range(n)], rows)


def random_rational_rows(rng: random.Random, n: int):
    """A value matrix like ``random_game``'s, with values p/q for q in 2..9."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.5:
                rows[i][j] = Fraction(rng.randint(-10, 10), rng.randint(2, 9))
    return rows


def random_partition(rng: random.Random, n: int) -> ashg.Partition:
    assignment = [0] * n
    blocks = 0
    for i in range(1, n):
        assignment[i] = rng.randint(0, blocks + 1)
        blocks = max(blocks, assignment[i])
    grouped = {}
    for player, b in enumerate(assignment):
        grouped.setdefault(b, []).append(player)
    return ashg.Partition(grouped.values())


# --- independent oracles -------------------------------------------------


def brute_utility(game: ashg.Game, members, player) -> Fraction:
    return sum(
        (game.value(player, j) for j in sorted(members) if j != player), Fraction(0)
    )


def all_partitions(n: int):
    """Recursive set-partition generator (insertion order, unlike the library)."""
    if n == 1:
        yield [[0]]
        return
    for smaller in all_partitions(n - 1):
        for k in range(len(smaller)):
            yield [b + [n - 1] if i == k else list(b) for i, b in enumerate(smaller)]
        yield [list(b) for b in smaller] + [[n - 1]]


def brute_all_blocking(game: ashg.Game, partition: ashg.Partition, weak: bool):
    """Every (weakly) blocking coalition, as a list of frozensets."""
    cur = {p: brute_utility(game, partition.block_of(p), p) for p in range(game.n)}
    found = []
    for size in range(1, game.n + 1):
        for combo in itertools.combinations(range(game.n), size):
            us = {p: brute_utility(game, combo, p) for p in combo}
            if weak:
                if all(us[p] >= cur[p] for p in combo) and any(
                    us[p] > cur[p] for p in combo
                ):
                    found.append(frozenset(combo))
            else:
                if all(us[p] > cur[p] for p in combo):
                    found.append(frozenset(combo))
    return found


def brute_has_pareto_improvement(game: ashg.Game, partition: ashg.Partition) -> bool:
    base = [brute_utility(game, partition.block_of(p), p) for p in range(game.n)]
    for cand in all_partitions(game.n):
        us = []
        for p in range(game.n):
            block = next(b for b in cand if p in b)
            us.append(brute_utility(game, block, p))
        if all(u >= b for u, b in zip(us, base)) and any(
            u > b for u, b in zip(us, base)
        ):
            return True
    return False


def brute_has_deviation(game: ashg.Game, partition: ashg.Partition, concept: str) -> bool:
    """Existence of a Nash/IS/CIS deviation, checked move by move."""
    for p in range(game.n):
        src = partition.block_of(p)
        cur = brute_utility(game, src, p)
        targets = [b for b in partition.blocks if p not in b] + [frozenset()]
        for tgt in targets:
            if brute_utility(game, tgt | {p}, p) <= cur:
                continue
            if concept in ("is", "cis") and any(game.value(j, p) < 0 for j in tgt):
                continue
            if concept == "cis" and any(
                game.value(j, p) > 0 for j in src if j != p
            ):
                continue
            return True
    return False


def brute_solve_partition(weights):
    total = sum(weights)
    if total % 2:
        return None
    best = None
    for size in range(len(weights) + 1):
        for combo in itertools.combinations(range(len(weights)), size):
            if 2 * sum(weights[i] for i in combo) == total:
                if best is None or sorted(combo) < sorted(best):
                    best = combo
    return best if best is None else tuple(sorted(best))
