"""Differential tests: the exhaustive searches against the conftest oracles.

Every witness must be the first one in the documented order: the smallest
characteristic mask for coalitions, lexicographic restricted-growth-string
order for partitions. The oracles enumerate everything with ``Fraction``
utilities; only the order in which they are compared is taken from the
contract.
"""

import functools
import itertools
import random

import pytest

import ashg

from conftest import (
    all_partitions,
    brute_all_blocking,
    brute_utility,
    random_game,
    random_partition,
    random_rational_rows,
)

KINDS = ("int", "rational", "negative", "ternary")


def kind_game(rng, n, kind):
    if kind == "rational":
        return ashg.Game.from_matrix([f"p{i}" for i in range(n)], random_rational_rows(rng, n))
    lo, hi, density = {"int": (-10, 10, 0.5), "negative": (-30, 2, 1.0), "ternary": (-1, 1, 1.0)}[kind]
    return random_game(rng, n, lo, hi, density)


def corpus(seed, count, max_n):
    """Seeded (game, partition) pairs of every kind, plus the 1-player and all-zero games."""
    rng = random.Random(seed)
    cases = [(ashg.Game(["solo"]), ashg.Partition.grand(1))]
    for n in (3, max_n):
        zero = ashg.Game([f"p{i}" for i in range(n)])
        cases += [(zero, ashg.Partition.grand(n)), (zero, ashg.Partition.singletons(n))]
    for k in range(count):
        n = rng.randint(1, max_n)
        cases.append((kind_game(rng, n, KINDS[k % len(KINDS)]), random_partition(rng, n)))
    return cases


def mask(coalition):
    return sum(1 << p for p in coalition)


def rgs_key(blocks):
    """The restricted growth string of a partition given as blocks."""
    order = sorted(blocks, key=min)
    return tuple(next(k for k, b in enumerate(order) if p in b) for p in range(sum(map(len, blocks))))


@functools.lru_cache(maxsize=None)
def partitions_in_rgs_order(n):
    return tuple(sorted(all_partitions(n), key=rgs_key))


class Utilities:
    """Memoized ``brute_utility``: exact Fraction sums, computed once per (coalition, player)."""

    def __init__(self, game):
        self.game = game
        self.memo = {}

    def __call__(self, members, player):
        key = (frozenset(members), player)
        if key not in self.memo:
            self.memo[key] = brute_utility(self.game, key[0], player)
        return self.memo[key]


def harmless(game, partition, coalition):
    """Nobody left behind is worse off in the remainder of its block."""
    for block in partition.blocks:
        rest = block - coalition
        if rest != block:
            for j in rest:
                if brute_utility(game, rest, j) < brute_utility(game, block, j):
                    return False
    return True


def strictly_better(game, pi, coalition):
    return {p for p in coalition if brute_utility(game, coalition, p) > brute_utility(game, pi.block_of(p), p)}


def test_blocking_witnesses_are_smallest_mask():
    for game, pi in corpus(1, 100, 8):
        for weak, finder in ((False, ashg.find_strongly_blocking), (True, ashg.find_weakly_blocking)):
            blockers = brute_all_blocking(game, pi, weak=weak)
            w = finder(game, pi)
            if not blockers:
                assert w is None, (ashg.serialize_game(game), pi)
                continue
            first = min(blockers, key=mask)
            assert w.coalition == first, (ashg.serialize_game(game), pi)
            if weak:
                assert (w.kind, w.strictly_better) == ("weak", strictly_better(game, pi, first))
            else:
                assert (w.kind, w.strictly_better) == ("strong", first)
        csc = [s for s in blockers if harmless(game, pi, s)]
        w = ashg.find_csc_violation(game, pi)
        if csc:
            first = min(csc, key=mask)
            assert w.coalition == first, (ashg.serialize_game(game), pi)
            assert (w.kind, w.strictly_better) == ("weak", strictly_better(game, pi, first))
        else:
            assert w is None, (ashg.serialize_game(game), pi)


def test_pareto_improvement_is_first_in_rgs_order():
    for game, pi in corpus(3, 60, 8):
        u = Utilities(game)
        base = [u(pi.block_of(p), p) for p in range(game.n)]
        expected = None
        for blocks in partitions_in_rgs_order(game.n):
            new = [u(next(b for b in blocks if p in b), p) for p in range(game.n)]
            if all(a >= b for a, b in zip(new, base)) and new != base:
                expected = ashg.Partition(blocks)
                break
        assert ashg.find_pareto_improvement(game, pi) == expected, (ashg.serialize_game(game), pi)


def test_core_exists_is_first_stable_partition_in_rgs_order():
    games = [game for game, _ in corpus(4, 60, 6)] + [ashg.example_six_player()]
    for game in games:
        u = Utilities(game)
        coalitions = [
            frozenset(c) for size in range(1, game.n + 1) for c in itertools.combinations(range(game.n), size)
        ]
        for strict in (False, True):
            expected = None
            for blocks in partitions_in_rgs_order(game.n):
                pi = ashg.Partition(blocks)
                cur = {p: u(pi.block_of(p), p) for p in range(game.n)}

                def blocks_pi(s):
                    gains = [u(s, p) - cur[p] for p in s]
                    if strict:
                        return min(gains) >= 0 and max(gains) > 0
                    return min(gains) > 0

                if not any(blocks_pi(s) for s in coalitions):
                    expected = pi
                    break
            assert ashg.core_exists(game, strict=strict) == expected, (ashg.serialize_game(game), strict)
