"""Differential tests: the exhaustive searches against the conftest oracles.

Every witness must be the first one in the documented order: the smallest
characteristic mask for coalitions, lexicographic restricted-growth-string
order for partitions. The oracles enumerate everything with ``Fraction``
utilities; only the order in which they are compared is taken from the
contract.
"""

import functools
import gc
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ashg
from ashg.game import dense_rows, int_utility
from ashg.stability import _first_coalition, _tables

from conftest import (
    all_partitions,
    brute_all_blocking,
    brute_solve_partition,
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


def bounded_walk(game, pi, order):
    """What the outsider-bounded coalition walk accepts on ``game`` relabeled so that
    new player ``k`` is ``order[k]``: a coalition in the original numbers, or None."""
    dense = dense_rows(game)
    rows = [[dense[p][q] for q in order] for p in order]
    cur = [int_utility(game, p, pi.block_of(p)) for p in order]
    block = [pi.blocks.index(pi.block_of(p)) for p in order]
    found = _first_coalition(rows, _tables(rows), cur, False, block)
    return None if found is None else frozenset(order[p] for p in found[0])


def assert_first_csc_violation(game, pi):
    """``find_csc_violation`` returns the smallest-mask harmless weak blocker, or None.

    Its feasibility walk alone, in any decision order, accepts only harmless
    weak blockers and finds one whenever one exists."""
    csc = [s for s in brute_all_blocking(game, pi, weak=True) if harmless(game, pi, s)]
    shuffled = list(range(game.n))
    random.Random(game.n).shuffle(shuffled)
    for order in (list(range(game.n)), shuffled):
        found = bounded_walk(game, pi, order)
        assert (found is None) == (not csc) and (found is None or found in csc), (ashg.serialize_game(game), pi)
    w = ashg.find_csc_violation(game, pi)
    if not csc:
        assert w is None, (ashg.serialize_game(game), pi)
        return False
    first = min(csc, key=mask)
    assert (w.coalition, w.kind, w.strictly_better) == (first, "weak", strictly_better(game, pi, first)), (
        ashg.serialize_game(game),
        pi,
    )
    return True


def split_weights(rng, k, want_split):
    """``k`` weights in 1..9 with an equal split, or with none and an even total."""
    while True:
        weights = tuple(rng.randint(1, 9) for _ in range(k))
        if sum(weights) % 2 == 0 and (brute_solve_partition(weights) is not None) == want_split:
            return weights


@pytest.mark.parametrize("k", range(3, 9))
@pytest.mark.parametrize("want_split", [True, False])
def test_csc_violation_on_partition_gadgets(k, want_split):
    rng = random.Random(f"csc/{k}/{want_split}")
    game = ashg.reduce_partition(ashg.PartitionInstance(split_weights(rng, k, want_split)))[0].game
    # the grand coalition is CSC stable exactly when the weights have no equal split
    assert assert_first_csc_violation(game, ashg.Partition.grand(game.n)) == want_split
    for nblocks in (2, 3):
        assignment = [rng.randrange(nblocks) for _ in range(game.n)]
        pi = ashg.Partition([p for p in range(game.n) if assignment[p] == b] for b in set(assignment))
        assert_first_csc_violation(game, pi)


@given(data=st.data(), n=st.integers(1, 9))
@settings(max_examples=200, deadline=None)
def test_csc_violation_is_first_harmless_weak_blocker(data, n):
    values = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 5, -7])
    rows = [[0 if i == j else data.draw(values) for j in range(n)] for i in range(n)]
    game = ashg.Game.from_matrix([f"p{i}" for i in range(n)], rows)
    assignment = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    pi = ashg.Partition([p for p in range(n) if assignment[p] == b] for b in set(assignment))
    assert_first_csc_violation(game, pi)


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


def test_walks_leave_no_cyclic_garbage():
    """Each walk is a closure that calls itself; the searches drop that cycle when
    they return or raise, so a walk's tables are freed without the cyclic collector."""
    yes, yes_grand = ashg.reduce_partition(ashg.PartitionInstance((1, 1, 2)))
    no, no_grand = ashg.reduce_partition(ashg.PartitionInstance((2, 3, 7)))
    six = ashg.example_six_player()
    rows = dense_rows(six)

    class Refusing(int):  # a current utility whose comparison at a leaf raises
        def __lt__(self, other):
            raise RuntimeError("refused")

    gc.collect()
    gc.disable()
    try:
        assert ashg.find_csc_violation(yes.game, yes_grand) is not None  # both phases
        assert ashg.find_csc_violation(no.game, no_grand) is None  # the feasibility phase alone
        assert ashg.core_exists(six) is None and ashg.core_exists(six, strict=True) is None
        with pytest.raises(RuntimeError):
            _first_coalition(rows, _tables(rows), [Refusing()] * six.n, False)
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0
