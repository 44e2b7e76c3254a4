"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's search code paths: they
use itertools over sorted member tuples and a recursive set-partition
generator, so library results can be checked against an independent route.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import strategies as st

import ashg
from ashg.cis import TraceStep
from ashg.errors import GameFormatError
from ashg.stability import DeviationMove


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


def sparse_game(rng: random.Random, n: int, degree: int = 8) -> ashg.Game:
    """Each player values ``degree`` others at nonzero integers in -10..10."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in rng.sample([j for j in range(n) if j != i], min(n - 1, degree)):
            rows[i][j] = rng.choice([v for v in range(-10, 11) if v])
    return ashg.Game.from_matrix([f"p{i}" for i in range(n)], rows)


def random_rational_rows(rng: random.Random, n: int):
    """A value matrix like ``random_game``'s, with values p/q for q in 2..9."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.5:
                rows[i][j] = Fraction(rng.randint(-10, 10), rng.randint(2, 9))
    return rows


# labels and spec tokens as the text formats allow them: no whitespace, no "#"
TOKENS = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=3).filter(
    lambda t: "#" not in t and not any(c.isspace() for c in t)
)


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


@functools.lru_cache(maxsize=4)
def value_matrix(game: ashg.Game):
    """Every ``game.value(i, j)`` times ``game.scale``, as a dense integer matrix; not to be changed."""
    return [[int(game.value(i, j) * game.scale) for j in range(game.n)] for i in range(game.n)]


def reference_deviation(game: ashg.Game, partition, admission: bool, release: bool):
    """The dense deviation scan that ``_find_deviation`` must match exactly.

    Every player's current utility and its utility for every block are summed
    over the dense rows, and every admission and release check reads the
    column of the mover over the whole block.
    """
    part = ashg.validate_partition(game, partition)
    rows = value_matrix(game)
    cur = [sum(rows[p][j] for j in part.block_of(p)) for p in range(game.n)]
    for p in range(game.n):
        src = part.block_of(p)
        if release and any(rows[j][p] > 0 for j in src if j != p):
            continue
        for tgt in part.blocks:
            if p in tgt:
                continue
            if sum(rows[p][j] for j in tgt) > cur[p]:
                if admission and any(rows[j][p] < 0 for j in tgt):
                    continue
                return DeviationMove(p, src, tgt)
        if cur[p] < 0:  # forming a new singleton; always admitted
            return DeviationMove(p, src, frozenset())
    return None


def reference_cis(game: ashg.Game, seed=None):
    """The rescanning CIS construction that ``compute_cis`` must match exactly.

    Every step recomputes from scratch: the next pick is the minimum-rank
    remaining player, each coalition's worth is summed over all its members,
    and every absorption rescans the sorted pool with ``all``/``any`` over the
    coalition.
    """
    n = game.n
    rows = value_matrix(game)
    if seed is None:
        priority = list(range(n))
    else:
        priority = list(range(n))
        random.Random(seed).shuffle(priority)
    rank = {p: k for k, p in enumerate(priority)}

    remaining = set(range(n))
    coalitions = []
    steps = []

    while remaining:
        a = min(remaining, key=rank.__getitem__)
        row = rows[a]
        pool_friends = [b for b in remaining if row[b] > 0]
        h = sum(row[b] for b in pool_friends)
        z = -1  # index into coalitions; -1 = found none, a becomes a leader
        for k, members in enumerate(coalitions):
            h2 = sum(row[j] for j in members)
            # strictly-greater update: ties keep the earliest-created target
            if h < h2 and all(rows[b][a] == 0 for b in members):
                h = h2
                z = k
        if z >= 0:
            coalitions[z].add(a)
            remaining.discard(a)
            steps.append(TraceStep("latecomer", z + 1, (a,)))
        else:
            z = len(coalitions)
            members = {a} | set(pool_friends)
            coalitions.append(members)
            remaining -= members
            steps.append(TraceStep("leader", z + 1, (a,)))
            if pool_friends:
                steps.append(TraceStep("helpers", z + 1, tuple(sorted(pool_friends))))
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
            steps.append(TraceStep("needed", z + 1, (absorbed,)))

    return ashg.Partition(coalitions), tuple(steps)


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


def reference_solve_partition(weights):
    """The smallest mask whose weights sum to half the total, trying every mask in ascending order."""
    k = len(weights)
    total = sum(weights)
    if total % 2 != 0:
        return None
    target = total // 2
    for mask in range(1 << k):
        s = 0
        m = mask
        i = 0
        while m:
            if m & 1:
                s += weights[i]
            m >>= 1
            i += 1
        if s == target:
            return tuple(i for i in range(k) if mask >> i & 1)
    return None


_REFERENCE_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[1-9][0-9]*)?")
_REFERENCE_LABEL_RE = re.compile(r"[^\s#]+")


def reference_parse_game(text: str):
    """The label-keyed game parser that ``parse_game`` must match exactly.

    Every value is parsed with ``Fraction(str)`` into a dict keyed by label
    pairs, and the game is then built from that dict, looking both labels of
    every cell up again by name, into a dense integer matrix.
    Returns ``(labels, rows, scale)``, each row as the ``{column: value}`` dict
    of its nonzero off-diagonal entries, the form ``Game.rows`` stores.
    """

    def parse_rational(token):
        if not _REFERENCE_RATIONAL_RE.fullmatch(token):
            raise GameFormatError(f"bad rational: {token!r} (use p or p/q with q > 0)")
        return Fraction(token) if "/" in token else int(token)

    def content_lines(text):
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line.split()

    labels = None
    default = None
    values = {}
    for lineno, tokens in content_lines(text):
        kind, args = tokens[0], tokens[1:]
        if labels is None:
            if kind != "players":
                raise GameFormatError(f"line {lineno}: expected a 'players' line first")
            if not args:
                raise GameFormatError(f"line {lineno}: a game needs at least one player")
            labels = args
            known = set(labels)
            if len(known) != len(labels):
                raise GameFormatError(f"line {lineno}: duplicate player label")
            continue
        if kind == "default":
            if len(args) != 1:
                raise GameFormatError(f"line {lineno}: default takes one rational")
            if default is not None:
                raise GameFormatError(f"line {lineno}: duplicate default line")
            default = parse_rational(args[0])
        elif kind == "val":
            if len(args) != 3:
                raise GameFormatError(f"line {lineno}: val takes <from> <to> <rational>")
            a, b, tok = args
            if a not in known or b not in known:
                raise GameFormatError(f"line {lineno}: undeclared player in val line")
            if (a, b) in values:
                raise GameFormatError(f"line {lineno}: duplicate val for pair {a} {b}")
            values[(a, b)] = parse_rational(tok)
        else:
            raise GameFormatError(f"line {lineno}: unknown directive {kind!r}")
    if labels is None:
        raise GameFormatError("empty game file")

    # Game(labels, values, default)
    labels = tuple(labels)
    seen = set()
    for lab in labels:
        if not isinstance(lab, str) or not _REFERENCE_LABEL_RE.fullmatch(lab):
            raise GameFormatError(f"bad player label: {lab!r}")
        if lab in seen:
            raise GameFormatError(f"duplicate player label: {lab!r}")
        seen.add(lab)
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    d = default if default is not None else 0
    cells = []
    for (a, b), v in values.items():
        i, j = index[a], index[b]
        if i == j:
            if v != 0:
                raise GameFormatError(f"nonzero self-value for player {a!r}")
            continue
        cells.append((i, j, v))
    uses_default = len(cells) < n * (n - 1)
    denominators = {v.denominator for _i, _j, v in cells}
    if uses_default:
        denominators.add(d.denominator)
    scale = math.lcm(*denominators)
    fill = d.numerator * (scale // d.denominator) if uses_default else 0
    rows = [[fill] * n for _ in range(n)]
    for i, j, v in cells:
        rows[i][j] = v.numerator * (scale // v.denominator)
    for i in range(n):
        rows[i][i] = 0
    return labels, [{j: v for j, v in enumerate(row) if v} for row in rows], scale
