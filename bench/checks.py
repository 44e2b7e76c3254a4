"""Independent reference checks for ashg outputs.

Nothing here imports ashg. Games are held as the benchmark generated them:
a label list and a dense matrix of exact ``Fraction`` values. Every check
follows the documented output contract: players by index, blocks in
ascending-smallest-member order, coalitions by ascending bit mask and
partitions in lexicographic restricted-growth-string (RGS) order.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache

ZERO = Fraction(0)


class RefGame:
    """A game as generated: ``labels`` and ``rows[i][j]`` = v_i(j)."""

    def __init__(self, labels, rows):
        self.labels = list(labels)
        self.n = len(labels)
        self.rows = rows
        self.index = {lab: i for i, lab in enumerate(labels)}
        self._scaled = None

    @classmethod
    def from_values(cls, labels, values, default=ZERO):
        n = len(labels)
        rows = [[default] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = ZERO
        index = {lab: i for i, lab in enumerate(labels)}
        for (a, b), v in values.items():
            rows[index[a]][index[b]] = Fraction(v)
        return cls(labels, rows)

    def scaled(self):
        """Integer matrix: every value times the lcm of the denominators."""
        if self._scaled is None:
            scale = 1
            for row in self.rows:
                for v in row:
                    scale = scale * v.denominator // math.gcd(scale, v.denominator)
            self._scaled = [[int(v * scale) if v else 0 for v in row] for row in self.rows]
        return self._scaled

    def to_text(self):
        """Game file text with one ``val`` line per nonzero value."""
        lines = ["players " + " ".join(self.labels)]
        for i, row in enumerate(self.rows):
            for j, v in enumerate(row):
                if i != j and v:
                    lines.append(f"val {self.labels[i]} {self.labels[j]} {v}")
        return "\n".join(lines) + "\n"


# --- partitions ---------------------------------------------------------


def canonical(blocks):
    """Blocks as sorted tuples, ordered by smallest member."""
    return sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0])


def partition_text(game, blocks):
    return "".join(" ".join(game.labels[p] for p in b) + "\n" for b in canonical(blocks))


def parse_blocks(game, lines):
    """Label lines to canonical blocks; None unless they partition the players."""
    blocks = []
    seen = set()
    for line in lines:
        members = line.split()
        if not members or any(lab not in game.index for lab in members):
            return None
        block = [game.index[lab] for lab in members]
        if seen.intersection(block) or len(set(block)) != len(block):
            return None
        seen.update(block)
        blocks.append(block)
    if len(seen) != game.n:
        return None
    return canonical(blocks)


def rgs_of(blocks, n):
    rgs = [0] * n
    for k, block in enumerate(canonical(blocks)):
        for p in block:
            rgs[p] = k
    return rgs


@lru_cache(maxsize=None)
def _completions(remaining, top):
    """Number of RGS tails of length ``remaining`` after a prefix whose max is ``top``."""
    if remaining == 0:
        return 1
    return top * _completions(remaining - 1, top) + _completions(remaining - 1, top + 1)


def bell(n):
    return _completions(n - 1, 1) if n else 1


def rgs_rank(rgs):
    """Zero-based position of ``rgs`` in lexicographic RGS order."""
    n = len(rgs)
    rank = 0
    top = 0  # max(rgs[:i]) + 1
    for i in range(1, n):
        top = max(top, rgs[i - 1] + 1)
        for smaller in range(rgs[i]):
            rank += _completions(n - 1 - i, max(top, smaller + 1))
    return rank


def all_rgs(n):
    """Restricted growth strings of length ``n`` in lexicographic order."""
    a = [0] * n

    def extend(i, top):
        if i == n:
            yield tuple(a)
            return
        for v in range(top + 1):
            a[i] = v
            yield from extend(i + 1, max(top, v + 1))

    if n:
        a[0] = 0
        yield from extend(1, 1)


def rgs_blocks(rgs):
    blocks = [[] for _ in range(max(rgs) + 1)]
    for p, b in enumerate(rgs):
        blocks[b].append(p)
    return blocks


# --- utilities and deviations -------------------------------------------


def block_sums(game, p, block_of, nblocks):
    """Player ``p``'s exact value for each block (its own value excluded)."""
    sums = [ZERO] * nblocks
    for j, v in enumerate(game.rows[p]):
        if v and j != p:
            sums[block_of[j]] += v
    return sums


def find_deviation(game, blocks, concept):
    """First (player, target block index or None) deviation, or None.

    ``concept`` is ``ns``, ``is``, ``cis`` or ``ir``; IR reports the first
    player worse off than alone, moving to a new singleton.
    """
    blocks = canonical(blocks)
    block_of = {p: k for k, b in enumerate(blocks) for p in b}
    rows = game.rows
    admission = concept in ("is", "cis")
    release = concept == "cis"
    for p in range(game.n):
        sums = block_sums(game, p, block_of, len(blocks))
        src = block_of[p]
        cur = sums[src]
        if concept == "ir":
            if cur < 0:
                return p, None
            continue
        if release and any(rows[j][p] > 0 for j in blocks[src] if j != p):
            continue
        for k, tgt in enumerate(blocks):
            if k == src or sums[k] <= cur:
                continue
            if admission and any(rows[j][p] < 0 for j in tgt):
                continue
            return p, k
        if cur < 0:
            return p, None
    return None


def render_deviation(game, blocks, dev):
    if dev is None:
        return "stable\n"
    p, k = dev
    target = "" if k is None else " ".join(game.labels[q] for q in canonical(blocks)[k])
    return f"move {game.labels[p]} -> {target}".rstrip() + "\n"


# --- coalition scans ----------------------------------------------------


def harmless_breakoff(scaled, blocks, members):
    """No player left behind loses value it had from the leaving members."""
    for block in blocks:
        gone = [q for q in block if q in members]
        if not gone:
            continue
        for j in block:
            if j not in members and sum(scaled[j][q] for q in gone) > 0:
                return False
    return True


def utilities(scaled, blocks):
    cur = [0] * len(scaled)
    for b in blocks:
        for p in b:
            cur[p] = sum(scaled[p][j] for j in b)
    return cur


def first_witness_mask(scaled, blocks, concept):
    """Smallest ``core``/``strict-core``/``csc`` witness mask, or None.

    Players are decided from the highest index down, leaving a player out
    before taking it in, so complete coalitions come in ascending mask
    order. A branch is cut once a member cannot reach its current utility
    even with every positive value among the undecided players.
    """
    n = len(scaled)
    cur = utilities(scaled, blocks)
    strict = concept == "core"  # every member strictly better
    # room[i][p]: the positive values player i has for players below p
    room = []
    for row in scaled:
        acc = [0]
        for v in row:
            acc.append(acc[-1] + max(v, 0))
        room.append(acc)
    members = []
    sums = [0] * n

    def hopeless(p):
        for i in members:
            best = sums[i] + room[i][p]
            if best < cur[i] or (strict and best == cur[i]):
                return True
        return False

    def witness():
        if not members or any(sums[i] < cur[i] for i in members):
            return False
        if not any(sums[i] > cur[i] for i in members):
            return False
        if strict and any(sums[i] == cur[i] for i in members):
            return False
        return concept != "csc" or harmless_breakoff(scaled, blocks, set(members))

    def search(p):  # players >= p are decided
        if hopeless(p):
            return None
        if p == 0:
            return mask_of(members) if witness() else None
        p -= 1
        found = search(p)
        if found is not None:
            return found
        row = scaled[p]
        for i in members:
            sums[i] += scaled[i][p]
        sums[p] = sum(row[j] for j in members)
        members.append(p)
        found = search(p)
        members.pop()
        for i in members:
            sums[i] -= scaled[i][p]
        return found

    return search(n)


def mask_of(members):
    return sum(1 << i for i in members)


def render_coalition(game, mask):
    if mask is None:
        return "stable\n"
    return "blocking " + " ".join(game.labels[i] for i in range(game.n) if mask >> i & 1) + "\n"


# --- partition searches -------------------------------------------------


def first_stable_partition(scaled, strict):
    """First core (or strict-core) stable partition in RGS order, or None."""
    concept = "strict-core" if strict else "core"
    for rgs in all_rgs(len(scaled)):
        blocks = rgs_blocks(rgs)
        if first_witness_mask(scaled, blocks, concept) is None:
            return blocks
    return None


def first_pareto_improvement(scaled, blocks):
    n = len(scaled)
    base = utilities(scaled, blocks)
    for rgs in all_rgs(n):
        cand = rgs_blocks(rgs)
        us = utilities(scaled, cand)
        if all(u >= b for u, b in zip(us, base)) and us != base:
            return cand
    return None


# --- CIS construction ---------------------------------------------------


def replay_trace(game, lines):
    """Blocks a ``solve-cis --trace`` listing builds, or None if inconsistent."""
    coalitions = []
    placed = set()

    def place(lab, k):
        p = game.index.get(lab)
        if p is None or p in placed or not 1 <= k <= len(coalitions):
            return False
        placed.add(p)
        coalitions[k - 1].append(p)
        return True

    for line in lines:
        tok = line.split()
        if not tok:
            return None
        if tok[0] == "leader" and len(tok) == 3:
            coalitions.append([])
            ok = int(tok[2]) == len(coalitions) and place(tok[1], len(coalitions))
        elif tok[0] == "helpers" and len(tok) >= 3:
            ok = all(place(lab, int(tok[1])) for lab in tok[2:])
        elif tok[0] in ("needed", "latecomer") and len(tok) == 3:
            ok = place(tok[1], int(tok[2]))
        else:
            ok = False
        if not ok:
            return None
    return canonical(coalitions) if len(placed) == game.n else None


def reference_cis(game, seed=None):
    """The documented CIS construction: (canonical blocks, trace text).

    Players are picked lowest index first, or in ``random.Random(seed)``
    shuffle order. A picked player joins the earliest-created coalition
    that beats the value of its friends in the pool and whose members are
    all indifferent to it (a latecomer); otherwise it leads a new coalition
    with those friends. Then the lowest-index remaining player that no
    member dislikes and some member likes is absorbed, until none is left.
    The absorption keeps per-player veto and like flags, updated as each
    member joins.
    """
    n = game.n
    scaled = game.scaled()
    out = [{j: v for j, v in enumerate(row) if v} for row in scaled]
    inc = [set() for _ in range(n)]
    for i in range(n):
        for j in out[i]:
            inc[j].add(i)
    order = list(range(n))
    if seed is not None:
        random.Random(seed).shuffle(order)
    coalition_of = {}
    coalitions = []
    lines = []
    for a in order:
        if a in coalition_of:
            continue
        best = sum(v for j, v in out[a].items() if v > 0 and j not in coalition_of)
        worth = {}
        for j, v in out[a].items():
            if j in coalition_of:
                worth[coalition_of[j]] = worth.get(coalition_of[j], 0) + v
        vetoed = {coalition_of[b] for b in inc[a] if b in coalition_of}
        z = -1
        for k in sorted(worth):
            if best < worth[k] and k not in vetoed:
                best, z = worth[k], k
        if z >= 0:
            joined = [a]
            lines.append(f"latecomer {game.labels[a]} {z + 1}")
        else:
            z = len(coalitions)
            coalitions.append([])
            helpers = sorted(j for j, v in out[a].items() if v > 0 and j not in coalition_of)
            joined = [a] + helpers
            lines.append(f"leader {game.labels[a]} {z + 1}")
            if helpers:
                lines.append(f"helpers {z + 1} " + " ".join(game.labels[j] for j in helpers))
        members = coalitions[z]
        veto, liked = set(), set()
        for i in members:
            for j, v in out[i].items():
                (liked if v > 0 else veto).add(j)
        while joined:
            for i in joined:
                members.append(i)
                coalition_of[i] = z
                for j, v in out[i].items():
                    (liked if v > 0 else veto).add(j)
            ready = [j for j in liked if j not in veto and j not in coalition_of]
            if not ready:
                break
            joined = [min(ready)]
            lines.append(f"needed {game.labels[joined[0]]} {z + 1}")
    return canonical(coalitions), "".join(line + "\n" for line in lines)
