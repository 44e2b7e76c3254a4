"""Deterministic enumeration orders used by the exhaustive searches.

Coalitions are enumerated by ascending characteristic-mask value (bit ``i``
set means player ``i`` is a member). Set partitions are enumerated in
lexicographic restricted-growth-string order; the first string (all zeros)
is the grand coalition.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple


def subset_masks(n: int) -> range:
    """All nonempty subsets of ``range(n)`` in ascending mask order."""
    return range(1, 1 << n)


def partitions_rgs(n: int) -> Iterator[Tuple[int, ...]]:
    """Restricted growth strings of length ``n`` in lexicographic order.

    ``a[0] == 0`` and ``a[i] <= max(a[:i]) + 1``; each string encodes the set
    partition that puts players with equal entries in the same block.
    """
    if n <= 0:
        return
    a = [0] * n
    while True:
        yield tuple(a)
        # prefix maxima: pm[i] = max(a[:i])
        pm = [0] * n
        cur = 0
        for j in range(1, n):
            cur = max(cur, a[j - 1])
            pm[j] = cur
        for i in range(n - 1, 0, -1):
            if a[i] <= pm[i]:
                a[i] += 1
                for j in range(i + 1, n):
                    a[j] = 0
                break
        else:
            return


def rgs_blocks(rgs: Tuple[int, ...]) -> List[List[int]]:
    blocks: List[List[int]] = [[] for _ in range(max(rgs) + 1)]
    for player, b in enumerate(rgs):
        blocks[b].append(player)
    return blocks
