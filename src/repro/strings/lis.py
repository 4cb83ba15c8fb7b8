"""Longest increasing subsequence via patience sorting, ``O(n log n)``.

LIS is the dual workhorse of Ulam distance (§1 of the paper: Ulam/LIS are
dual the way edit distance/LCS are): the LCS of two duplicate-free strings
reduces to the LIS of the position mapping, which is how the near-linear
``ulam_indel`` kernel works.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List

import numpy as np

from ..metrics import get_registry
from ..mpc.accounting import add_work
from ..obs.profile import kernel_probe
from .types import StringLike, as_array

__all__ = ["lis_length", "lis_indices", "longest_increasing_subsequence"]

_M_CELLS = get_registry().counter("strings.dp_cells", kernel="lis")
_PROBE = kernel_probe("lis")


def lis_length(seq: StringLike, strict: bool = True) -> int:
    """Length of the longest (strictly, by default) increasing subsequence.

    >>> lis_length([3, 1, 4, 1, 5, 9, 2, 6])
    4
    """
    arr = as_array(seq)
    n = len(arr)
    cells = n * max(int(np.ceil(np.log2(n))), 1) if n else 1
    add_work(cells)
    _M_CELLS.inc(cells)
    t0 = _PROBE.begin()
    find = bisect_left if strict else bisect_right
    tails: List[int] = []
    for v in arr.tolist():
        pos = find(tails, v)
        if pos == len(tails):
            tails.append(v)
        else:
            tails[pos] = v
    _PROBE.end(t0, cells)
    return len(tails)


def lis_indices(seq: StringLike, strict: bool = True) -> List[int]:
    """Indices (0-based, increasing) of one longest increasing subsequence.

    Patience sorting with parent pointers; ``O(n log n)`` work, ``O(n)``
    memory.
    """
    arr = as_array(seq)
    n = len(arr)
    cells = n * max(int(np.ceil(np.log2(n))), 1) if n else 1
    add_work(cells)
    t0 = _PROBE.begin()
    find = bisect_left if strict else bisect_right
    tails: List[int] = []          # tail values per pile
    tail_idx: List[int] = []       # index of that tail element
    parent = [-1] * n
    values = arr.tolist()
    for i, v in enumerate(values):
        pos = find(tails, v)
        if pos == len(tails):
            tails.append(v)
            tail_idx.append(i)
        else:
            tails[pos] = v
            tail_idx[pos] = i
        parent[i] = tail_idx[pos - 1] if pos > 0 else -1
    if not tails:
        _PROBE.end(t0, cells)
        return []
    out: List[int] = []
    i = tail_idx[-1]
    while i != -1:
        out.append(i)
        i = parent[i]
    out.reverse()
    _PROBE.end(t0, cells)
    return out


def longest_increasing_subsequence(seq: StringLike,
                                   strict: bool = True) -> List[int]:
    """Values of one longest increasing subsequence of *seq*."""
    arr = as_array(seq)
    return [int(arr[i]) for i in lis_indices(arr, strict=strict)]
