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

from ..mpc.accounting import charge
from .types import StringLike, as_array

__all__ = ["lis_length", "lis_indices", "longest_increasing_subsequence"]


def _cells(n: int) -> int:
    """Charged work of one patience sort over *n* values."""
    return n * max(int(np.ceil(np.log2(n))), 1) if n else 1


def lis_length(seq: StringLike, strict: bool = True) -> int:
    """Length of the longest (strictly, by default) increasing subsequence.

    >>> lis_length([3, 1, 4, 1, 5, 9, 2, 6])
    4
    """
    arr = as_array(seq)
    find = bisect_left if strict else bisect_right
    tails: List[int] = []
    with charge("lis", 1, _cells(len(arr))):
        for v in arr.tolist():
            pos = find(tails, v)
            if pos == len(tails):
                tails.append(v)
            else:
                tails[pos] = v
    return len(tails)


def lis_indices(seq: StringLike, strict: bool = True) -> List[int]:
    """Indices (0-based, increasing) of one longest increasing subsequence.

    Patience sorting with parent pointers; ``O(n log n)`` work, ``O(n)``
    memory.
    """
    arr = as_array(seq)
    n = len(arr)
    find = bisect_left if strict else bisect_right
    tails: List[int] = []          # tail values per pile
    tail_idx: List[int] = []       # index of that tail element
    parent = [-1] * n
    out: List[int] = []
    with charge("lis", 1, _cells(n)):
        for i, v in enumerate(arr.tolist()):
            pos = find(tails, v)
            if pos == len(tails):
                tails.append(v)
                tail_idx.append(i)
            else:
                tails[pos] = v
                tail_idx[pos] = i
            parent[i] = tail_idx[pos - 1] if pos > 0 else -1
        i = tail_idx[-1] if tails else -1
        while i != -1:
            out.append(i)
            i = parent[i]
    out.reverse()
    return out


def longest_increasing_subsequence(seq: StringLike,
                                   strict: bool = True) -> List[int]:
    """Values of one longest increasing subsequence of *seq*."""
    arr = as_array(seq)
    return [int(arr[i]) for i in lis_indices(arr, strict=strict)]
