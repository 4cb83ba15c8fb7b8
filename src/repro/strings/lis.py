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

__all__ = ["lis_length"]


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
