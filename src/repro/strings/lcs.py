"""Longest common subsequence of duplicate-free strings.

:func:`lcs_length_duplicate_free` handles strings with no repeated
characters (the Ulam-distance setting), reduced to LIS of the position
mapping in ``O(n log n)`` work.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..mpc.accounting import add_work
from .lis import lis_length
from .types import StringLike, as_array

__all__ = ["lcs_length_duplicate_free", "position_map"]


def position_map(s: StringLike) -> Dict[int, int]:
    """Map symbol → its (unique) position in the duplicate-free string *s*.

    Raises ``ValueError`` if *s* contains a repeated symbol, because every
    caller relies on uniqueness for correctness.
    """
    arr = as_array(s)
    pos: Dict[int, int] = {}
    for i, v in enumerate(arr.tolist()):
        if v in pos:
            raise ValueError(f"symbol {v!r} repeats in a duplicate-free "
                             f"string (positions {pos[v]} and {i})")
        pos[v] = i
    add_work(len(arr))
    return pos


def lcs_length_duplicate_free(a: StringLike, b: StringLike) -> int:
    """LCS length of two duplicate-free strings in ``O(n log n)``.

    Maps each character of *a* to its position in *b*; a common
    subsequence is exactly an increasing subsequence of those positions.
    """
    A = as_array(a)
    pos_b = position_map(b)
    mapped = [pos_b[v] for v in A.tolist() if v in pos_b]
    if len(set(A.tolist())) != len(A):
        raise ValueError("first argument contains repeated symbols")
    return lis_length(np.asarray(mapped, dtype=np.int64)) if mapped else 0
