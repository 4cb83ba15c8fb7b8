"""Exact edit distance (Levenshtein) kernels.

``levenshtein`` is the NumPy row-vectorised Wagner–Fischer DP: the classic
left-to-right dependency of a DP row is eliminated with the prefix-minimum
substitution ``u[j] = cur[j] - j`` (insertions add exactly 1 per column, so
``cur[j] = min_k (t[k] + (j - k))`` becomes a running minimum of
``t[k] - k``), which turns each row into a handful of whole-row NumPy
operations.  ``levenshtein_script`` additionally recovers one optimal
edit script, used by the examples and by tests that validate transformation
costs.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..mpc.accounting import add_work, charge
from .types import StringLike, as_array

__all__ = ["levenshtein", "levenshtein_last_row", "levenshtein_script",
           "hamming"]

#: pattern length above which the bit-parallel backend takes over (the
#: NumPy row loop iterates over the pattern; Myers iterates over the
#: text with ⌈m/64⌉-word steps — measured crossover ≈ 64-100)
_BITPARALLEL_MIN_M = 96


def levenshtein_last_row(a: StringLike, b: StringLike) -> np.ndarray:
    """Return the final Wagner–Fischer DP row.

    Entry ``j`` of the result is ``ed(a, b[:j])``.  This is the shared
    engine behind :func:`levenshtein` and the fitting-alignment kernels.

    The work ledger charges ``max(m,1)·max(n,1)`` cells whichever path
    runs (the goldens pin that figure), but only the NumPy row loop is
    charged as kernel ``wf_row``: an empty side runs no loop, and a
    Myers-dispatched call is charged as ``bitparallel`` by its own scan.
    """
    A, B = as_array(a), as_array(b)
    m, n = len(A), len(B)
    row = np.arange(n + 1, dtype=np.int64)
    if m == 0 or n == 0:
        add_work(max(m, 1) * max(n, 1))
        return row if m == 0 else np.array([m], dtype=np.int64)
    if m >= _BITPARALLEL_MIN_M and n >= 8:
        # long patterns: Myers' bit-parallel scan beats the row loop
        from .bitparallel import myers_last_row
        add_work(m * n)
        return myers_last_row(A, B)
    offsets = np.arange(n + 1, dtype=np.int64)
    with charge("wf_row", 1, m * n):
        for i in range(1, m + 1):
            mismatch = (B != A[i - 1]).astype(np.int64)
            # t[j] (for j = 1..n): best of substitute / delete-from-a.
            t = np.minimum(row[:-1] + mismatch, row[1:] + 1)
            # Resolve the insert (left) dependency with a running minimum.
            u = np.empty(n + 1, dtype=np.int64)
            u[0] = i
            u[1:] = t - offsets[1:]
            np.minimum.accumulate(u, out=u)
            row = u + offsets
    return row


def levenshtein(a: StringLike, b: StringLike) -> int:
    """Exact edit distance between *a* and *b* (unit costs).

    Runs in ``O(|a|·|b|)`` abstract work and ``O(|a|·|b| / simd)`` time
    thanks to row vectorisation.

    >>> levenshtein("elephant", "relevant")
    3
    """
    return int(levenshtein_last_row(a, b)[-1])


def hamming(a: StringLike, b: StringLike) -> int:
    """Number of mismatching positions (requires equal lengths)."""
    A, B = as_array(a), as_array(b)
    if len(A) != len(B):
        raise ValueError("hamming distance requires equal-length strings")
    with charge("hamming", 1, len(A)):
        return int(np.count_nonzero(A != B))


def levenshtein_script(a: StringLike, b: StringLike
                       ) -> Tuple[int, List[Tuple[str, int, int]]]:
    """Edit distance plus one optimal edit script.

    Returns ``(distance, ops)`` where each op is ``(kind, i, j)`` with
    ``kind`` in ``{"insert", "delete", "substitute"}`` and ``i`` / ``j``
    0-based positions in *a* / *b*.  Keeps the full ``O(m·n)`` table, so
    use only for modest inputs (examples, tests).
    """
    A, B = as_array(a), as_array(b)
    m, n = len(A), len(B)
    d = np.zeros((m + 1, n + 1), dtype=np.int64)
    d[0, :] = np.arange(n + 1)
    d[:, 0] = np.arange(m + 1)
    offsets = np.arange(n + 1, dtype=np.int64)
    with charge("script", 1, max(m, 1) * max(n, 1)):
        for i in range(1, m + 1):
            mismatch = (B != A[i - 1]).astype(np.int64)
            t = np.minimum(d[i - 1, :-1] + mismatch, d[i - 1, 1:] + 1)
            u = np.empty(n + 1, dtype=np.int64)
            u[0] = i
            u[1:] = t - offsets[1:]
            np.minimum.accumulate(u, out=u)
            d[i] = u + offsets
    ops: List[Tuple[str, int, int]] = []
    i, j = m, n
    while i > 0 or j > 0:
        if i > 0 and j > 0 and A[i - 1] == B[j - 1] \
                and d[i, j] == d[i - 1, j - 1]:
            i, j = i - 1, j - 1
        elif i > 0 and j > 0 and d[i, j] == d[i - 1, j - 1] + 1:
            ops.append(("substitute", i - 1, j - 1))
            i, j = i - 1, j - 1
        elif i > 0 and d[i, j] == d[i - 1, j] + 1:
            ops.append(("delete", i - 1, j))
            i = i - 1
        else:
            ops.append(("insert", i, j - 1))
            j = j - 1
    ops.reverse()
    return int(d[m, n]), ops
