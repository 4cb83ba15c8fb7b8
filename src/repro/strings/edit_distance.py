"""Exact edit distance (Levenshtein) kernels.

``levenshtein`` and ``levenshtein_last_row`` run Myers' bit-parallel
last-row DP (:mod:`repro.strings.bitparallel`) as a batch of one.
``levenshtein_script`` keeps the full table of the NumPy row-vectorised
Wagner–Fischer DP: the left-to-right dependency of a row is eliminated
with the prefix-minimum substitution ``u[j] = cur[j] - j`` (insertions
add exactly 1 per column, so ``cur[j] = min_k (t[k] + (j - k))`` becomes
a running minimum of ``t[k] - k``), and the table yields one optimal
edit script, used by the examples and by tests that validate
transformation costs.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..mpc.accounting import charge
from .bitparallel import myers_last_rows
from .types import StringLike, as_array

__all__ = ["levenshtein", "levenshtein_last_row", "levenshtein_script"]


def levenshtein_last_row(a: StringLike, b: StringLike) -> np.ndarray:
    """Final DP row, ``j ↦ ed(a, b[:j])``: a batch of one of
    :func:`~repro.strings.myers_last_rows`."""
    return myers_last_rows(a, [b])[0]


def levenshtein(a: StringLike, b: StringLike) -> int:
    """Exact edit distance between *a* and *b* (unit costs).

    Runs in ``O(|a|·|b|)`` abstract work and ``O(|a|·|b| / w)`` time
    with Myers' word-parallel columns.

    >>> levenshtein("elephant", "relevant")
    3
    """
    return int(levenshtein_last_row(a, b)[-1])


def _wf_table(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The full table ``d[i][j] = ed(A[:i], B[:j])``, uncharged."""
    m, n = len(A), len(B)
    d = np.zeros((m + 1, n + 1), dtype=np.int64)
    d[0, :] = np.arange(n + 1)
    d[:, 0] = np.arange(m + 1)
    offsets = np.arange(n + 1, dtype=np.int64)
    for i in range(1, m + 1):
        mismatch = (B != A[i - 1]).astype(np.int64)
        t = np.minimum(d[i - 1, :-1] + mismatch, d[i - 1, 1:] + 1)
        u = np.empty(n + 1, dtype=np.int64)
        u[0] = i
        u[1:] = t - offsets[1:]
        np.minimum.accumulate(u, out=u)
        d[i] = u + offsets
    return d


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
    with charge("script", 1, max(m, 1) * max(n, 1)):
        d = _wf_table(A, B)
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
