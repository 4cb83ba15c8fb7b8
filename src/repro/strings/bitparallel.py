"""Myers' bit-parallel edit distance (O(n·⌈m/w⌉) with word-size w).

Myers (JACM 1999) encodes a whole DP column in two bit-vectors of
vertical deltas (+1 / −1) and advances one text character per step with
a dozen word operations; Hyyrö's global-distance variant shifts a carry
bit into the horizontal positive vector (``Ph = (Ph << 1) | 1``), which
realises the ``D[0][j] = j`` boundary.  Python's unbounded integers act
as arbitrary-width words, so the implementation handles any pattern
length in one sweep — the practical effect is a ~word-width constant
factor over the row-vectorised DP for short-to-medium patterns.

Used as a cross-validation oracle for the NumPy kernels and exposed as a
fast exact primitive (benchmark E12 compares throughputs).
"""

from __future__ import annotations

from typing import Dict

from ..mpc.accounting import charge
from .types import StringLike, as_array

__all__ = ["myers_levenshtein", "myers_last_row", "myers_fitting_row"]


def _rows(a: StringLike, b: StringLike, global_carry: bool):
    """Shared engine: per-prefix scores ``D[m][j]`` for ``j = 0..n``.

    ``global_carry=True`` realises ``D[0][j] = j`` (global distance);
    ``False`` realises ``D[0][j] = 0`` (Myers' matching variant — the
    fitting/substring row).
    """
    import numpy as np
    A, B = as_array(a), as_array(b)
    m, n = len(A), len(B)
    out = np.empty(n + 1, dtype=np.int64)
    if m == 0:
        out[:] = np.arange(n + 1) if global_carry else 0
        return out
    mask = (1 << m) - 1
    hibit = 1 << (m - 1)
    peq: Dict[int, int] = {}
    pv = mask
    mv = 0
    score = m
    out[0] = m
    carry = 1 if global_carry else 0
    with charge("bitparallel", 1, max(n, 1) * (1 + m // 64)):
        for i, ch in enumerate(A.tolist()):
            peq[ch] = peq.get(ch, 0) | (1 << i)
        for j, ch in enumerate(B.tolist(), start=1):
            eq = peq.get(ch, 0)
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | (~(xh | pv) & mask)
            mh = pv & xh
            if ph & hibit:
                score += 1
            if mh & hibit:
                score -= 1
            out[j] = score
            ph = ((ph << 1) | carry) & mask
            mh = (mh << 1) & mask
            pv = mh | (~(xv | ph) & mask)
            mv = ph & xv
    return out


def myers_last_row(a: StringLike, b: StringLike):
    """``j ↦ ed(a, b[:j])`` — bit-parallel equivalent of
    :func:`repro.strings.levenshtein_last_row`."""
    return _rows(a, b, global_carry=True)


def myers_fitting_row(a: StringLike, b: StringLike):
    """``j ↦ min over g ≤ j of ed(a, b[g:j])`` — bit-parallel equivalent
    of :func:`repro.strings.fitting_last_row` (Myers' matching mode)."""
    return _rows(a, b, global_carry=False)


def myers_levenshtein(a: StringLike, b: StringLike) -> int:
    """Exact edit distance via Myers' bit-parallel algorithm.

    Equivalent to :func:`repro.strings.levenshtein`; preferred when one
    string is short (the bit-vectors span the *first* argument).
    """
    A, B = as_array(a), as_array(b)
    m, n = len(A), len(B)
    if m == 0 or n == 0:
        return m + n
    mask = (1 << m) - 1
    hibit = 1 << (m - 1)
    peq: Dict[int, int] = {}
    pv = mask          # vertical +1 deltas: D[i][0] = i
    mv = 0
    score = m
    with charge("bitparallel", 1, n * (1 + m // 64)):
        for i, ch in enumerate(A.tolist()):
            peq[ch] = peq.get(ch, 0) | (1 << i)
        for ch in B.tolist():
            eq = peq.get(ch, 0)
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | (~(xh | pv) & mask)
            mh = pv & xh
            if ph & hibit:
                score += 1
            if mh & hibit:
                score -= 1
            ph = ((ph << 1) | 1) & mask   # carry: D[0][j]-D[0][j-1] = +1
            mh = (mh << 1) & mask
            pv = mh | (~(xv | ph) & mask)
            mv = ph & xv
    return score
