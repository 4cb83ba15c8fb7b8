"""NumPy DP kernels behind the metered sparse-Ulam and banded entry points.

Under Theorems 4 and 9 every machine runs many small exact DPs on
windows, so the two hottest ``strings.dp_cells`` kernels take their jobs
as lists: :func:`chain_dp_batch` (the sparse Ulam chain DP behind
``ulam_sparse``) and :func:`banded_values_batch` (the Ukkonen band
behind ``banded``).  Each picks its implementation by input size alone:

* one job runs the scalar row-vectorised kernel (:func:`np_chain_dp`,
  :func:`np_banded_value`);
* two or more jobs run the padded batch kernel, which evaluates every
  job as a handful of whole-matrix NumPy operations per DP step.

Both implementations return identical values, so the choice only moves
wall-clock.  Each group is charged once, by the
:class:`~repro.mpc.accounting.charge` bracket in the callers,
:mod:`repro.strings.ulam` and :mod:`repro.strings.banded`.

This module must not import other ``repro.strings`` kernel modules
(they import it), nor metrics/accounting (metering stays in the
callers).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from .types import INF

__all__ = ["chain_dp_batch", "banded_values_batch",
           "np_banded_value", "np_chain_dp"]

#: Up to this many match points the scalar chain DP runs on plain
#: Python lists, which beat NumPy's per-call overhead on tiny arrays.
PY_DP_CUTOFF = 96


# ---------------------------------------------------------------------------
# Scalar kernels (one job)

def np_banded_value(A: np.ndarray, B: np.ndarray, k: int) -> int:
    """Band-constrained DP optimum (may exceed ``k``): row-vectorised.

    Requires ``len(A) > 0``, ``len(B) > 0`` and ``|len(A)-len(B)| <= k``
    (the metered caller handles the early-exit cases).  The value is the cost
    of the best alignment whose path stays within the band — a real
    alignment, hence always an upper bound on the true distance, and
    exact whenever it is ``<= k``.
    """
    m, n = len(A), len(B)
    prev = np.full(n + 1, INF, dtype=np.int64)
    hi0 = min(k, n)
    prev[:hi0 + 1] = np.arange(hi0 + 1)
    for i in range(1, m + 1):
        lo = max(i - k, 0)
        hi = min(i + k, n)
        cur = np.full(n + 1, INF, dtype=np.int64)
        if lo == 0:
            cur[0] = i
            start = 1
        else:
            start = lo
        js = np.arange(start, hi + 1)
        if len(js) > 0:
            mismatch = (B[js - 1] != A[i - 1]).astype(np.int64)
            t = np.minimum(prev[js - 1] + mismatch, prev[js] + 1)
            # running minimum for the left (insert) dependency
            u = t - js
            if start > 0 and cur[start - 1] < INF:
                u[0] = min(u[0], cur[start - 1] - (start - 1))
            np.minimum.accumulate(u, out=u)
            cur[js] = np.minimum(u + js, INF)
        prev = cur
    return int(prev[n])


def np_chain_dp(i_pts: np.ndarray, p_pts: np.ndarray, m: int, n: int,
                py_cutoff: int = PY_DP_CUTOFF) -> int:
    """Scalar sparse chain DP over match points sorted by ``i``.

    Python lists up to *py_cutoff* match points (they beat NumPy's
    per-call overhead on tiny arrays), NumPy per-column slices above.
    """
    c = len(i_pts)
    best = max(m, n)  # empty chain: substitute everything
    if c == 0:
        return best
    if c <= py_cutoff:
        I, P = i_pts.tolist(), p_pts.tolist()
        D = [0] * c
        out = best
        for j in range(c):
            ij, pj = I[j], P[j]
            v = ij if ij > pj else pj
            for k in range(j):
                pk = P[k]
                if pk < pj:
                    di = ij - I[k] - 1
                    dp = pj - pk - 1
                    cand = D[k] + (di if di > dp else dp)
                    if cand < v:
                        v = cand
            D[j] = v
            tail = max(m - 1 - ij, n - 1 - pj)
            if v + tail < out:
                out = v + tail
        return out
    D = np.empty(c, dtype=np.int64)
    for j in range(c):
        D[j] = max(i_pts[j], p_pts[j])
        if j > 0:
            di = i_pts[j] - i_pts[:j] - 1
            dp = p_pts[j] - p_pts[:j] - 1
            # i is strictly increasing already; mask non-increasing p.
            cand = D[:j] + np.maximum(di, np.where(dp < 0, INF, dp))
            D[j] = min(D[j], int(cand.min()))
    tails = np.maximum(m - 1 - i_pts, n - 1 - p_pts)
    return int(min(best, int((D + tails).min())))


# ---------------------------------------------------------------------------
# Padded batch kernels (two or more jobs)

def _np_chain_dp_chunk(jobs: Sequence[Tuple[np.ndarray, np.ndarray,
                                            int, int]],
                       out: np.ndarray, idxs: Sequence[int]) -> None:
    """One padded chunk of the batched chain DP (jobs with similar c)."""
    K = len(idxs)
    cs = np.array([len(jobs[i][0]) for i in idxs], dtype=np.int64)
    ms = np.array([jobs[i][2] for i in idxs], dtype=np.int64)
    ns = np.array([jobs[i][3] for i in idxs], dtype=np.int64)
    C = int(cs.max())
    if C == 0:
        out[list(idxs)] = np.maximum(ms, ns)
        return
    # Pad I with 0 and P with 0: padded columns produce garbage that no
    # real column ever reads (column j only looks left at columns < j of
    # the *same* pair, all real for j < c), and the tail minimisation
    # masks padded columns out.  Padded ``dp`` terms are negative, so the
    # INF mask fires and ``D + INF`` stays far below int64 overflow.
    Ipad = np.zeros((K, C), dtype=np.int64)
    Ppad = np.zeros((K, C), dtype=np.int64)
    for row, i in enumerate(idxs):
        I, P = jobs[i][0], jobs[i][1]
        Ipad[row, :len(I)] = I
        Ppad[row, :len(P)] = P
    D = np.empty((K, C), dtype=np.int64)
    D[:, 0] = np.maximum(Ipad[:, 0], Ppad[:, 0])
    for j in range(1, C):
        di = Ipad[:, j:j + 1] - Ipad[:, :j] - 1
        dp = Ppad[:, j:j + 1] - Ppad[:, :j] - 1
        cand = D[:, :j] + np.maximum(di, np.where(dp < 0, INF, dp))
        D[:, j] = np.minimum(np.maximum(Ipad[:, j], Ppad[:, j]),
                             cand.min(axis=1))
    tails = np.maximum(ms[:, None] - 1 - Ipad, ns[:, None] - 1 - Ppad)
    totals = np.where(np.arange(C)[None, :] < cs[:, None],
                      D + tails, INF)
    out[list(idxs)] = np.minimum(np.maximum(ms, ns), totals.min(axis=1))


def _np_chain_dp_batch(jobs: Sequence[Tuple[np.ndarray, np.ndarray,
                                            int, int]]) -> np.ndarray:
    """Batched sparse chain DP: all jobs in O(C_max) whole-matrix steps.

    Jobs are bucketed by ``bit_length(c)`` so one huge point set does
    not inflate the padded width of hundreds of tiny ones.
    """
    out = np.empty(len(jobs), dtype=np.int64)
    buckets: Dict[int, List[int]] = {}
    for i, job in enumerate(jobs):
        buckets.setdefault(int(len(job[0])).bit_length(), []).append(i)
    for idxs in buckets.values():
        _np_chain_dp_chunk(jobs, out, idxs)
    return out


def _np_banded_values_batch(pairs: Sequence[Tuple[np.ndarray, np.ndarray]],
                            k: int) -> np.ndarray:
    """Band-constrained DP optima for many pairs at one band ``k``.

    Diagonal layout: ``d = j - i + k`` maps each row's band to a fixed
    ``2k+1``-wide lane, so one row step of *every* pair is a handful of
    ``(K, 2k+1)`` NumPy operations.  Every pair must satisfy ``m > 0``,
    ``n > 0`` and ``|m - n| <= k``; returns exactly
    :func:`np_banded_value` per pair.
    """
    K = len(pairs)
    ms = np.array([len(a) for a, _ in pairs], dtype=np.int64)
    ns = np.array([len(b) for _, b in pairs], dtype=np.int64)
    W = 2 * k + 1
    Mmax = int(ms.max())
    Nmax = int(ns.max())
    Apad = np.zeros((K, Mmax), dtype=np.int64)
    # Pad with a value outside any real cell's reach: out-of-range
    # diagonals are INF-masked, so the pad never leaks into results.
    Bpad = np.full((K, max(Nmax, 1)), -1, dtype=np.int64)
    for row, (a, b) in enumerate(pairs):
        Apad[row, :len(a)] = a
        Bpad[row, :len(b)] = b
    d_arr = np.arange(W, dtype=np.int64)
    # Row 0: D[0][j] = j on diagonals d = j + k, INF elsewhere.
    prev = np.where(d_arr >= k, d_arr - k, INF)
    prev = np.broadcast_to(prev, (K, W)).copy()
    prev[d_arr[None, :] - k > ns[:, None]] = INF
    out = np.empty(K, dtype=np.int64)
    dstar = ns - ms + k           # capture diagonal of cell (m, n)
    for i in range(1, Mmax + 1):
        j_arr = i + d_arr - k     # column of diagonal d in this row
        jm1 = np.clip(j_arr - 1, 0, max(Nmax - 1, 0))
        mm = (Bpad[:, jm1] != Apad[:, i - 1][:, None]).astype(np.int64)
        prev_shift = np.empty_like(prev)
        prev_shift[:, :-1] = prev[:, 1:]
        prev_shift[:, -1] = INF
        t = np.minimum(prev + mm, prev_shift + 1)
        oob = (j_arr[None, :] < 0) | (j_arr[None, :] > ns[:, None])
        t[oob | (j_arr[None, :] == 0)] = INF
        if i <= k:
            t[:, k - i] = i       # boundary column D[i][0] = i
        u = t - d_arr[None, :]
        np.minimum.accumulate(u, axis=1, out=u)
        cur = np.minimum(u + d_arr[None, :], INF)
        cur[oob] = INF
        fin = ms == i
        if fin.any():
            out[fin] = cur[fin, dstar[fin]]
        prev = cur
    return out


# ---------------------------------------------------------------------------
# Entry points: the scalar kernel for one job, the batch kernel for more

def chain_dp_batch(jobs: Sequence[Tuple[np.ndarray, np.ndarray,
                                        int, int]]) -> np.ndarray:
    """Sparse chain DP over many jobs ``(i_pts, p_pts, m, n)``.

    Every match point takes part: the metered callers in
    :mod:`repro.strings.ulam` apply any band filter first and charge the
    per-job cells.
    """
    if len(jobs) > 1:
        return _np_chain_dp_batch(jobs)
    return np.array([np_chain_dp(*job) for job in jobs], dtype=np.int64)


def banded_values_batch(pairs: Sequence[Tuple[np.ndarray, np.ndarray]],
                        k: int) -> np.ndarray:
    """Band-constrained DP optima for many pairs at one band ``k``.

    Contract as :func:`np_banded_value` (per pair): ``m, n > 0`` and
    ``|m - n| <= k``; values may exceed ``k`` (the caller thresholds).
    """
    if len(pairs) > 1:
        return _np_banded_values_batch(pairs, k)
    return np.array([np_banded_value(A, B, k) for A, B in pairs],
                    dtype=np.int64)
