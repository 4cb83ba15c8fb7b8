"""NumPy DP kernels behind the metered sparse-Ulam and banded entry points.

Under Theorems 4 and 9 every machine runs many small exact DPs on
windows.  The two hottest ``strings.dp_cells`` kernels are:

* the sparse Ulam chain DP behind ``ulam_sparse``.  An Algorithm 1
  machine evaluates thousands of windows ``[sp, ep)`` of one text
  against one block, but only a few hundred distinct starts ``sp``.  A
  chain ending at match point ``j`` only uses points with ``p < p_j``,
  so every window with start ``sp`` reads the same prefix row:
  :func:`chain_table` (chain costs) computes one row per distinct start
  and :func:`lis_table` (LIS ending at each point) one per distinct
  point set, all rows in one column loop.  Both walk one
  :func:`predecessors` list of each point's chain predecessors and
  their gap costs, which the machine's `lulam` walks too.
* the Ukkonen band behind ``banded``: :func:`banded_values_batch` runs
  one pair on the scalar row-vectorised kernel
  (:func:`np_banded_value`) and two or more on the padded batch kernel,
  a handful of whole-matrix NumPy operations per DP step.  Both return
  identical values, so the choice only moves wall-clock.

Metering stays in the callers, :mod:`repro.strings.ulam` and
:mod:`repro.strings.banded`, each kernel call charged once by a
:class:`~repro.mpc.accounting.charge` bracket.

This module must not import other ``repro.strings`` kernel modules
(they import it), nor metrics/accounting.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .types import INF

__all__ = ["predecessors", "lis_table", "chain_table",
           "banded_values_batch", "np_banded_value"]


# ---------------------------------------------------------------------------
# Chain-DP tables over many window starts

#: :func:`predecessors` of a point set: ``(preds, gaps)``, one array each
#: per point.
Links = Tuple[List[np.ndarray], List[np.ndarray]]


def predecessors(i_pts: np.ndarray, p_pts: np.ndarray) -> Links:
    """Per match point ``j`` (points sorted by ``i``): its chain
    predecessors, the points ``k < j`` with ``p_k < p_j`` in ascending
    order, and their gaps ``max(i_j - i_k, p_j - p_k) - 1``, the cost of
    the unmatched run between ``k`` and ``j``; one ``(c × c)``
    comparison gives both lists."""
    c = len(p_pts)
    j, k = np.nonzero(np.tril(p_pts[:, None] > p_pts, -1))
    gaps = np.maximum(i_pts[j] - i_pts[k], p_pts[j] - p_pts[k]) - 1
    cuts = np.searchsorted(j, np.arange(c + 1)).tolist()
    pieces = list(zip(cuts[:-1], cuts[1:]))
    return [k[a:b] for a, b in pieces], [gaps[a:b] for a, b in pieces]


def lis_table(i_pts: np.ndarray, p_pts: np.ndarray, starts: np.ndarray,
              links: Optional[Links] = None) -> np.ndarray:
    """``L[row, j]``: longest increasing chain of the point set
    ``{p >= starts[row]}`` ending at point ``j`` (0 outside the set;
    points sorted by ``i``).  *links* are the :func:`predecessors` of
    the points, computed here when not given.

    A chain ending at ``j`` only uses points with ``p < p_j``, so the
    LIS of any window ``[start, ep)`` is the largest ``L[row, j]`` with
    ``p_j < ep``.  Starts with the same rank among the sorted ``p``
    select the same point set, so one row is computed per rank.
    """
    p_rank = np.argsort(np.argsort(p_pts))
    ranks, row = np.unique(np.searchsorted(np.sort(p_pts), starts),
                           return_inverse=True)
    # Chains of one point; outside points stay 0, since all their
    # predecessors are outside too.
    L = (p_rank >= ranks[:, None]).astype(np.int64)
    preds, _ = predecessors(i_pts, p_pts) if links is None else links
    for j, pred in enumerate(preds):
        if len(pred):
            L[:, j] += L[:, pred].max(axis=1)
    return L[row]


def chain_table(i_pts: np.ndarray, p_pts: np.ndarray, starts: np.ndarray,
                links: Optional[Links] = None) -> np.ndarray:
    """``D[row, j]``: cheapest alignment of the pattern prefix
    ``[0, i_j]`` against the text ``[starts[row], p_j]`` whose last match
    is point ``j`` (``INF`` outside the point set ``{p >= starts[row]}``).
    *links* are the :func:`predecessors` of the points, computed here
    when not given.

    Row ``row`` is the sparse chain DP of every window starting at
    ``starts[row]`` at once: a window ``[start, ep)`` contains all
    predecessors of each of its points, so its ``D`` entries are this
    row's, masked to ``p_j < ep``.  All rows advance together, one
    column per match point.
    """
    # Chains of one point; outside points stay INF, since all their
    # predecessors are outside too.
    D = np.where(p_pts >= starts[:, None],
                 np.maximum(i_pts, p_pts - starts[:, None]), INF)
    preds, gaps = predecessors(i_pts, p_pts) if links is None else links
    for j, (pred, gap) in enumerate(zip(preds, gaps)):
        if len(pred):
            np.minimum(D[:, j], (D[:, pred] + gap).min(axis=1), out=D[:, j])
    return D


# ---------------------------------------------------------------------------
# Banded DP: the scalar kernel for one pair, the batch kernel for more

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
