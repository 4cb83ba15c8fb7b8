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
  point set, all rows in one loop over the points' diagonal runs
  (:func:`diagonal_runs`: maximal stretches with ``Δi = Δp = 1``, Myers'
  "snakes").  Only a run's head gathers over its chain predecessors;
  its other members follow with one ``minimum.accumulate`` (chain) or
  ``cumsum`` (LIS) over the run's columns, since along a run
  ``preds(j+1) = preds(j) ∪ {j}`` and every gap grows by one.  Runs are
  not split at window starts: a start that cuts a run leaves its in-set
  members as a suffix, which both vector steps handle.  Both tables
  walk one :func:`run_links` (the run bounds plus the heads'
  :func:`predecessors` and gap costs), which the machine's `lulam`
  walks too.
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

__all__ = ["diagonal_runs", "predecessors", "run_links", "runs",
           "lis_table", "chain_table", "banded_values_batch",
           "np_banded_value"]


# ---------------------------------------------------------------------------
# Chain-DP tables over many window starts, one step per diagonal run

#: :func:`run_links` of a point set: ``(bounds, preds, gaps)``, the run
#: bounds and, per run head, its :func:`predecessors` and their gaps.
Links = Tuple[np.ndarray, List[np.ndarray], List[np.ndarray]]


def diagonal_runs(i_pts: np.ndarray, p_pts: np.ndarray) -> np.ndarray:
    """Bounds of the diagonal runs of a point set sorted by ``i``: run
    ``r`` is points ``[bounds[r], bounds[r+1])``, a maximal stretch of
    consecutive points with ``Δi = Δp = 1`` (``bounds[-1] = c``)."""
    if len(i_pts) == 0:
        return np.zeros(1, dtype=np.int64)
    step = (np.diff(i_pts) == 1) & (np.diff(p_pts) == 1)
    return np.flatnonzero(np.concatenate(([True], ~step, [True])))


def predecessors(i_pts: np.ndarray, p_pts: np.ndarray, heads: np.ndarray
                 ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Per match point ``j`` of *heads* (points sorted by ``i``): its
    chain predecessors, the points ``k < j`` with ``p_k < p_j`` in
    ascending order, and their gaps ``max(i_j - i_k, p_j - p_k) - 1``,
    the cost of the unmatched run between ``k`` and ``j``; one
    ``(heads × c)`` comparison gives both lists."""
    c = len(p_pts)
    row, k = np.nonzero((p_pts[heads, None] > p_pts)
                        & (np.arange(c) < heads[:, None]))
    j = heads[row]
    gaps = np.maximum(i_pts[j] - i_pts[k], p_pts[j] - p_pts[k]) - 1
    cuts = np.searchsorted(row, np.arange(len(heads) + 1)).tolist()
    pieces = list(zip(cuts[:-1], cuts[1:]))
    return [k[a:b] for a, b in pieces], [gaps[a:b] for a, b in pieces]


def run_links(i_pts: np.ndarray, p_pts: np.ndarray) -> Links:
    """The :func:`diagonal_runs` of a point set and the
    :func:`predecessors` of their heads.

    Along a run the tables need no links past the head: for consecutive
    members ``j`` and ``j+1``, ``preds(j+1) = preds(j) ∪ {j}``, each
    gap to ``j+1`` is one more than the gap to ``j``, and the gap from
    ``j`` is 0.
    """
    bounds = diagonal_runs(i_pts, p_pts)
    return (bounds, *predecessors(i_pts, p_pts, bounds[:-1]))


def runs(links: Links):
    """``(head, end, preds, gaps)`` per run ``[head, end)`` of *links*."""
    bounds, preds, gaps = links
    return zip(bounds[:-1].tolist(), bounds[1:].tolist(), preds, gaps)


def lis_table(i_pts: np.ndarray, p_pts: np.ndarray, starts: np.ndarray,
              links: Optional[Links] = None) -> np.ndarray:
    """``L[row, j]``: longest increasing chain of the point set
    ``{p >= starts[row]}`` ending at point ``j`` (0 outside the set;
    points sorted by ``i``).  *links* are the :func:`run_links` of the
    points, computed here when not given.

    A chain ending at ``j`` only uses points with ``p < p_j``, so the
    LIS of any window ``[start, ep)`` is the largest ``L[row, j]`` with
    ``p_j < ep``.  Starts with the same rank among the sorted ``p``
    select the same point set, so one row is computed per rank.  Only a
    run's head takes the max over its predecessors: every later member
    ``j+1`` has ``L[j+1] = L[j] + [j+1 in the set]`` (a start that cuts
    the run leaves its in-set members as a suffix), one ``cumsum``.
    """
    p_rank = np.argsort(np.argsort(p_pts))
    ranks, row = np.unique(np.searchsorted(np.sort(p_pts), starts),
                           return_inverse=True)
    # Chains of one point; outside points stay 0, since all their
    # predecessors are outside too.
    L = (p_rank >= ranks[:, None]).astype(np.int64)
    for head, end, pred, _ in runs(run_links(i_pts, p_pts)
                                   if links is None else links):
        if len(pred):
            L[:, head] += L[:, pred].max(axis=1)
        if end - head > 1:
            np.cumsum(L[:, head:end], axis=1, out=L[:, head:end])
    return L[row]


def chain_table(i_pts: np.ndarray, p_pts: np.ndarray, starts: np.ndarray,
                links: Optional[Links] = None) -> np.ndarray:
    """``D[row, j]``: cheapest alignment of the pattern prefix
    ``[0, i_j]`` against the text ``[starts[row], p_j]`` whose last match
    is point ``j`` (``INF`` outside the point set ``{p >= starts[row]}``).
    *links* are the :func:`run_links` of the points, computed here when
    not given.

    Row ``row`` is the sparse chain DP of every window starting at
    ``starts[row]`` at once: a window ``[start, ep)`` contains all
    predecessors of each of its points, so its ``D`` entries are this
    row's, masked to ``p_j < ep``.  All rows advance together, one
    diagonal run at a time: the head takes the min over its
    predecessors, and every later member ``j+1`` has ``D[j+1] =
    min(D[j+1], D[j])``, one ``minimum.accumulate`` over the run.
    """
    # Chains of one point; outside points stay INF, since all their
    # predecessors are outside too.
    D = np.where(p_pts >= starts[:, None],
                 np.maximum(i_pts, p_pts - starts[:, None]), INF)
    for head, end, pred, gap in runs(run_links(i_pts, p_pts)
                                     if links is None else links):
        if len(pred):
            np.minimum(D[:, head], (D[:, pred] + gap).min(axis=1),
                       out=D[:, head])
        if end - head > 1:
            np.minimum.accumulate(D[:, head:end], axis=1,
                                  out=D[:, head:end])
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
