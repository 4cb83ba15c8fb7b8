"""Ulam distance kernels (edit distance of duplicate-free strings).

For duplicate-free strings, an optimal alignment is determined by the
increasing chain of matched (kept) characters; the cost between two
consecutive matches with ``a`` unmatched pattern characters and ``b``
unmatched window characters is exactly ``max(a, b)`` (substitute
``min(a, b)`` pairs, then delete/insert the imbalance).  Because every
character occurs at most once, the candidate match set has at most
``min(m, n)`` points, so the whole distance collapses to a *sparse chain
DP over match points* — this is the engine behind both the per-candidate
Ulam distances and the local Ulam distance (`lulam`) of Algorithm 1, and
it is what lets a machine work from *positions only* (§3.1: "the only
information needed from s̄ ... is the location of each character").

Kernels
-------
* :func:`ulam_distance` — exact, general validation path (dense DP).
* :func:`ulam_indel` — insertion/deletion-only Ulam distance in
  ``O(n log n)`` via LIS.
* :func:`ulam_windows` — exact distances from one pattern to many
  windows of one text, the Algorithm 1 machine's workload: one chain-DP
  row per distinct window start (:mod:`repro.strings.native`), computed
  one diagonal run at a time, charged as one certified banded pass per
  window.  A window reads off only the run tails below its end ``ep``
  plus the point at ``ep - 1`` (the one run that can cross ``ep``):
  along a run the chain cost does not increase and the end term falls.
  Given the machine's per-block
  ``top_k``, it builds chain rows only for windows whose LIS lower bound
  ``max(m, n) - LIS`` does not exceed the ``top_k``-th smallest upper
  bound ``min(m + n - 2·LIS, max(m, n))``, and reads off only those
  that can still beat the exact distances of the ``top_k`` windows with
  the smallest upper bounds; the charge stays per window, over every
  window.
* :func:`ulam_auto` — one window of :func:`ulam_windows`.
* :func:`local_ulam_from_matches` / :func:`local_ulam` — free-window
  variant implementing the `lulam` contract ``(γ, κ, d*)`` of Lemma 1;
  it walks only run heads, and every other run member copies its
  head's cost with the previous point as its parent.

A block machine computes its points'
:func:`~repro.strings.native.run_links` (diagonal runs, and their heads'
chain predecessors and gap costs) once and hands them to both `lulam`
and :func:`ulam_windows`.  The ``ulam_sparse`` charge stays per point
(``c²`` cells): the paper-facing figure, not the loops executed.

Every sparse chain DP is charged once, by a
:class:`~repro.mpc.accounting.charge` bracket under the kernel name
``ulam_sparse``.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..mpc.accounting import add_work, charge
from . import native
from .edit_distance import levenshtein
from .lcs import lcs_length_duplicate_free, position_map
from .types import INF, StringLike, as_array

__all__ = [
    "is_duplicate_free", "check_duplicate_free", "ulam_distance",
    "ulam_indel", "match_points", "ulam_windows",
    "ulam_auto", "local_ulam_from_matches", "local_ulam",
]


def is_duplicate_free(s: StringLike) -> bool:
    """True iff no symbol occurs twice in *s*."""
    arr = as_array(s)
    add_work(len(arr))
    return len(np.unique(arr)) == len(arr)


def check_duplicate_free(s: StringLike, name: str = "string") -> np.ndarray:
    """Validate and normalise a duplicate-free string, raising otherwise."""
    arr = as_array(s)
    if not is_duplicate_free(arr):
        raise ValueError(f"{name} contains repeated symbols; Ulam distance "
                         "is only defined for duplicate-free strings")
    return arr


def ulam_distance(s: StringLike, t: StringLike) -> int:
    """Exact Ulam distance (= edit distance of duplicate-free strings).

    Validation/reference path: dense ``O(m·n)`` DP.  The MPC algorithm
    never calls this on long strings — it uses the sparse kernels below.
    """
    S = check_duplicate_free(s, "s")
    T = check_duplicate_free(t, "t")
    return levenshtein(S, T)


def ulam_indel(s: StringLike, t: StringLike) -> int:
    """Insertion/deletion-only Ulam distance, ``|s| + |t| - 2·LCS``.

    This is the relaxed notion used by Naumovitz et al. (§1); it is within
    a factor 2 of :func:`ulam_distance` and computable in ``O(n log n)``.
    """
    S = check_duplicate_free(s, "s")
    T = check_duplicate_free(t, "t")
    return len(S) + len(T) - 2 * lcs_length_duplicate_free(S, T)


# ----------------------------------------------------------------------
# Sparse match-point machinery
# ----------------------------------------------------------------------

def match_points(pattern: StringLike, text: StringLike
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Match points ``(i, p)`` with ``pattern[i] == text[p]``, sorted by i.

    Both inputs must be duplicate-free, so each pattern index matches at
    most one text index.
    """
    P = check_duplicate_free(pattern, "pattern")
    pos_t = position_map(text)
    idx: List[int] = []
    pos: List[int] = []
    for i, v in enumerate(P.tolist()):
        p = pos_t.get(v)
        if p is not None:
            idx.append(i)
            pos.append(p)
    add_work(len(P))
    return (np.asarray(idx, dtype=np.int64),
            np.asarray(pos, dtype=np.int64))


#: Cap on the ``windows × runs`` temporaries of :func:`_read_off`:
#: windows are read off in blocks of this many cells.
_BLOCK_CELLS = 1 << 16


def _row_blocks(rows: int, cols: int) -> Iterator[slice]:
    step = max(1, _BLOCK_CELLS // max(cols, 1))
    for lo in range(0, rows, step):
        yield slice(lo, lo + step)


def _read_off(D: np.ndarray, i_pts: np.ndarray, p_pts: np.ndarray, m: int,
              sp: np.ndarray, ep: np.ndarray, row: np.ndarray,
              tails: np.ndarray) -> np.ndarray:
    """Exact distance of every window ``text[sp[w]:ep[w]]`` from row
    ``row[w]`` of a :func:`~repro.strings.native.chain_table` whose start
    is ``sp[w]``: ``min(max(m, n), min_{p_j < ep} D[j] + max(m-1-i_j,
    ep-1-p_j))``.

    *tails* are the last points of the points'
    :func:`~repro.strings.native.diagonal_runs`.  Along a run ``D`` does
    not increase and the end term falls by one per step, so a run's best
    point below ``ep`` is its last one there: its tail if ``p < ep``,
    else the point at ``ep - 1``.  Text positions are distinct, so at
    most one run crosses ``ep``; each window reads the run tails with
    ``p < ep`` plus the point at ``ep - 1``, if there is one.
    """
    out = np.maximum(m, ep - sp)
    i_t, p_t, D_t = i_pts[tails], p_pts[tails], D[:, tails]
    for blk in _row_blocks(len(sp), len(tails)):
        last = ep[blk, None] - 1
        cost = D_t[row[blk]] + np.maximum(m - 1 - i_t, last - p_t)
        out[blk] = np.minimum(out[blk], np.where(
            p_t <= last, cost, INF).min(axis=1, initial=INF))
    if len(p_pts):
        order = np.argsort(p_pts)
        k = np.minimum(np.searchsorted(p_pts[order], ep - 1),
                       len(p_pts) - 1)
        at = np.flatnonzero(p_pts[order[k]] == ep - 1)
        j = order[k[at]]
        out[at] = np.minimum(out[at], D[row[at], j] + (m - 1 - i_pts[j]))
    return out


def _band_counts(i_pts: np.ndarray, p_pts: np.ndarray, sp: np.ndarray,
                 ep: np.ndarray, band: np.ndarray) -> np.ndarray:
    """Per window ``w``, the match points with ``sp ≤ p < ep`` and
    ``|p - i - sp| ≤ band``: an orthogonal range count in (text
    position, diagonal), read off a ``(c+1)²`` prefix table ``F[t, r]``
    (among the first ``t`` points in text order, those of diagonal rank
    below ``r``) by inclusion-exclusion."""
    c = len(p_pts)
    order = np.argsort(p_pts, kind="stable")
    diag = (p_pts - i_pts)[order]
    by_diag = np.argsort(diag, kind="stable")
    rank = np.empty(c, dtype=np.int64)
    rank[by_diag] = np.arange(c)
    F = np.zeros((c + 1, c + 1), dtype=np.int32)
    F[np.arange(1, c + 1), rank + 1] = 1
    np.cumsum(F, axis=0, out=F)
    np.cumsum(F, axis=1, out=F)
    p_sorted = p_pts[order]
    lo_p = np.searchsorted(p_sorted, sp)
    hi_p = np.searchsorted(p_sorted, ep)
    d_sorted = diag[by_diag]
    lo_d = np.searchsorted(d_sorted, sp - band)
    hi_d = np.searchsorted(d_sorted, sp + band, side="right")
    return (F[hi_p, hi_d].astype(np.int64) - F[lo_p, hi_d]
            - F[hi_p, lo_d] + F[lo_p, lo_d])


def ulam_windows(i_pts: np.ndarray, p_pts: np.ndarray, m: int,
                 sp: Sequence[int], ep: Sequence[int],
                 top_k: Optional[int] = None,
                 links: Optional[native.Links] = None
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Exact Ulam distances from a pattern to many windows of one text.

    ``(i_pts, p_pts)`` are the pattern's match points, sorted by ``i``;
    window ``w`` is ``text[sp[w]:ep[w]]``.  Returns ``(index, dists)``:
    the evaluated windows, in input order, and their exact distances.

    Each window's charge equals :func:`ulam_auto` on its points re-based
    to ``sp[w]``: ``add_work`` of its point count (the LIS prologue) and
    one ``ulam_sparse`` call of ``c_f² + 1`` cells for the ``c_f``
    points inside the band ``max(m + n - 2·LIS, |m - n|, 1)``.  Those
    cells are the paper-facing per-window charge, taken over **every**
    window, evaluated or not; they are not the loops executed.  One row
    of :func:`~repro.strings.native.lis_table` per distinct start gives
    every window its LIS, and one row of
    :func:`~repro.strings.native.chain_table` per distinct evaluated
    start serves all its windows; both tables walk the points' diagonal
    runs, *links* (:func:`~repro.strings.native.run_links`, computed
    here when not given), and each window reads one entry per run.  The
    band never moves a value: it is at least the indel distance, hence
    at least the true one.

    With *top_k*, only windows that can rank among the *top_k* smallest
    distances are evaluated.  Each window's LIS bounds its distance,
    ``max(m, n) - LIS ≤ ulam ≤ min(m + n - 2·LIS, max(m, n))``.  A first
    pass keeps the windows whose lower bound is at most ``τ₁``, the
    *top_k*-th smallest upper bound, and builds the chain rows of their
    starts.  A second pass reads off the *top_k* survivors with the
    smallest upper bounds; with ``τ₂ ≤ τ₁`` the largest of their exact
    distances, it reads off only the other survivors whose lower bound
    is at most ``τ₂``.  Every dropped window is strictly worse than
    *top_k* evaluated ones.  Windows are dropped only when more than
    *top_k* remain (otherwise every first-pass survivor is read off), so
    a per-block :meth:`~repro.chain.TupleTable.capped` of the evaluated
    windows equals that of all of them, rows and order alike (``capped``
    leaves a table of at most *top_k* rows unsorted).  Without *top_k*
    every window is evaluated.
    """
    sp = np.asarray(sp, dtype=np.int64)
    ep = np.asarray(ep, dtype=np.int64)
    if len(sp) == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    starts, row = np.unique(sp, return_inverse=True)
    if links is None:
        links = native.run_links(i_pts, p_pts)
    tails = links[0][1:] - 1
    n = ep - sp
    # LIS prologue: per-window LIS and point counts from prefix maxima
    # of the per-start LIS rows, taken in text order.
    order = np.argsort(p_pts, kind="stable")
    p_sorted = p_pts[order]
    below_ep = np.searchsorted(p_sorted, ep)
    add_work(int((below_ep - np.searchsorted(p_sorted, sp)).sum()))
    lis = np.zeros((len(starts), len(i_pts) + 1), dtype=np.int64)
    np.maximum.accumulate(
        native.lis_table(i_pts, p_pts, starts, links)[:, order],
        axis=1, out=lis[:, 1:])
    lis_w = lis[row, below_ep]
    band = np.maximum(np.maximum(m + n - 2 * lis_w, np.abs(m - n)), 1)
    kept = _band_counts(i_pts, p_pts, sp, ep, band)
    index = np.arange(len(sp))
    longer = np.maximum(m, n)
    lower, upper = longer - lis_w, np.minimum(m + n - 2 * lis_w, longer)
    if top_k and len(sp) > top_k:
        tau = np.partition(upper, top_k - 1)[top_k - 1]
        survivors = np.flatnonzero(lower <= tau)
        if len(survivors) > top_k:
            index = survivors
    # Chain-DP rows only for the starts of first-pass survivors.
    used = np.zeros(len(starts), dtype=bool)
    used[row[index]] = True
    rank = np.cumsum(used) - 1
    dists = np.zeros(len(sp), dtype=np.int64)
    with charge("ulam_sparse", len(sp), int((kept * kept).sum()) + len(sp)):
        D = native.chain_table(i_pts, p_pts, starts[used], links)

        def read(w: np.ndarray) -> np.ndarray:
            dists[w] = _read_off(D, i_pts, p_pts, m, sp[w], ep[w],
                                 rank[row[w]], tails)
            return dists[w]

        rest = index
        if top_k and len(index) > top_k:
            first = np.zeros(len(index), dtype=bool)
            first[np.argsort(upper[index], kind="stable")[:top_k]] = True
            near = ~first & (lower[index] <= read(index[first]).max())
            if near.any():
                index, rest = index[first | near], index[near]
            else:
                rest = index[~first]
        read(rest)
    return index, dists[index]


def ulam_auto(i_pts: np.ndarray, p_pts: np.ndarray, m: int, n: int) -> int:
    """Exact sparse Ulam distance in one banded pass.

    The insertion/deletion-only distance ``m + n - 2·LIS(p)`` is an upper
    bound on the true distance (its transformation is valid), and any
    alignment of cost ``d`` keeps its matches within the ``d``-diagonal
    band; therefore a single banded run with ``band = indel ≥ d`` is
    certified exact, with output-sensitive pruning for similar pairs.
    One window, ``[0, n)``, of :func:`ulam_windows`.
    """
    return int(ulam_windows(i_pts, p_pts, m, [0], [n])[1][0])


def local_ulam_from_matches(i_pts: np.ndarray, p_pts: np.ndarray, m: int,
                            links: Optional[native.Links] = None
                            ) -> Tuple[int, int, int]:
    """`lulam` from match points: best window of the text for the pattern.

    Returns ``(gamma, kappa, dist)`` — a half-open text window
    ``[gamma, kappa)`` minimising the Ulam distance to the pattern.  Free
    window endpoints make the chain DP's boundary terms one-sided: the
    prefix before the first kept match costs ``i`` pattern deletions only
    (start the window at the first match) and symmetrically for the
    suffix.  With no usable match the optimum is the empty window at cost
    ``m``.

    ``i_pts`` must be strictly increasing (sorted by pattern index).
    *links* are the points' :func:`~repro.strings.native.run_links`,
    computed here when not given.  Each point's parent is its first
    cheapest predecessor, if that beats starting the chain there.  Only
    run heads are walked: every later member of a diagonal run has its
    head's cost, and its parent is the point before it.
    """
    c = len(i_pts)
    with charge("ulam_sparse", 1, c * c + 1):
        if c == 0:
            return 0, 0, m
        if links is None:
            links = native.run_links(i_pts, p_pts)
        D = i_pts.astype(np.int64)
        parent = np.full(c, -1, dtype=np.int64)
        for head, end, pred, gap in native.runs(links):
            if len(pred):
                cand = D[pred] + gap
                k = int(cand.argmin())
                if cand[k] < D[head]:
                    D[head] = cand[k]
                    parent[head] = pred[k]
            if end - head > 1:
                D[head + 1:end] = D[head]
        totals = D + (m - 1 - i_pts)
        j_best = int(totals.argmin())
        dist = int(totals[j_best])
        if dist >= m:
            return 0, 0, m
        # Walk back to the first match of the optimal chain, one run at
        # a time: a run member's parents lead back to its head.
        bounds = links[0]
        head_of = np.repeat(bounds[:-1], np.diff(bounds))
        j = int(head_of[j_best])
        while parent[j] != -1:
            j = int(head_of[parent[j]])
        gamma = int(p_pts[j])
        kappa = int(p_pts[j_best]) + 1
        return gamma, kappa, dist


def local_ulam(pattern: StringLike, text: StringLike
               ) -> Tuple[int, int, int]:
    """`lulam(pattern, text)`: best window of *text* plus its distance.

    Both strings must be duplicate-free.  Equivalent to
    ``min over windows w of text of ulam_distance(pattern, w)`` (verified
    against :func:`repro.strings.fitting.fitting_alignment` in the test
    suite), but runs from match points in ``O(c²)`` instead of
    ``O(m·n)``.
    """
    i_pts, p_pts = match_points(pattern, text)
    m = len(as_array(pattern))
    return local_ulam_from_matches(i_pts, p_pts, m)
