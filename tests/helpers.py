"""Shared brute-force references for the test suite.

Every reference here is written in the most obviously-correct way
(no vectorisation, no pruning) so that disagreement with the library
always indicts the library.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.strings.types import INF
from repro.workloads.strings import random_string


def brute_edit_distance(a: Sequence[int], b: Sequence[int]) -> int:
    """Textbook O(m·n) Wagner–Fischer, Python lists only."""
    m, n = len(a), len(b)
    d = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        d[i][0] = i
    for j in range(n + 1):
        d[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            d[i][j] = min(d[i - 1][j] + 1,
                          d[i][j - 1] + 1,
                          d[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
    return d[m][n]


def brute_fitting(pattern: Sequence[int], text: Sequence[int]
                  ) -> Tuple[int, int, int]:
    """Minimum ed(pattern, text[g:h]) over all windows, by enumeration."""
    n = len(text)
    best = (0, 0, len(pattern))
    for g in range(n + 1):
        for h in range(g, n + 1):
            d = brute_edit_distance(pattern, list(text)[g:h])
            if d < best[2]:
                best = (g, h, d)
    return best


def brute_lis_length(seq: Sequence[int]) -> int:
    """O(n²) LIS via per-prefix maxima."""
    n = len(seq)
    if n == 0:
        return 0
    best = [1] * n
    for i in range(n):
        for j in range(i):
            if seq[j] < seq[i]:
                best[i] = max(best[i], best[j] + 1)
    return max(best)


def brute_lcs_length(a: Sequence[int], b: Sequence[int]) -> int:
    """O(m·n) LCS."""
    m, n = len(a), len(b)
    d = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if a[i - 1] == b[j - 1]:
                d[i][j] = d[i - 1][j - 1] + 1
            else:
                d[i][j] = max(d[i - 1][j], d[i][j - 1])
    return d[m][n]


def random_duplicate_free_pair(rng, max_len: int = 12,
                               universe: int = 30
                               ) -> Tuple[List[int], List[int]]:
    """Two random duplicate-free integer strings (not necessarily the
    same symbol set)."""
    m = int(rng.integers(0, max_len + 1))
    n = int(rng.integers(0, max_len + 1))
    a = rng.permutation(universe)[:m].tolist()
    b = rng.permutation(universe)[:n].tolist()
    return a, b


def repetitive_string(n: int, period: int, sigma: int = 4, seed=0
                      ) -> np.ndarray:
    """Periodic string — the adversarial case for block decompositions.

    Every window looks alike, so candidate-substring filtering gets no
    help from content.
    """
    if period < 1:
        raise ValueError("period must be at least 1")
    base = random_string(period, sigma, seed)
    return np.tile(base, -(-n // period))[:n]


def scan_local_ulam(i_pts: np.ndarray, p_pts: np.ndarray, m: int
                    ) -> Tuple[int, int, int]:
    """`lulam` ``(gamma, kappa, dist)`` from match points by a scan over
    every earlier point, predecessors or not: ``p_k > p_j`` is masked to
    ``INF``, each point's parent is the first cheapest earlier point if
    it beats starting the chain there."""
    c = len(i_pts)
    if c == 0:
        return 0, 0, m
    D = np.empty(c, dtype=np.int64)
    parent = np.full(c, -1, dtype=np.int64)
    for j in range(c):
        D[j] = i_pts[j]
        if j > 0:
            di = i_pts[j] - i_pts[:j] - 1
            dp = p_pts[j] - p_pts[:j] - 1
            cand = D[:j] + np.maximum(di, np.where(dp < 0, INF, dp))
            k = int(cand.argmin())
            if int(cand[k]) < int(D[j]):
                D[j] = int(cand[k])
                parent[j] = k
    totals = D + (m - 1 - i_pts)
    j_best = int(totals.argmin())
    dist = int(totals[j_best])
    if dist >= m:
        return 0, 0, m
    j = j_best
    while parent[j] != -1:
        j = int(parent[j])
    return int(p_pts[j]), int(p_pts[j_best]) + 1, dist


def pointwise_predecessors(i_pts: np.ndarray, p_pts: np.ndarray
                           ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Per point ``j``: the points ``k < j`` with ``p_k < p_j`` and their
    gaps ``max(i_j - i_k, p_j - p_k) - 1``, by a Python double loop."""
    preds, gaps = [], []
    for j in range(len(p_pts)):
        ks = [k for k in range(j) if p_pts[k] < p_pts[j]]
        preds.append(np.array(ks, dtype=np.int64))
        gaps.append(np.array([max(i_pts[j] - i_pts[k], p_pts[j] - p_pts[k])
                              - 1 for k in ks], dtype=np.int64))
    return preds, gaps


def pointwise_chain_table(i_pts: np.ndarray, p_pts: np.ndarray,
                          starts: np.ndarray) -> np.ndarray:
    """``D[row, j]`` of the chain DP, one column step per match point: a
    gather-min over every predecessor of every point."""
    D = np.where(p_pts >= starts[:, None],
                 np.maximum(i_pts, p_pts - starts[:, None]), INF)
    for j, (pred, gap) in enumerate(zip(*pointwise_predecessors(i_pts,
                                                                p_pts))):
        if len(pred):
            np.minimum(D[:, j], (D[:, pred] + gap).min(axis=1), out=D[:, j])
    return D


def pointwise_lis_table(i_pts: np.ndarray, p_pts: np.ndarray,
                        starts: np.ndarray) -> np.ndarray:
    """``L[row, j]``: LIS of ``{p >= starts[row]}`` ending at ``j``, one
    column step per match point (one row per start)."""
    L = (p_pts >= starts[:, None]).astype(np.int64)
    for j, pred in enumerate(pointwise_predecessors(i_pts, p_pts)[0]):
        if len(pred):
            L[:, j] += L[:, pred].max(axis=1)
    return L


def pointwise_read_off(D: np.ndarray, i_pts: np.ndarray, p_pts: np.ndarray,
                       m: int, sp: np.ndarray, ep: np.ndarray,
                       row: np.ndarray) -> np.ndarray:
    """Distance of window ``w`` from chain-table row ``row[w]``, over
    every match point: ``min(max(m, n), min_{p_j < ep} D[j] +
    max(m-1-i_j, ep-1-p_j))``."""
    last = ep[:, None] - 1
    cost = D[row] + np.maximum(m - 1 - i_pts, last - p_pts)
    return np.minimum(np.maximum(m, ep - sp), np.where(
        p_pts <= last, cost, INF).min(axis=1, initial=INF))


def pointwise_local_ulam(i_pts: np.ndarray, p_pts: np.ndarray, m: int
                         ) -> Tuple[int, int, int]:
    """`lulam` ``(gamma, kappa, dist)`` walking every match point's
    predecessors; each point's parent is its first cheapest predecessor
    if it beats starting the chain there."""
    c = len(i_pts)
    if c == 0:
        return 0, 0, m
    D = i_pts.astype(np.int64)
    parent = np.full(c, -1, dtype=np.int64)
    for j, (pred, gap) in enumerate(zip(*pointwise_predecessors(i_pts,
                                                                p_pts))):
        if len(pred):
            cand = D[pred] + gap
            k = int(cand.argmin())
            if cand[k] < D[j]:
                D[j] = cand[k]
                parent[j] = pred[k]
    totals = D + (m - 1 - i_pts)
    j_best = int(totals.argmin())
    dist = int(totals[j_best])
    if dist >= m:
        return 0, 0, m
    j = j_best
    while parent[j] != -1:
        j = int(parent[j])
    return int(p_pts[j]), int(p_pts[j_best]) + 1, dist


def two_pass_selection(lower: np.ndarray, upper: np.ndarray,
                       dists: np.ndarray, top_k) -> np.ndarray:
    """The windows the top-k pruning of ``ulam_windows`` evaluates, from
    every window's LIS bounds and exact distance, by set operations."""
    index = np.arange(len(lower))
    if not top_k or len(index) <= top_k:
        return index
    tau = np.partition(upper, top_k - 1)[top_k - 1]
    survivors = np.flatnonzero(lower <= tau)
    if len(survivors) > top_k:
        index = survivors
    if len(index) > top_k:
        first = index[np.argsort(upper[index], kind="stable")[:top_k]]
        rest = np.setdiff1d(index, first)
        near = rest[lower[rest] <= dists[first].max()]
        if len(near):
            index = np.union1d(first, near)
    return index


def per_start_candidate_windows(start: int, block_size: int,
                                offsets: Sequence[int], eps_prime: float,
                                n_t: int) -> List[Tuple[int, int]]:
    """Candidate windows of one start, one offset at a time: lengths
    ``B + off`` clipped to ``[0, B/ε']``, ends clipped to the text,
    distinct ends in first-occurrence order."""
    max_len = int(block_size / eps_prime)
    ends = [min(start + block_size + off, n_t) for off in offsets
            if 0 <= block_size + off <= max_len]
    return [(start, end) for end in dict.fromkeys(ends) if end >= start]


def _oracle_ticks(lo, hi, gap, n_t):
    """The multiples of ``gap[r]`` in ``[lo[r], hi[r]] ∩ [0, n_t]`` per
    row ``r``, as ``(first, count)``."""
    lo = np.maximum(np.ceil(lo), 0).astype(np.int64)
    hi = np.minimum(np.floor(hi), n_t).astype(np.int64)
    first = (lo + gap - 1) // gap * gap
    return first, np.maximum((hi - first) // gap + 1, 0)


def grid_keys_oracle(rows, n_t: int) -> np.ndarray:
    """Window keys ``sp·(n_t+1) + ep`` of Algorithm 1's grid rows
    ``(start anchors, end anchors, radius, gap, shift)`` by generate,
    then sort: every anchor's box cell by cell (its start ticks × its
    end ticks with ``end + shift >= sp``, ``ep = min(end + shift,
    n_t)``), in row, anchor, start, end order, then each key's first
    occurrence by ``np.unique``."""
    sizes = [len(row[0]) for row in rows]
    start, end = (np.concatenate([row[c] for row in rows]) for c in (0, 1))
    radius, gap, shift = (np.repeat([row[c] for row in rows], sizes)
                          for c in (2, 3, 4))
    sp0, n_sp = _oracle_ticks(start - radius, start + radius, gap, n_t)
    end0, n_end = _oracle_ticks(end - radius, end + radius, gap, n_t)
    cells = n_sp * n_end
    box = np.repeat(np.arange(len(cells)), cells)
    a, b = np.divmod(np.arange(len(box))
                     - np.repeat(np.cumsum(cells) - cells, cells), n_end[box])
    sp = sp0[box] + gap[box] * a
    ep = end0[box] + gap[box] * b + shift[box]
    keep = ep >= sp
    keys = sp[keep] * (n_t + 1) + np.minimum(ep[keep], n_t)
    return keys[np.sort(np.unique(keys, return_index=True)[1])]


def ulam_n512_block_payloads() -> List[dict]:
    """The Algorithm 1 block payloads of the ``ulam-n512`` benchmark's
    seed-1 query pool: 8 ``perm_pair(512, 64, "mixed")`` pairs drawn
    from ``default_rng([1, k])``, each solved once with the engine
    defaults (``x = 0.25``, ``eps = 0.5``) and its query seed; 5 blocks
    a query."""
    import repro.ulam.driver as driver
    from repro.ulam import mpc_ulam, run_block_machine
    from repro.workloads.permutations import planted_pair

    payloads: List[dict] = []

    def capture(payload):
        payloads.append(dict(payload))
        return run_block_machine(payload)

    real = driver.run_block_machine
    driver.run_block_machine = capture
    try:
        for k in range(8):
            s, t, _ = planted_pair(512, 64, seed=np.random.default_rng([1, k]),
                                   style="mixed")
            seed = int(np.random.SeedSequence([1, k]).generate_state(1)[0]
                       % (1 << 31))
            mpc_ulam(s, t, x=0.25, eps=0.5, seed=seed, data_plane=False)
    finally:
        driver.run_block_machine = real
    return payloads
