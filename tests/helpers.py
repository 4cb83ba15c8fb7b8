"""Shared brute-force references for the test suite.

Every reference here is written in the most obviously-correct way
(no vectorisation, no pruning) so that disagreement with the library
always indicts the library.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.strings.types import INF


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
