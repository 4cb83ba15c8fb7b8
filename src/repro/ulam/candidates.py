"""Algorithm 1 — candidate-substring construction for one block of ``s``.

Each machine receives one block ``s[ℓ_i, r_i)`` together with the position
of every block character inside ``s̄`` (for duplicate-free strings that is
the *only* information about ``s̄`` a machine needs — §3.1), and outputs
``⟨[ℓ_i, r_i), [sp, ep), ulam⟩`` tuples for a set of candidate windows
that, with high probability, contains an approximately optimal one
(Lemma 3):

* ``d* = lulam`` shortcut — the optimal local window itself is always a
  candidate (and the only one needed when ``d* = 0``).
* small ``u_i < B/2`` — grid of ``G_i``-spaced start/end points within
  ``2û_i`` of the lulam window (Lemma 1).
* large ``u_i ≥ B/2`` — a ``θ``-sampled hitting set of block positions;
  each hit anchors a window via its position in ``s̄`` (Lemma 2), searched
  on the same ``G_i`` grid within ``û_i``.

A hit's window depends only on its diagonal ``q − hit``, so each
large-``u_i`` guess keeps one grid row per distinct diagonal (its first
hit's).  Every guess's rows, each with its own gap, radius and end
shift, are enumerated in one pass, deduplicated in first-occurrence
order, cut to ``max_candidates_per_block`` and handed to one
:func:`~repro.strings.ulam.ulam_windows` call with the block's
``top_k``.  It shares one chain-DP row per distinct window start and
evaluates only windows whose LIS bounds let them reach the top-k
(Lemma 3 keeps only the best few per block), so the capped tuples are
those of evaluating every window; the ledger still charges one
certified banded sparse DP per window, evaluated or not.  `lulam` and
the window kernel walk one chain predecessor/gap list per block.

All coordinates are 0-based half-open (the paper is 1-based closed).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..chain import Tuple5, TupleTable
from ..metrics import inc, observe
from ..mpc.accounting import add_work, record_metric
from ..mpc.shm import SharedSlice
from ..strings.native import predecessors
from ..strings.ulam import local_ulam_from_matches, ulam_windows
from .config import UlamConfig

__all__ = ["BlockPayload", "make_block_payload", "make_block_part",
           "make_round1_broadcast", "run_block_machine", "CandidateTuple"]

#: ``(block_lo, block_hi, win_lo, win_hi, distance)`` — all half-open.
CandidateTuple = Tuple5

#: Machine payload for one block (plain dict: picklable + sizeof-able).
BlockPayload = Dict[str, object]


def make_round1_broadcast(n_t: int, eps_prime: float, u_guesses: List[int],
                          theta: float, config: UlamConfig) -> BlockPayload:
    """The block-independent half of the round-1 payload.

    Every block machine needs the same target length, distance guesses and
    Algorithm-1 constants; the driver ships them once over the broadcast
    channel instead of replicating them into every block payload.
    """
    return {
        "n_t": int(n_t),
        "eps_prime": float(eps_prime),
        "u_guesses": [int(u) for u in u_guesses],
        "theta": float(theta),
        "max_hits": config.max_hits,
        "max_candidates": config.max_candidates_per_block,
        "top_k": config.phase2_top_k,
        "local_radius_factor": int(config.local_radius_factor),
        "hit_radius_factor": int(config.hit_radius_factor),
    }


def make_block_part(lo: int, hi: int, positions: np.ndarray,
                    seed: int) -> BlockPayload:
    """The block-specific half of the round-1 payload.

    ``positions[j]`` is the index of ``s[lo + j]`` inside ``s̄`` or ``-1``
    if absent — either the array itself or a data-plane
    :class:`~repro.mpc.shm.SharedSlice` standing for it (resolved back
    into the array inside the executing machine).
    """
    if not isinstance(positions, SharedSlice):
        positions = np.asarray(positions, dtype=np.int64)
    return {
        "lo": int(lo),
        "hi": int(hi),
        "positions": positions,
        "seed": int(seed),
    }


def make_block_payload(lo: int, hi: int, positions: np.ndarray, n_t: int,
                       eps_prime: float, u_guesses: List[int],
                       theta: float, seed: int,
                       config: UlamConfig) -> BlockPayload:
    """Assemble the full round-1 payload for block ``s[lo:hi)``.

    Exactly the merge the machine sees when the driver runs the round
    with :func:`make_round1_broadcast` as the broadcast blob and
    :func:`make_block_part` as the payload.  Word size is
    ``O(B + |u_guesses|)`` — within the ``Õ_ε(n^(1-x))`` machine memory.
    """
    return {**make_round1_broadcast(n_t, eps_prime, u_guesses, theta, config),
            **make_block_part(lo, hi, positions, seed)}


#: Cap on the cells of one :func:`_window_keys` call: grid rows are
#: enumerated in consecutive chunks of about this many cells.
_GRID_CELLS = 1 << 16


def _ticks(lo, hi, gap: np.ndarray, n_t: int
           ) -> Tuple[np.ndarray, np.ndarray]:
    """Algorithm 1's "indices divisible by G_i": the multiples of
    ``gap[r]`` in ``[lo[r], hi[r]] ∩ [0, n_t]`` for each row ``r``, as
    ``(first, count)`` arrays."""
    lo = np.maximum(np.ceil(lo), 0).astype(np.int64)
    hi = np.minimum(np.floor(hi), n_t).astype(np.int64)
    first = (lo + gap - 1) // gap * gap
    return first, np.maximum((hi - first) // gap + 1, 0)


def _window_keys(grid: np.ndarray, n_t: int) -> np.ndarray:
    """Windows of the grid rows ``(sp0, n_sp, end0, n_end, gap, shift)``:
    ``[sp, min(end + shift, n_t))`` for every start tick ``sp = sp0 +
    gap·a`` (``a < n_sp``) and end tick ``end = end0 + gap·b`` (``b <
    n_end``) of the same row with ``end + shift >= sp``, as keys
    ``sp·(n_t+1) + ep`` in row, start, end order."""
    sp0, n_sp, end0, n_end, gap, shift = grid
    cells = n_sp * n_end
    row = np.repeat(np.arange(len(cells)), cells)
    a, b = np.divmod(np.arange(len(row))
                     - np.repeat(np.cumsum(cells) - cells, cells), n_end[row])
    sp = sp0[row] + gap[row] * a
    ep = end0[row] + gap[row] * b + shift[row]
    keep = ep >= sp
    return sp[keep] * (n_t + 1) + np.minimum(ep[keep], n_t)


def _grid_keys(rows: List[Tuple[np.ndarray, np.ndarray, float, int, int]],
               n_t: int) -> np.ndarray:
    """Window keys of the grid rows ``(start anchors, end anchors,
    radius, gap, shift)``, one row per anchor pair, in row order: one
    :func:`_ticks` per axis over every row, then :func:`_window_keys`
    over consecutive chunks of about ``_GRID_CELLS`` cells."""
    sizes = [len(row[0]) for row in rows]
    start, end = (np.concatenate([row[c] for row in rows]) for c in (0, 1))
    radius, gap, shift = (np.repeat([row[c] for row in rows], sizes)
                          for c in (2, 3, 4))
    grid = np.stack([*_ticks(start - radius, start + radius, gap, n_t),
                     *_ticks(end - radius, end + radius, gap, n_t),
                     gap, shift])
    cum = np.cumsum(grid[1] * grid[3])
    cuts = np.searchsorted(cum, np.arange(_GRID_CELLS, cum[-1], _GRID_CELLS),
                           side="right")
    return np.concatenate([_window_keys(chunk, n_t)
                           for chunk in np.split(grid, cuts, axis=1)])


def run_block_machine(payload: BlockPayload) -> TupleTable:
    """Execute Algorithm 1 for one block; returns its candidate tuples."""
    lo, hi = payload["lo"], payload["hi"]
    positions: np.ndarray = payload["positions"]
    n_t: int = payload["n_t"]
    eps_prime: float = payload["eps_prime"]
    B = hi - lo

    present = positions >= 0
    i_pts = np.nonzero(present)[0].astype(np.int64)   # block-relative i
    p_pts = positions[present].astype(np.int64)       # absolute in s̄

    # One chain predecessor/gap list serves lulam and every window.
    links = predecessors(i_pts, p_pts)
    # lulam(s[lo:hi), s̄): optimal local window (γ, κ) and distance d*.
    gamma, kappa, d_star = local_ulam_from_matches(i_pts, p_pts, B, links)
    lulam = (np.array([gamma]), np.array([kappa]))

    # Grid rows (start anchors, end anchors, radius, gap, end shift), in
    # generation order.
    # Line 2-3: the lulam optimum is always a candidate (exact when d*=0).
    rows = [(*lulam, 0.0, 1, 0)]

    rng = np.random.default_rng(payload["seed"])
    local_rf = payload["local_radius_factor"]
    hit_rf = payload["hit_radius_factor"]

    for u in payload["u_guesses"]:
        u_hat = (1.0 + eps_prime) * u
        gap = max(int(eps_prime * u), 1)
        if u < B / 2:
            # Small-distance branch (Lemma 1): search near the lulam window.
            rows.append((*lulam, local_rf * u_hat, gap, 0))
        else:
            # Large-distance branch (Lemma 2): hitting-set anchors.
            coins = rng.random(B)
            hits = np.nonzero(coins < payload["theta"])[0]
            max_hits = payload["max_hits"]
            if max_hits is not None and len(hits) > max_hits:
                hits = rng.choice(hits, size=max_hits, replace=False)
            hits = np.sort(hits)
            q = positions[hits]
            g2 = (q - hits)[q >= 0]      # anchor-implied window start
            # Hits on one diagonal anchor the same grid; its first hit
            # already yields every window, in the same order.
            g2 = g2[np.sort(np.unique(g2, return_index=True)[1])]
            # End ticks are last indices; the window is half-open (+1).
            rows.append((g2, g2 + (B - 1), hit_rf * u_hat, gap, 1))

    # Distinct windows in first-occurrence order, capped.
    keys = _grid_keys(rows, n_t)
    first = np.sort(np.unique(keys, return_index=True)[1])
    sp, ep = np.divmod(keys[first[:payload["max_candidates"]]], n_t + 1)

    # Distance evaluation: sparse chain DP per window from positions only.
    add_work(len(sp))
    record_metric(inc, "ulam.candidate_windows", len(sp))
    record_metric(observe, "ulam.candidates_per_block", len(sp))

    # Only windows that can make the block's top-k are evaluated; the
    # cap below ships the same tuples as on every window.
    top_k = payload["top_k"]
    index, dists = ulam_windows(i_pts, p_pts, B, sp, ep, top_k=top_k,
                                links=links)
    # Smallest (distance, length) first; ties keep generation order.
    tuples = TupleTable.from_columns(lo, hi, sp[index], ep[index],
                                     dists).capped(top_k)
    record_metric(inc, "ulam.candidate_tuples", len(tuples))
    return tuples
