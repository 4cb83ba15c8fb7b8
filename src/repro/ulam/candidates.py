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
large-``u_i`` guess's grid row has one anchor per distinct diagonal (its
first hit's).  The windows of every guess's row, each row with its own
gap, radius and end shift, are listed in one pass, each distinct window
once, in the order of generating every anchor's box cell by cell: a box
lists only the runs of end ticks that no earlier box is known to have
listed (a hit row's boxes as one union; a lulam row less the earlier
lulam row whose gap divides its own), and one stable sort drops the few
repeats no cut can see.  The list is cut to
``max_candidates_per_block`` and handed to one
:func:`~repro.strings.ulam.ulam_windows` call with the block's
``top_k``.  It shares one chain-DP row per distinct window start and
evaluates only windows whose LIS bounds let them reach the top-k
(Lemma 3 keeps only the best few per block), so the capped tuples are
those of evaluating every window; the ledger still charges one
certified banded sparse DP per window, evaluated or not.  `lulam` and
the window kernel walk the block's match points one diagonal run
(``Δi = Δp = 1``) at a time, from one
:func:`~repro.strings.native.run_links` per block: only run heads need
chain predecessors, and each window reads off one entry per run.

All coordinates are 0-based half-open (the paper is 1-based closed).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
from numpy.random import default_rng

from ..chain import Tuple5, TupleTable
from ..metrics import inc, observe
from ..mpc.accounting import add_work, record_metric
from ..mpc.shm import SharedSlice
from ..strings.native import run_links
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
        # Lemma 1 searches within 2·û_i of the lulam window, Lemma 2
        # within û_i of a hit anchor.
        "local_radius_factor": 2,
        "hit_radius_factor": 1,
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


#: Cap on the cells of one :func:`_window_keys` call: the grid's end
#: runs are expanded in consecutive chunks of about this many cells.
_GRID_CELLS = 1 << 16

#: Past every tick: "no earlier anchor" below or above, or no cut.
_FAR = 1 << 40


def _ticks(lo, hi, gap: np.ndarray, n_t: int
           ) -> Tuple[np.ndarray, np.ndarray]:
    """Algorithm 1's "indices divisible by G_i": the multiples of
    ``gap[r]`` in ``[lo[r], hi[r]] ∩ [0, n_t]`` for each row ``r``, as
    ``(first, count)`` arrays."""
    lo = np.maximum(np.ceil(lo), 0).astype(np.int64)
    hi = np.minimum(np.floor(hi), n_t).astype(np.int64)
    first = (lo + gap - 1) // gap * gap
    return first, np.maximum((hi - first) // gap + 1, 0)


def _first_occurrences(values: np.ndarray) -> np.ndarray:
    """Mask of the first occurrence of each distinct value.  A stable
    sort ranks each value's earliest index first among its equals."""
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    head = np.ones(len(values), dtype=bool)
    head[1:] = ranked[1:] != ranked[:-1]
    first = np.zeros(len(values), dtype=bool)
    first[order[head]] = True
    return first


def _earlier_neighbours(starts: List[np.ndarray]) -> np.ndarray:
    """Per anchor of the rows ``starts`` (concatenated), as two rows: the
    nearest start below and above its own among the earlier anchors of
    its row, or ``∓_FAR``.  Rows that share one anchor array share the
    answer."""
    near, last, lone = [], None, np.array([[-_FAR], [_FAR]])
    for s in starts:
        if len(s) < 2:
            near.append(lone[:, :len(s)])
            continue
        if s is not last:
            earlier = np.tri(len(s), k=-1, dtype=bool)   # [k, j]: j < k
            lower = earlier & (s < s[:, None])
            last, pair = s, np.stack((
                np.where(lower, s, -_FAR).max(axis=1),
                np.where(earlier & ~lower, s, _FAR).min(axis=1)))
        near.append(pair)
    return np.concatenate(near, axis=1)


def _window_keys(runs: np.ndarray, at: int) -> np.ndarray:
    """Keys of the end runs ``(base, gap, count)`` whose cells sit at
    listing positions ``at, at + 1, …``: a run's cell at position ``p``
    is the key ``base + gap·p``."""
    base, gap, count = runs
    return np.repeat(base, count) + np.repeat(gap, count) * np.arange(
        at, at + count.sum())


def _grid_keys(rows: List[Tuple[np.ndarray, np.ndarray, float, int, int]],
               n_t: int) -> np.ndarray:
    """Distinct window keys ``sp·(n_t+1) + ep`` of the grid rows ``(start
    anchors, end anchors, radius, gap, shift)``, in first-occurrence
    order of row, anchor, start tick and end tick.  Each anchor's box
    holds the windows ``[sp, min(end + shift, n_t))`` of its start ticks
    ``sp`` and end ticks ``end + shift >= sp``.  Rows of shift 0 are the
    lulam rows, rows of shift 1 the hit rows.

    A box lists, per start, one or two runs of end ticks: its ends less
    those an earlier box is known to have listed.  The box's starts fall
    in three pieces, ``sp <= u``, ``u < sp < v`` and ``sp >= v``, each
    with its own runs:

    * Hit rows: the anchors of a row share gap, radius ``r`` and end
      offset ``B − 1``, and every box holds the ``±⌊r⌋`` square around
      its anchor.  So the earlier anchors within ``⌊r⌋`` of ``sp`` cover
      one interval of ends, bounded by the squares of the nearest
      earlier anchors below (``P``) and above (``N``) the box's own.
      Starts up to ``u = P + ⌊r⌋`` keep the ends above ``P``'s square,
      starts from ``v = N − ⌊r⌋`` those below ``N``'s, and starts both
      squares hold (``v <= sp <= u``) keep none.
    * Lulam rows: an earlier lulam row whose gap divides the row's
      listed every cell of the row inside its own box.  The latest such
      row (with nested boxes, the largest) cuts: the starts in its start
      ticks, ``u < sp < v``, keep the ends outside its end ticks, two
      runs.

    What the cuts miss (hit cells of earlier rows, lulam cells of rows
    whose gaps do not divide, ``ep = n_t`` from two clipped ends) is
    dropped by :func:`_first_occurrences` over the keys."""
    sizes = [len(row[0]) for row in rows]
    start, end = (np.concatenate([row[c] for row in rows]) for c in (0, 1))
    radius, gap, shift = (np.repeat([row[c] for row in rows], sizes)
                          for c in (2, 3, 4))
    anchors = np.stack((start, end))
    first, count = _ticks(anchors - radius, anchors + radius, gap, n_t)
    last = first + gap * (count - 1)

    # Hit rows: P's square holds the starts up to u and the ends below
    # cut_a; N's the starts from v and the ends above cut_c.
    below, above = _earlier_neighbours([row[0] for row in rows])
    reach = np.floor(radius).astype(np.int64)
    u, v = below + reach, above - reach
    cut_a, cut_c = u + 1 + (end - start), v - 1 + (end - start)
    cut_lo, cut_hi = np.full((2, len(start)), _FAR)
    # Lulam rows: the latest earlier lulam row whose gap divides the
    # row's holds the starts (u, v) and, for them, the ends [cut_lo,
    # cut_hi]; with no end ticks, that range holds no tick of the row.
    local = np.flatnonzero(shift == 0)
    cutter = np.where(np.tri(len(local), k=-1, dtype=bool)
                      & (gap[local, None] % gap[local] == 0), local, -1
                      ).max(axis=1, initial=-1)
    has, cutter = local[cutter >= 0], cutter[cutter >= 0]
    u[local], v[local], cut_a[local], cut_c[local] = _FAR - 1, _FAR + 1, \
        -_FAR, _FAR
    u[has], v[has] = first[0, cutter] - 1, last[0, cutter] + 1
    cut_lo[has], cut_hi[has] = first[1, cutter], last[1, cutter]

    # Per box, the bounds of its three pieces: starts, then two runs of
    # ends, inside the box and on its lattice.
    far = np.full(len(start), _FAR)
    piece = np.array([[-far, u + 1, np.maximum(v, u + 1)],
                      [np.minimum(u, v - 1), v - 1, far],
                      [cut_a, -far, -far], [far, cut_lo - 1, cut_c],
                      [far, cut_hi + 1, far], [far, far, far]])
    piece[0::2] = -(-np.maximum(piece[0::2], first[[0, 1, 1], None])
                    // gap) * gap
    piece[1::2] = np.minimum(piece[1::2], last[[0, 1, 1], None]) // gap * gap
    piece = piece.transpose(0, 2, 1).reshape(6, -1)     # box, then piece
    g = np.repeat(gap, 3)
    n_sp = np.maximum((piece[1] - piece[0]) // g + 1, 0)
    n_sp[(piece[3] < piece[2]) & (piece[5] < piece[4])] = 0

    # Per start tick sp, the piece's two runs from the first end tick
    # with end + shift >= sp.
    owner = np.repeat(np.arange(len(n_sp)), n_sp)
    g, s = g[owner], np.repeat(shift, 3)[owner]
    sp = piece[0, owner] + g * (np.arange(len(owner))
                                - np.repeat(np.cumsum(n_sp) - n_sp, n_sp))
    lo = np.maximum(piece[2::2, owner], (sp - s + g - 1) // g * g)
    count = np.maximum((piece[3::2, owner] - lo) // g + 1, 0).T.ravel()
    lo, g, s = lo.T.ravel(), np.repeat(g, 2), np.repeat(s, 2)

    # A run's cells sit at listing positions at, at + 1, …: the cell at
    # position p is its first key plus g·(p − at).
    at = np.cumsum(count) - count
    runs = np.stack((np.repeat(sp * (n_t + 1), 2) + lo + s - g * at,
                     g, count))
    cuts = np.searchsorted(at + count, np.arange(
        _GRID_CELLS, at[-1] + count[-1], _GRID_CELLS), side="right")
    keys = np.concatenate([_window_keys(chunk, at[i]) for i, chunk in zip(
        [0, *cuts], np.split(runs, cuts, axis=1))])
    # An end tick n_t shifted past the text is the window ending at n_t.
    clip = (count > 0) & (lo + g * (count - 1) + s > n_t)
    keys[(at + count - 1)[clip]] -= 1
    return keys[_first_occurrences(keys)]


def _grid_rows(payload: BlockPayload, gamma: int, kappa: int
               ) -> List[Tuple[np.ndarray, np.ndarray, float, int, int]]:
    """Algorithm 1's grid rows ``(start anchors, end anchors, radius,
    gap, end shift)`` for one block, in generation order."""
    positions: np.ndarray = payload["positions"]
    eps_prime: float = payload["eps_prime"]
    B = payload["hi"] - payload["lo"]
    lulam = (np.array([gamma]), np.array([kappa]))
    # Line 2-3: the lulam optimum is always a candidate (exact when d*=0).
    rows = [(*lulam, 0.0, 1, 0)]

    rng = default_rng(payload["seed"])
    local_rf = payload["local_radius_factor"]
    hit_rf = payload["hit_radius_factor"]
    hits_before = g2 = None

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
            if not np.array_equal(hits, hits_before):
                # The same hits share one anchor array (at θ = 1, every
                # guess's).
                q = positions[hits]
                g2 = (q - hits)[q >= 0]      # anchor-implied window start
                # Hits on one diagonal anchor the same grid; its first
                # hit already yields every window, in the same order.
                g2 = g2[_first_occurrences(g2)]
                hits_before = hits
            # End ticks are last indices; the window is half-open (+1).
            rows.append((g2, g2 + (B - 1), hit_rf * u_hat, gap, 1))
    return rows


def run_block_machine(payload: BlockPayload) -> TupleTable:
    """Execute Algorithm 1 for one block; returns its candidate tuples."""
    lo, hi = payload["lo"], payload["hi"]
    positions: np.ndarray = payload["positions"]
    n_t: int = payload["n_t"]
    B = hi - lo

    present = positions >= 0
    i_pts = np.nonzero(present)[0].astype(np.int64)   # block-relative i
    p_pts = positions[present].astype(np.int64)       # absolute in s̄

    # One chain predecessor/gap list serves lulam and every window.
    links = run_links(i_pts, p_pts)
    # lulam(s[lo:hi), s̄): optimal local window (γ, κ) and distance d*.
    gamma, kappa, d_star = local_ulam_from_matches(i_pts, p_pts, B, links)

    # Distinct windows in first-occurrence order, capped.
    keys = _grid_keys(_grid_rows(payload, gamma, kappa), n_t)
    sp, ep = np.divmod(keys[:payload["max_candidates"]], n_t + 1)

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
