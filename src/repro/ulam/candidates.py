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

Each guess's ``(sp, ep)`` grid is built as NumPy ranges, deduplicated in
first-occurrence order, and handed to one
:func:`~repro.strings.ulam.ulam_windows` call with the block's
``top_k``.  It shares one chain-DP row per distinct window start and
runs the DP only on windows whose LIS bounds let them reach the top-k
(Lemma 3 keeps only the best few per block), so the capped tuples are
those of evaluating every window; the ledger still charges one
certified banded sparse DP per window, evaluated or not.

All coordinates are 0-based half-open (the paper is 1-based closed).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..chain import Tuple5, TupleTable
from ..metrics import get_registry
from ..mpc.accounting import add_work
from ..mpc.shm import SharedSlice
from ..strings.ulam import local_ulam_from_matches, ulam_windows
from .config import UlamConfig

_M_WINDOWS = get_registry().counter("ulam.candidate_windows")
_M_TUPLES = get_registry().counter("ulam.candidate_tuples")
_M_PER_BLOCK = get_registry().histogram("ulam.candidates_per_block")

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


def _ticks(lo, hi, gap: int, n_t: int) -> Tuple[np.ndarray, np.ndarray]:
    """Algorithm 1's "indices divisible by G_i": the multiples of ``gap``
    in ``[lo[r], hi[r]] ∩ [0, n_t]`` for each row ``r``, as padded
    ``(values, valid)`` arrays of shape ``(rows, width)``."""
    lo = np.maximum(np.ceil(lo), 0).astype(np.int64)
    hi = np.minimum(np.floor(hi), n_t).astype(np.int64)
    first = (lo + gap - 1) // gap * gap
    width = int(np.max((hi - first) // gap + 1, initial=0))
    values = first[:, None] + gap * np.arange(width)
    return values, values <= hi[:, None]


def _window_keys(starts: Tuple[np.ndarray, np.ndarray],
                 ends: Tuple[np.ndarray, np.ndarray], shift: int,
                 n_t: int) -> np.ndarray:
    """Windows ``[sp, min(end + shift, n_t))`` for every start tick
    ``sp`` and end tick ``end`` of the same row with ``end + shift >=
    sp``, as keys ``sp·(n_t+1) + ep`` in row, start, end order."""
    (sp, sp_ok), (end, end_ok) = starts, ends
    sp = sp[:, :, None]
    ep = end[:, None, :] + shift
    keep = sp_ok[:, :, None] & end_ok[:, None, :] & (ep >= sp)
    sp, ep = np.broadcast_arrays(sp, np.minimum(ep, n_t))
    return sp[keep] * (n_t + 1) + ep[keep]


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

    # lulam(s[lo:hi), s̄): optimal local window (γ, κ) and distance d*.
    gamma, kappa, d_star = local_ulam_from_matches(i_pts, p_pts, B)

    # Candidate windows as keys sp·(n_t+1) + ep, in generation order.
    # Line 2-3: the lulam optimum is always a candidate (exact when d*=0).
    keys = [np.array([gamma * (n_t + 1) + kappa])]

    rng = np.random.default_rng(payload["seed"])
    local_rf = payload["local_radius_factor"]
    hit_rf = payload["hit_radius_factor"]
    max_cands = payload["max_candidates"]

    for u in payload["u_guesses"]:
        if max_cands is not None \
                and len(np.unique(np.concatenate(keys))) >= max_cands:
            break
        u_hat = (1.0 + eps_prime) * u
        gap = max(int(eps_prime * u), 1)
        if u < B / 2:
            # Small-distance branch (Lemma 1): search near the lulam window.
            r = local_rf * u_hat
            keys.append(_window_keys(
                _ticks([gamma - r], [gamma + r], gap, n_t),
                _ticks([kappa - r], [kappa + r], gap, n_t), 0, n_t))
        else:
            # Large-distance branch (Lemma 2): hitting-set anchors.
            coins = rng.random(B)
            hits = np.nonzero(coins < payload["theta"])[0]
            max_hits = payload["max_hits"]
            if max_hits is not None and len(hits) > max_hits:
                hits = rng.choice(hits, size=max_hits, replace=False)
            hits = np.sort(hits)
            q = positions[hits]
            hits, q = hits[q >= 0], q[q >= 0]
            g2 = q - hits                # anchor-implied window start
            k2 = q + (B - 1 - hits)      # anchor-implied last index
            # End ticks are last indices; the window is half-open (+1).
            r = hit_rf * u_hat
            keys.append(_window_keys(_ticks(g2 - r, g2 + r, gap, n_t),
                                     _ticks(k2 - r, k2 + r, gap, n_t),
                                     1, n_t))

    # Distinct windows in first-occurrence order, capped.
    keys = np.concatenate(keys)
    first = np.sort(np.unique(keys, return_index=True)[1])[:max_cands]
    sp, ep = np.divmod(keys[first], n_t + 1)

    # Distance evaluation: sparse chain DP per window from positions only.
    add_work(len(sp))
    _M_WINDOWS.inc(len(sp))
    _M_PER_BLOCK.observe(len(sp))

    # Only windows that can make the block's top-k are evaluated; the
    # cap below ships the same tuples as on every window.
    top_k = payload["top_k"]
    index, dists = ulam_windows(i_pts, p_pts, B, sp, ep, top_k=top_k)
    # Smallest (distance, length) first; ties keep generation order.
    tuples = TupleTable.from_columns(lo, hi, sp[index], ep[index],
                                     dists).capped(top_k)
    _M_TUPLES.inc(len(tuples))
    return tuples
