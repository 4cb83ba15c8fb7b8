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

All coordinates are 0-based half-open (the paper is 1-based closed).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..metrics import get_registry
from ..mpc.accounting import add_work
from ..mpc.distcache import cached_batch, distance_cache
from ..mpc.shm import SharedSlice
from ..strings.ulam import local_ulam_from_matches, ulam_auto_batch
from .config import UlamConfig

_M_WINDOWS = get_registry().counter("ulam.candidate_windows")
_M_TUPLES = get_registry().counter("ulam.candidate_tuples")
_M_PER_BLOCK = get_registry().histogram("ulam.candidates_per_block")

__all__ = ["BlockPayload", "make_block_payload", "make_block_part",
           "make_round1_broadcast", "run_block_machine", "CandidateTuple"]

#: ``(block_lo, block_hi, win_lo, win_hi, distance)`` — all half-open.
CandidateTuple = Tuple[int, int, int, int, int]

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


def _grid(lo: float, hi: float, gap: int, n: int) -> List[int]:
    """Multiples of ``gap`` inside ``[lo, hi] ∩ [0, n]`` (Algorithm 1's
    "indices divisible by G_i")."""
    lo = max(int(np.ceil(lo)), 0)
    hi = min(int(np.floor(hi)), n)
    if hi < lo:
        return []
    first = ((lo + gap - 1) // gap) * gap
    return list(range(first, hi + 1, gap))


def _window_distances(windows: List[Tuple[int, int, np.ndarray, np.ndarray]],
                      B: int, cache) -> List[int]:
    """Sparse Ulam distances for candidate windows, as one batch.

    All cache misses are evaluated in one :func:`ulam_auto_batch` call
    (:func:`~repro.mpc.distcache.cached_batch` folds intra-batch
    duplicates into cache hits).
    """
    jobs = [(i_sel, p_rel, B, ep - sp) for sp, ep, i_sel, p_rel in windows]
    return cached_batch(
        cache, jobs,
        lambda job: ("ulam", job[0].tobytes(), job[1].tobytes(), B, job[3]),
        ulam_auto_batch)


def run_block_machine(payload: BlockPayload) -> List[CandidateTuple]:
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

    wanted: Dict[Tuple[int, int], None] = {}

    def want(sp: int, ep: int) -> None:
        if 0 <= sp <= ep <= n_t:
            wanted.setdefault((sp, ep), None)

    # Line 2-3: the lulam optimum is always a candidate (exact when d*=0).
    want(gamma, kappa)

    rng = np.random.default_rng(payload["seed"])
    local_rf = payload["local_radius_factor"]
    hit_rf = payload["hit_radius_factor"]
    max_cands = payload["max_candidates"]

    for u in payload["u_guesses"]:
        if max_cands is not None and len(wanted) >= max_cands:
            break
        u_hat = (1.0 + eps_prime) * u
        gap = max(int(eps_prime * u), 1)
        if u < B / 2:
            # Small-distance branch (Lemma 1): search near the lulam window.
            sps = _grid(gamma - local_rf * u_hat, gamma + local_rf * u_hat,
                        gap, n_t)
            eps_ = _grid(kappa - local_rf * u_hat, kappa + local_rf * u_hat,
                         gap, n_t)
            for sp in sps:
                for ep in eps_:
                    if ep >= sp:
                        want(sp, ep)
        else:
            # Large-distance branch (Lemma 2): hitting-set anchors.
            coins = rng.random(B)
            hits = np.nonzero(coins < payload["theta"])[0]
            max_hits = payload["max_hits"]
            if max_hits is not None and len(hits) > max_hits:
                hits = rng.choice(hits, size=max_hits, replace=False)
            for p in np.sort(hits):
                q = int(positions[p])
                if q < 0:
                    continue
                g2 = q - int(p)            # anchor-implied window start
                k2 = q + (B - 1 - int(p))  # anchor-implied last index
                sps = _grid(g2 - hit_rf * u_hat, g2 + hit_rf * u_hat,
                            gap, n_t)
                for sp in sps:
                    eps_ = _grid(max(k2 - hit_rf * u_hat, sp - 1),
                                 k2 + hit_rf * u_hat, gap, n_t)
                    for ep_last in eps_:
                        # ep_last is the window's last index; half-open +1.
                        if ep_last + 1 >= sp:
                            want(sp, min(ep_last + 1, n_t))

    if max_cands is not None and len(wanted) > max_cands:
        wanted = dict(list(wanted.items())[:max_cands])

    # Distance evaluation: sparse chain DP per window from positions only.
    add_work(len(wanted))
    _M_WINDOWS.inc(len(wanted))
    _M_PER_BLOCK.observe(len(wanted))
    order = np.argsort(p_pts, kind="stable")
    p_sorted = p_pts[order]
    cache = distance_cache()
    windows: List[Tuple[int, int, np.ndarray, np.ndarray]] = []
    for sp, ep in wanted:
        lo_idx = int(np.searchsorted(p_sorted, sp, side="left"))
        hi_idx = int(np.searchsorted(p_sorted, ep, side="left"))
        sel = np.sort(order[lo_idx:hi_idx])  # back to i-sorted order
        windows.append((sp, ep, i_pts[sel], p_pts[sel] - sp))
    dists = _window_distances(windows, B, cache)
    tuples: List[CandidateTuple] = [
        (lo, hi, int(sp), int(ep), int(d))
        for (sp, ep, _, _), d in zip(windows, dists)]

    top_k = payload["top_k"]
    if top_k is not None and len(tuples) > top_k:
        tuples.sort(key=lambda t: (t[4], t[3] - t[2]))
        tuples = tuples[:top_k]
    _M_TUPLES.inc(len(tuples))
    return tuples
