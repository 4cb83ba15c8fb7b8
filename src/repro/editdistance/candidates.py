"""Candidate-substring geometry shared by both edit-distance regimes.

The paper's construction (Figs. 4–5): starting points on a ``G``-spaced
grid within ``n^δ`` of the block start, and for each starting point the
ending points ``κ = γ + B ± (1+ε')^a`` (plus ``κ = γ + B``), with
candidate lengths capped at ``(1/ε')·B`` and endpoint offsets capped at
``n^δ``.

:func:`candidate_grid` is the one enumeration of candidate windows: it
takes a batch of starting points and returns the windows of all of them
as flat arrays, in the order a per-start loop would list them.  A
small-regime block machine (Algorithm 3) builds one grid for its starts,
the ``G_τ`` node list one for every start of ``s̄``, and
:func:`candidate_windows` is a batch of one.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["start_grid", "length_offsets", "candidate_grid",
           "candidate_windows"]


def start_grid(block_lo: int, distance_guess: int, gap: int,
               n_t: int) -> List[int]:
    """Starting points: multiples of ``gap`` in
    ``[block_lo - n^δ, block_lo + n^δ] ∩ [0, n_t]`` (Fig. 4)."""
    lo = max(block_lo - distance_guess, 0)
    hi = min(block_lo + distance_guess, n_t)
    if hi < lo:
        return []
    first = ((lo + gap - 1) // gap) * gap
    pts = list(range(first, hi + 1, gap))
    if not pts:
        pts = [lo]
    return pts


def length_offsets(block_size: int, distance_guess: int,
                   eps_prime: float) -> List[int]:
    """Ending-point offsets ``{0} ∪ {±⌈(1+ε')^a⌉}`` (Fig. 5).

    Offsets are capped at ``min(B/ε', n^δ)`` — longer candidates are
    provably useless (Lemma 6's remove-and-insert fallback is cheaper).
    """
    cap = min(int(block_size / eps_prime), distance_guess)
    out = {0}
    v = 1.0
    while math.ceil(v) <= cap:
        off = math.ceil(v)
        out.add(off)
        out.add(-off)
        v *= (1.0 + eps_prime)
    return sorted(out)


def candidate_grid(starts: Sequence[int], block_size: int,
                   offsets: Sequence[int], eps_prime: float, n_t: int
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Half-open candidate windows of every start in *starts*.

    Returns ``(st, en, lane)``, int64 arrays with one entry per window:
    its start, its end and the index in *starts* of that start.  Windows
    come start by start in *starts* order; within a start, one per
    offset of the ascending *offsets* (as :func:`length_offsets` gives
    them) with length ``B + off`` in ``[0, (1/ε')·B]``, the end clipped
    to ``n_t``, keeping the first of each run of equal clipped ends and
    only ends ``≥ st``.
    """
    max_len = int(block_size / eps_prime)
    offs = np.asarray(offsets, dtype=np.int64)
    offs = offs[(block_size + offs >= 0) & (block_size + offs <= max_len)]
    sp = np.asarray(starts, dtype=np.int64).reshape(-1, 1)
    ends = np.minimum(sp + block_size + offs, n_t)
    keep = ends >= sp
    # Clipping merges the longest candidates of a start near the text
    # end into runs of equal ends; keep each run's first.
    keep[:, 1:] &= ends[:, 1:] != ends[:, :-1]
    lane, col = np.nonzero(keep)
    return sp[lane, 0], ends[lane, col], lane


def candidate_windows(start: int, block_size: int, offsets: List[int],
                      eps_prime: float, n_t: int) -> List[Tuple[int, int]]:
    """Half-open candidate windows of one starting point: a batch of one
    of :func:`candidate_grid`."""
    st, en, _ = candidate_grid([start], block_size, offsets, eps_prime, n_t)
    return list(zip(st.tolist(), en.tolist()))
