"""Candidate-substring geometry shared by both edit-distance regimes.

The paper's construction (Figs. 4–5): starting points on a ``G``-spaced
grid within ``n^δ`` of the block start, and for each starting point the
ending points ``κ = γ + B ± (1+ε')^a`` (plus ``κ = γ + B``), with
candidate lengths capped at ``(1/ε')·B`` and endpoint offsets capped at
``n^δ``.
"""

from __future__ import annotations

import math
from typing import List, Tuple

__all__ = ["start_grid", "length_offsets", "candidate_windows"]


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


def candidate_windows(start: int, block_size: int, offsets: List[int],
                      eps_prime: float, n_t: int) -> List[Tuple[int, int]]:
    """Half-open candidate windows for one starting point.

    Lengths ``B + off`` clipped to ``[0, (1/ε')·B]`` and to the text.
    """
    max_len = int(block_size / eps_prime)
    ends = [min(start + block_size + off, n_t) for off in offsets
            if 0 <= block_size + off <= max_len]
    # Distinct ends in first-occurrence order (clipping merges some).
    return [(start, end) for end in dict.fromkeys(ends) if end >= start]
