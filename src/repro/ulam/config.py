"""Tunable constants of the Ulam MPC algorithm.

The defaults are paper-faithful: every constant matches Algorithm 1 /
Section 4 (hitting rate ``θ = (8/(ε'B))·log n``, search radius ``2û_i``
around the `lulam` window, ``û_i`` around hit anchors, the full geometric
``u_i`` schedule).  The :meth:`UlamConfig.practical` preset trades the
paper's generous constants for throughput at bench scale; every cap it
sets is *reported* in the result so no experiment silently depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["UlamConfig"]


@dataclass(frozen=True)
class UlamConfig:
    """Constants of Algorithm 1 and the phase-2 hand-off.

    Attributes
    ----------
    max_hits:
        Cap on the hitting-set size per ``u_i`` guess (``None`` = paper:
        every sampled position is used).  The guarantee of Lemma 2 needs
        only *one* unchanged character to be hit, so a deterministic
        subsample keeps the success probability high while bounding work.
    max_candidates_per_block:
        Cap on distance evaluations per block (``None`` = paper).
        Candidates are generated small-``u_i`` first, so the cap discards
        the least promising (largest-``u_i``) windows.
    phase2_top_k:
        Per-block cap on tuples shipped to the phase-2 DP, keeping the
        ``k`` smallest distances (``None`` = ship everything).  The
        approximately-optimal candidate of Lemma 3 has near-minimal
        distance among the block's candidates, so a generous ``k``
        preserves the guarantee in practice.

    The paper's fixed constants — the hitting rate ``θ = (8/(ε'B))·log
    n`` (:attr:`~repro.params.UlamParams.hitting_rate`) and the search
    radii ``2û_i`` (Lemma 1) and ``û_i`` (Lemma 2) — are not settable.
    """

    max_hits: Optional[int] = None
    max_candidates_per_block: Optional[int] = None
    phase2_top_k: Optional[int] = None

    @classmethod
    def paper(cls) -> "UlamConfig":
        """Exactly the constants of Algorithm 1."""
        return cls()

    @classmethod
    def default(cls) -> "UlamConfig":
        """Paper constants, plus a generous phase-2 shipping cap.

        At benchable ``n`` the ``Õ_ε(1)`` candidate count per block is a
        four-digit constant (``~1/ε'⁴·log n``); shipping every tuple to
        the single phase-2 machine would dwarf ``n^(1-x)`` until ``n`` is
        astronomically large.  Keeping the 256 smallest-distance tuples
        per block preserves every near-optimal candidate (Lemma 3's
        candidate has near-minimal distance among its block's windows)
        while restoring the intended ``Õ_ε(n^x)`` phase-2 input size.
        This is the one knob where the default deviates from the paper;
        ``UlamConfig.paper()`` disables it.
        """
        return cls(phase2_top_k=256)

    @classmethod
    def practical(cls) -> "UlamConfig":
        """Throughput-oriented preset for large-``n`` benchmarks."""
        return cls(max_hits=12, max_candidates_per_block=4096,
                   phase2_top_k=64)
