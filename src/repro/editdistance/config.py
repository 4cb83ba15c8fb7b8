"""Tunable constants of the edit-distance MPC algorithm (§5).

The defaults keep the paper's constants except for the ``ε'`` divisor
and the phase-2 shipping cap; :meth:`EditConfig.paper` restores both
and switches to parallel guessing.  Every cap is surfaced in result
summaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["EditConfig"]

#: The allowed values of each enumerated field.
_CHOICES = {
    "inner": ("row", "cgks", "exact", "banded"),
    "rep_solver": ("exact", "banded", "cgks"),
    "guess_mode": ("doubling", "parallel"),
    "force_regime": ("auto", "small", "large"),
}


@dataclass(frozen=True)
class EditConfig:
    """Constants of Algorithms 3–7 and the driver.

    Attributes
    ----------
    inner:
        Block-vs-candidate solver for the small-distance phase 1:
        ``"row"`` (default: one shared Wagner–Fischer row per starting
        point — exact and fastest), ``"cgks"`` (the paper's subquadratic
        ``3+ε`` variant of [12]),
        ``"exact"`` or ``"banded"`` (both certified exact — turning the
        overall guarantee into ``1+ε`` for the small regime, at more
        work; used for ablation E11).
    rep_solver:
        Solver for representative/extension distances in the large
        regime.  The paper uses the naive DP (``"exact"``); ``"banded"``
        is exact with output-sensitive work and is the default.
    rep_rate_constant:
        The ``2`` of the representative sampling rate ``2·log n / n^α``.
    low_rate_constant:
        The ``3`` of the low-degree sampling rate
        ``3·(1/ε'²)·log²n / n^((y-y')-(1-δ))``.
    guess_mode:
        ``"parallel"`` — run every ``n^δ`` guess (paper semantics; the
        statistics of all guesses are merged as concurrent rounds);
        ``"doubling"`` — run guesses in increasing order and stop at the
        first accepted one (practical; identical output, strictly less
        work; still *reported* with the parallel round count since the
        guesses never depend on each other).
    phase2_top_k:
        Per-block cap on tuples entering the combining DP (``None`` =
        ship everything).  Same role and justification as the Ulam cap.
    max_low_degree_samples:
        Cap on sampled low-degree blocks per guess (``None`` = paper).
    max_extensions_per_pair_source:
        Cap on candidate substrings a sampled low-degree block may extend
        (paper bound is the degree threshold ``n^α``; ``None`` uses it).
    max_representatives:
        Cap on phase-1 representatives per guess (``None`` = paper rate).
    eps_prime_divisor:
        The analysis uses ``ε' = ε/22`` (§5); that divisor is a
        worst-case bookkeeping artefact — at benchable sizes it inflates
        every grid by ~5× for no measurable accuracy gain, so the default
        uses ``ε/4`` and experiment E10 verifies the measured ratios stay
        within ``3+ε``.  ``EditConfig.paper()`` restores 22.
    force_regime:
        ``"auto"`` applies the paper's ``n^(1-x/5)`` boundary per guess;
        ``"small"`` / ``"large"`` force one regime for every guess.  At
        benchable ``n`` the boundary exceeds ``n/2``, so the large
        regime is only reachable by forcing it (experiments E6/E8 do).

    A guess ``g`` is accepted when its upper bound is at most
    ``(3+ε)·g``; the cgks inner solver runs at grid resolution 0.5.
    The four enumerated fields are checked at construction: an unknown
    value raises ``ValueError``.
    """

    inner: str = "row"
    rep_solver: str = "banded"
    rep_rate_constant: float = 2.0
    low_rate_constant: float = 3.0
    guess_mode: str = "doubling"
    phase2_top_k: Optional[int] = 256
    max_low_degree_samples: Optional[int] = None
    max_extensions_per_pair_source: Optional[int] = None
    max_representatives: Optional[int] = None
    eps_prime_divisor: float = 4.0
    force_regime: str = "auto"

    def __post_init__(self) -> None:
        for name, allowed in _CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(
                    f"EditConfig.{name} must be one of "
                    f"{', '.join(map(repr, allowed))}; got {value!r}")

    @classmethod
    def paper(cls) -> "EditConfig":
        """Paper constants, parallel guessing, no caps."""
        return cls(rep_solver="exact", guess_mode="parallel",
                   phase2_top_k=None, eps_prime_divisor=22.0)

    @classmethod
    def default(cls) -> "EditConfig":
        return cls()
