"""The paper's parameter schedule.

Centralises every derived quantity of Sections 3–5 so the algorithms,
tests and benchmarks agree on one set of formulas:

* memory exponent ``x`` → per-machine memory ``Õ_ε(n^(1-x))``;
* block exponent ``y`` (``y = x`` for Ulam and small-distance edit
  distance; ``y = (6/5)x`` in the large-distance regime) → block size
  ``B = n^(1-y)``;
* gap sizes ``G = max(⌊ε'·n^(δ-y)⌋, 1)`` and ``G_i = max(⌊ε'·u_i⌋, 1)``;
* the Ulam hitting-set rate ``θ = (8/(ε'·B))·log n``;
* the regime boundary ``n^δ = n^(1-x/5)`` and the large-regime settings
  ``α = (3/5)x``, ``y' = (4/5)x`` from §5.3.

``ε'`` is ``ε/2`` for Ulam (§4) and ``ε/22`` for edit distance (§5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["UlamParams", "EditParams", "geometric_guesses", "check_eps"]


def _pow(n: int, exponent: float) -> int:
    """``round(n^exponent)`` clamped to at least 1."""
    return max(1, int(round(n ** exponent)))


def check_eps(eps: float) -> None:
    """Raise ``ValueError`` unless *eps* is a finite number > 0.

    Written so that NaN fails too (``nan <= 0`` is False).
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be a finite number > 0, got {eps}")


def geometric_guesses(n: int, eps: float, start: int = 1) -> list:
    """The guess schedule ``{start·(1+eps)^i} ∩ [start, 2n]``, deduplicated.

    Used for the ``n^δ`` solution-size guesses and the ``τ`` thresholds
    (§3.2, §5.2); includes the endpoints so the largest guess always
    covers the worst case ``d ≤ 2n``.
    """
    check_eps(eps)
    out = []
    v = float(start)
    while v < 2 * n:
        out.append(int(math.ceil(v)))
        v *= (1.0 + eps)
    out.append(2 * n)
    return sorted(set(out))


@dataclass
class UlamParams:
    """Derived parameters of the Ulam algorithm (Theorem 4).

    Parameters
    ----------
    n:
        Input length.
    x:
        Memory exponent, ``0 < x < 1/2``; machines hold ``Õ_ε(n^(1-x))``.
    eps:
        Target approximation slack: the algorithm guarantees ``1 + eps``.
    memory_slack:
        The constant hidden by ``Õ_ε`` for the per-machine memory cap used
        by the simulator.  The cap is ``memory_slack · n^(1-x) ·
        max(log2 n, 1) / eps'`` words.
    """

    n: int
    x: float
    eps: float = 0.5
    memory_slack: float = 8.0

    def __post_init__(self) -> None:
        if self.n <= 1:
            raise ValueError("n must be at least 2")
        if not 0 < self.x < 0.5:
            raise ValueError("Ulam algorithm requires 0 < x < 1/2 "
                             "(Theorem 4)")
        check_eps(self.eps)

    @property
    def eps_prime(self) -> float:
        """§4: the analysis slack ``ε' = ε/2``."""
        return self.eps / 2.0

    @property
    def block_size(self) -> int:
        """``B = n^(1-x)`` (``y = x`` for Ulam)."""
        return _pow(self.n, 1.0 - self.x)

    @property
    def n_blocks(self) -> int:
        return math.ceil(self.n / self.block_size)

    @property
    def hitting_rate(self) -> float:
        """``θ = (8/(ε'·B))·log n``, clipped to a probability."""
        theta = (8.0 / (self.eps_prime * self.block_size)) \
            * math.log(max(self.n, 2))
        return min(theta, 1.0)

    def gap(self, u: float) -> int:
        """``G_i = max(⌊ε'·u_i⌋, 1)`` (per-block gap for guess ``u_i``)."""
        return max(int(self.eps_prime * u), 1)

    def u_guesses(self) -> list:
        """Guesses ``u_i ∈ {0} ∪ {(1+ε')^j}`` up to the max block distance.

        A block of size ``B`` and a candidate of length at most
        ``(1/ε')·B`` can never be further apart than ``B·(1 + 1/ε')``,
        which caps the schedule well below the paper's generic ``n``.
        """
        cap = int(self.block_size * (1.0 + 1.0 / self.eps_prime))
        guesses = [0]
        v = 1.0
        while v <= cap:
            guesses.append(int(math.ceil(v)))
            v *= (1.0 + self.eps_prime)
        return sorted(set(guesses))

    @property
    def memory_limit(self) -> int:
        """Per-machine cap in words: ``Õ_ε(n^(1-x))`` with explicit constants.

        The ``Õ_ε`` of Theorem 4 hides ``poly(log n, 1/ε)``; the concrete
        cap uses ``slack · n^(1-x) · log₂n / ε'²``, which the measured
        footprints of both rounds respect across the test matrix.
        """
        polylog = max(math.log2(self.n), 1.0)
        return int(self.memory_slack * self.block_size * polylog
                   / min(self.eps_prime, 1.0) ** 2) + 64


@dataclass
class EditParams:
    """Derived parameters of the edit-distance algorithm (Theorem 9).

    ``eps_prime_divisor`` controls ``ε' = ε / divisor``: 22 is the
    paper's worst-case bookkeeping (§5); drivers default to 4, which the
    ε-ablation benchmark validates empirically (see EditConfig).
    """

    n: int
    x: float
    eps: float = 0.5
    memory_slack: float = 8.0
    eps_prime_divisor: float = 22.0

    def __post_init__(self) -> None:
        if self.n <= 1:
            raise ValueError("n must be at least 2")
        if not 0 < self.x <= 5.0 / 17.0 + 1e-9:
            raise ValueError("edit-distance algorithm requires "
                             "0 < x ≤ 5/17 (Theorem 9)")
        check_eps(self.eps)
        if self.eps_prime_divisor < 1:
            raise ValueError("eps_prime_divisor must be at least 1")

    @property
    def eps_prime(self) -> float:
        """§5 analysis slack: ``ε' = ε / eps_prime_divisor``."""
        return self.eps / self.eps_prime_divisor

    # -- regime boundary ------------------------------------------------
    @property
    def delta_star(self) -> float:
        """Regime boundary exponent: small distances iff ``n^δ ≤ n^(1-x/5)``."""
        return 1.0 - self.x / 5.0

    @property
    def distance_boundary(self) -> int:
        """``n^(1-x/5)`` as an integer threshold."""
        return _pow(self.n, self.delta_star)

    def is_small_regime(self, distance_guess: int) -> bool:
        """True when the guess falls in the small-distance regime (§5.1)."""
        return distance_guess <= self.distance_boundary

    # -- small regime (y = x) -------------------------------------------
    @property
    def block_size_small(self) -> int:
        """``B = n^(1-x)``."""
        return _pow(self.n, 1.0 - self.x)

    # -- large regime (§5.3 settings) -----------------------------------
    @property
    def alpha(self) -> float:
        """Dense/sparse degree threshold exponent ``α = (3/5)x``."""
        return 0.6 * self.x

    @property
    def y_large(self) -> float:
        """Block exponent ``y = (6/5)x``."""
        return 1.2 * self.x

    @property
    def y_prime(self) -> float:
        """Larger-block exponent ``y' = (4/5)x``."""
        return 0.8 * self.x

    @property
    def block_size_large(self) -> int:
        """``B = n^(1-y)`` with ``y = (6/5)x``."""
        return _pow(self.n, 1.0 - self.y_large)

    @property
    def larger_block_size(self) -> int:
        """``n^(1-y')`` — the extension region size of Algorithm 6."""
        return _pow(self.n, 1.0 - self.y_prime)

    @property
    def degree_threshold(self) -> int:
        """``n^α`` — nodes with more neighbours are *dense* (§5.2.1)."""
        return _pow(self.n, self.alpha)

    # -- shared ----------------------------------------------------------
    def gap(self, distance_guess: int, block_size: int) -> int:
        """``G = max(⌊ε'·n^δ/n^y⌋, 1)`` for the given guess and block size."""
        n_y = self.n / block_size
        return max(int(self.eps_prime * distance_guess / n_y), 1)

    def max_candidate_length(self, block_size: int) -> int:
        """Candidates longer than ``(1/ε')·B`` are never constructed (§5.1.1)."""
        return int(block_size / self.eps_prime)

    def distance_guesses(self) -> list:
        """The ``n^δ = (1+ε)^i`` guess schedule of §3.2."""
        return geometric_guesses(self.n, self.eps)

    def thresholds(self) -> list:
        """The ``τ ∈ {0} ∪ {(1+ε')^j}`` schedule of §5.2."""
        return [0] + geometric_guesses(self.n, self.eps_prime)

    @property
    def memory_limit(self) -> int:
        """Per-machine cap: ``slack · n^(1-x) · log₂n / ε'²`` words.

        Same convention as :attr:`UlamParams.memory_limit` — the squared
        ``1/ε'`` covers the phase-2 tuple feed, whose ``Õ_ε`` constant is
        quadratic in ``1/ε'`` (grid density × endpoint schedule).
        """
        polylog = max(math.log2(self.n), 1.0)
        return int(self.memory_slack * _pow(self.n, 1.0 - self.x) * polylog
                   / min(self.eps_prime, 1.0) ** 2) + 64
