"""Engine protocol: capabilities, requests, results.

An *engine* is one algorithm that answers distance queries — the paper's
MPC drivers (Theorems 4 and 9) and the baselines they are measured
against (HSS'19, BEGHS'18, single-machine exact).  Every engine
advertises an :class:`EngineCaps` record — which distances it answers,
in which input regime, at what guarantee, at what predicted cost — and
implements ``solve(request) -> EngineResult``.  The registry
(:mod:`repro.engines.registry`) keys engines by those capabilities so
``select_engine`` can plan a query without importing any driver, and the
layers above (CLI ``solve``, :class:`repro.service.DistanceService`)
resolve *every* algorithm through it: drivers are no longer imported
directly outside this package (the API-boundary checker enforces it).

Porting discipline: MPC engines delegate to the existing drivers
verbatim — same defaults, same simulator handling, same round plans —
so ledgers are byte-identical to the pre-registry code paths (the
golden-equivalence fixtures prove it).  Engines that are not naturally
resumable still run their solve inside a one-step query adapter
(:class:`SolveStepQuery`), so the service can multiplex them alongside
multi-round MPC queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Generator, Optional, Sequence, Tuple

from ..mpc.accounting import RunStats
from ..mpc.simulator import MPCSimulator

__all__ = ["Regime", "CostModel", "EngineCaps", "EngineRequest",
           "EngineResult", "Engine", "SolveStepQuery",
           "GUARANTEE_STRENGTH", "guarantee_strength"]

#: Guarantee classes ordered strongest-first by approximation factor.
#: ``select_engine(..., guarantee=c)`` admits engines whose class is at
#: least as strong as ``c`` (smaller rank = stronger).
GUARANTEE_STRENGTH: Dict[str, int] = {
    "exact": 0,      # factor 1
    "1+eps": 1,      # Theorem 4 / HSS'19 / BEGHS'18
    "3+eps": 2,      # Theorem 9
}


def guarantee_strength(cls: str) -> int:
    """Rank of a guarantee class (strong = small); raises on unknown."""
    try:
        return GUARANTEE_STRENGTH[cls]
    except KeyError:
        raise ValueError(
            f"unknown guarantee class {cls!r}; expected one of "
            f"{sorted(GUARANTEE_STRENGTH)}") from None


@dataclass(frozen=True)
class Regime:
    """Input regime an engine admits.

    ``max_n`` bounds the size an engine is *willing* to take (exact
    engines refuse quadratic work beyond the crossover);
    ``requires_duplicate_free`` marks Ulam-style preconditions; ``max_x``
    is the open upper bound of the valid memory-exponent range for MPC
    engines (``None`` for single-machine engines, which ignore ``x``).
    """

    min_n: int = 0
    max_n: Optional[int] = None
    requires_duplicate_free: bool = False
    max_x: Optional[float] = None

    def admits_n(self, n: int) -> Optional[str]:
        """``None`` when *n* is inside the regime, else the refusal."""
        if n < self.min_n:
            return f"n={n} below engine minimum {self.min_n}"
        if self.max_n is not None and n > self.max_n:
            return f"n={n} above engine crossover {self.max_n}"
        return None

    def describe(self) -> str:
        hi = "inf" if self.max_n is None else str(self.max_n)
        parts = [f"n in [{self.min_n}, {hi}]"]
        if self.requires_duplicate_free:
            parts.append("duplicate-free")
        return ", ".join(parts)


@dataclass(frozen=True)
class CostModel:
    """Predicted total work ``constant · n^work_exponent · log₂ⁿ^log_power``.

    A planning estimate, not a promise: ``select_engine`` uses it to rank
    candidates when no measured history is available, and scales measured
    history between sizes with ``work_exponent``.
    """

    work_exponent: float
    log_power: float = 0.0
    constant: float = 1.0
    rounds: Optional[int] = None

    def predicted_work(self, n: int) -> float:
        n = max(n, 2)
        return (self.constant * n ** self.work_exponent
                * max(math.log2(n), 1.0) ** self.log_power)


@dataclass(frozen=True)
class EngineCaps:
    """Everything the planner may know about an engine without importing
    its driver: identity, supported distances, input regime, guarantee
    class, cost model, and CLI-facing defaults."""

    name: str
    title: str
    distances: Tuple[str, ...]
    regime: Regime
    guarantee: str            # human-readable, e.g. "1+eps (w.h.p.)"
    guarantee_class: str      # key into GUARANTEE_STRENGTH
    cost: CostModel
    model: str = "mpc"        # "mpc" | "single-machine"
    default_x: Optional[float] = None
    default_eps: Optional[float] = None
    primary: bool = False     # this paper's engine for its distances

    def __post_init__(self) -> None:
        guarantee_strength(self.guarantee_class)  # validate eagerly

    def supports(self, distance: str) -> bool:
        return distance in self.distances


@dataclass
class EngineRequest:
    """One distance query, engine-agnostic.

    ``x``/``eps`` default to the engine's own defaults when ``None``;
    ``sim`` is an optional pre-built simulator (chaos, telemetry, pool
    executors) — engines build their canonical one when absent, exactly
    like the drivers they wrap.  ``guarantee`` is a *minimum* guarantee
    class for selection; engines themselves ignore it.
    """

    distance: str
    s: Sequence
    t: Sequence
    x: Optional[float] = None
    eps: Optional[float] = None
    seed: int = 0
    sim: Optional[MPCSimulator] = None
    config: Optional[object] = None
    data_plane: bool = True
    guarantee: Optional[str] = None
    options: Dict[str, object] = field(default_factory=dict)


@dataclass
class EngineResult:
    """Engine-independent outcome: the distance, the resolved parameters,
    the measured :class:`RunStats` ledger, and the driver's native result
    under ``raw`` (certificates, per-guess tables, tuples...)."""

    engine: str
    distance: int
    n: int
    params: Dict[str, object]
    stats: RunStats
    raw: object = None
    extra: Dict[str, object] = field(default_factory=dict)

    def summary(self) -> Dict[str, object]:
        out: Dict[str, object] = {"engine": self.engine,
                                  "distance": self.distance, "n": self.n}
        out.update(self.extra)
        out.update(self.stats.summary())
        return out


class Engine:
    """Base class every engine implements.

    Subclasses set :attr:`caps` and implement :meth:`solve`; MPC engines
    whose drivers are resumable also override :meth:`make_query` to
    return the native query object (so the service's one-round-per-step
    multiplexing is unchanged by the registry port).
    """

    caps: EngineCaps

    def capabilities(self) -> EngineCaps:
        return self.caps

    # -- parameter resolution ------------------------------------------
    def resolve_params(self, request: EngineRequest
                       ) -> Tuple[Optional[float], Optional[float]]:
        """Effective ``(x, eps)`` for *request* (engine defaults fill
        ``None``)."""
        x = request.x if request.x is not None else self.caps.default_x
        eps = request.eps if request.eps is not None \
            else self.caps.default_eps
        return x, eps

    def memory_limit(self, n: int, x: Optional[float],
                     eps: Optional[float]) -> Optional[int]:
        """Per-machine memory cap the engine would run under, or ``None``
        when unbounded (single-machine engines)."""
        return None

    # -- execution ------------------------------------------------------
    def solve(self, request: EngineRequest) -> EngineResult:
        raise NotImplementedError

    def check_guarantees(self, s, t, result: EngineResult,
                         work_cap: Optional[int] = None):
        """Engine-specific :class:`~repro.analysis.guarantees.
        GuaranteeReport` for a finished run."""
        raise NotImplementedError

    # -- service integration -------------------------------------------
    def make_query(self, corpus, *, x: Optional[float] = None,
                   eps: Optional[float] = None, seed: int = 0,
                   config: Optional[object] = None,
                   keep_tuples: bool = False):
        """Resumable query over a registered corpus (service path).

        Default: a one-step :class:`SolveStepQuery` wrapping
        :meth:`solve`; resumable MPC drivers override this.
        """
        return SolveStepQuery(self, corpus, x=x, eps=eps, seed=seed,
                              config=config)


class _SolveParams:
    """Minimal ``params`` shim for admission control (memory cap only)."""

    def __init__(self, memory_limit: Optional[int]) -> None:
        self.memory_limit = memory_limit


class SolveStepQuery:
    """Adapter running a non-resumable engine as a one-step query.

    The whole solve executes on the service's simulator inside a single
    ``steps`` advance, so engines without a resumable query (the exact
    ones, HSS, BEGHS) multiplex through
    :class:`~repro.service.DistanceService` with the same protocol —
    admission control reads :attr:`params`, the runner drives
    :meth:`steps` and reads :attr:`result` — as the native MPC queries.
    """

    def __init__(self, engine: Engine, corpus, *,
                 x: Optional[float] = None, eps: Optional[float] = None,
                 seed: int = 0, config: Optional[object] = None) -> None:
        self.engine = engine
        self.corpus = corpus
        self.algo = engine.caps.distances[0]
        self.x = x
        self.eps = eps
        self.seed = seed
        self.config = config
        n = len(corpus.S)
        caps = engine.caps
        x_eff = x if x is not None else caps.default_x
        eps_eff = eps if eps is not None else caps.default_eps
        self.params = _SolveParams(engine.memory_limit(n, x_eff, eps_eff))
        self.result: Optional[EngineResult] = None

    def steps(self, sim: MPCSimulator) -> Generator[str, None, None]:
        request = EngineRequest(
            distance=self.algo, s=self.corpus.S, t=self.corpus.T,
            x=self.x, eps=self.eps, seed=self.seed, sim=sim,
            config=self.config)
        self.result = self.engine.solve(request)
        yield f"{self.engine.caps.name}/solve"
