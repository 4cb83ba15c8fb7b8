"""Per-engine service-level objectives and error-budget burn rates.

The paper states *per-query* bounds — a round budget per engine
(``EngineCaps.cost.rounds``), an approximation guarantee the monitor of
:mod:`repro.analysis.guarantees` checks after every query — and the
service turns those one-off verdicts into fleet objectives: "*objective*
fraction of queries must meet every budget".  This module is the
arithmetic behind ``repro serve --slo`` and ``tools/check_slo.py``.

Model
-----
Each finished query becomes one :class:`QuerySample`.  An engine's
:class:`SLO` defines up to four *dimensions*, each a boolean budget per
sample:

``latency``     ``latency_seconds <= latency_p99_seconds``
``rounds``      ``rounds <= round_budget`` (from the engine's cost
                model; absent for engines without a round bound)
``guarantees``  the guarantee monitor did not report a violation
``faults``      no machine contribution was dropped after retry
                exhaustion (``dropped_machines == 0``)

Burn rate
---------
With objective :math:`o` (default 0.99), the *error budget* is the
allowed bad fraction :math:`1 - o`.  A dimension's **burn rate** over a
sample window is::

    burn = observed_bad_fraction / (1 - objective)

``burn == 1.0`` means the window consumes its budget exactly; ``> 1.0``
is an alert (the classic SRE multi-window burn-rate alarm, collapsed to
one rolling window here — the service's windows are short enough that
one suffices).  A dimension with zero bad samples burns 0.0 regardless
of window size, so small windows cannot false-alarm on good traffic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Mapping, Optional

__all__ = ["SLO", "QuerySample", "SLOReport", "SLOMonitor",
           "default_slos", "burn_rate", "sample_from_outcome",
           "sample_from_record", "format_burn_rates"]

#: Default objective: 99 % of queries meet every budget.
DEFAULT_OBJECTIVE = 0.99

#: Default per-query latency budget (seconds).  Deliberately generous —
#: wall-clock on shared CI machines is noisy, and the latency dimension
#: exists to catch order-of-magnitude regressions, not 10 % drift (the
#: deterministic work ledgers gate that).
DEFAULT_LATENCY_BUDGET = 30.0


@dataclass(frozen=True)
class SLO:
    """One engine's objectives (see the module docstring for the model)."""

    engine: str
    objective: float = DEFAULT_OBJECTIVE
    latency_p99_seconds: Optional[float] = DEFAULT_LATENCY_BUDGET
    round_budget: Optional[int] = None

    def error_budget(self) -> float:
        """The allowed bad fraction, ``1 - objective``."""
        return max(0.0, 1.0 - self.objective)


@dataclass(frozen=True)
class QuerySample:
    """One finished query, reduced to what the SLO dimensions need."""

    engine: str
    latency_seconds: Optional[float] = None
    rounds: Optional[int] = None
    guarantees_passed: Optional[bool] = None
    dropped_machines: int = 0
    failed_attempts: int = 0
    trace_id: str = ""
    query_id: int = -1

    def violations(self, slo: SLO) -> Dict[str, bool]:
        """Per-dimension verdicts: ``{dimension: is_bad}``.

        Dimensions whose input is unknown (no latency recorded, no
        guarantee verdict, engine without a round budget) are omitted
        rather than counted good — absence of evidence is not
        compliance.
        """
        out: Dict[str, bool] = {}
        if slo.latency_p99_seconds is not None \
                and self.latency_seconds is not None:
            out["latency"] = self.latency_seconds > slo.latency_p99_seconds
        if slo.round_budget is not None and self.rounds is not None:
            out["rounds"] = self.rounds > slo.round_budget
        if self.guarantees_passed is not None:
            out["guarantees"] = not self.guarantees_passed
        out["faults"] = self.dropped_machines > 0
        return out


def burn_rate(bad: int, total: int, objective: float) -> float:
    """Error-budget burn of ``bad``/``total`` samples at *objective*."""
    if total <= 0 or bad <= 0:
        return 0.0
    rate = bad / total
    budget = 1.0 - objective
    if budget <= 0.0:
        return float("inf")
    return rate / budget


def sample_from_outcome(outcome) -> QuerySample:
    """Reduce a live :class:`~repro.service.QueryOutcome` to a sample."""
    summary = outcome.stats.summary()
    return QuerySample(
        engine=outcome.engine,
        latency_seconds=outcome.latency_seconds,
        rounds=summary.get("rounds"),
        guarantees_passed=outcome.guarantees_passed,
        dropped_machines=summary.get("dropped_machines", 0),
        failed_attempts=summary.get("failed_attempts", 0),
        trace_id=outcome.trace_id,
        query_id=outcome.query_id)


def sample_from_record(record: dict) -> QuerySample:
    """Reduce a run-history / baseline record to a sample.

    Works for per-query ``serve`` records (which carry
    ``latency_seconds`` at top level), one-shot records (falls back to
    the ledger's ``wall_seconds``), and the enriched ``per_query``
    entries of ``serve-bench`` records passed through unchanged.
    """
    summary = record.get("summary", {})
    guarantees = record.get("guarantees")
    passed = None
    if isinstance(guarantees, dict) and "passed" in guarantees:
        passed = bool(guarantees["passed"])
    elif "guarantees_passed" in record \
            and record["guarantees_passed"] is not None:
        passed = bool(record["guarantees_passed"])
    latency = record.get("latency_seconds",
                         summary.get("wall_seconds"))
    return QuerySample(
        engine=record.get("engine") or "",
        latency_seconds=latency,
        rounds=record.get("rounds", summary.get("rounds")),
        guarantees_passed=passed,
        dropped_machines=record.get(
            "dropped_machines", summary.get("dropped_machines", 0)),
        failed_attempts=record.get(
            "failed_attempts", summary.get("failed_attempts", 0)),
        trace_id=record.get("trace_id", ""),
        query_id=record.get("query_id", -1))


def default_slos(latency_p99: float = DEFAULT_LATENCY_BUDGET,
                 objective: float = DEFAULT_OBJECTIVE
                 ) -> Dict[str, SLO]:
    """One SLO per registered engine, round budgets from its cost model.

    The round budget is the engine's advertised bound (ulam-mpc 2,
    edit-mpc 4, ...); engines without a round bound (exact
    single-machine engines) get no round dimension.
    """
    from ..engines import all_engines
    out: Dict[str, SLO] = {}
    for engine in all_engines():
        caps = engine.caps
        out[caps.name] = SLO(engine=caps.name, objective=objective,
                             latency_p99_seconds=latency_p99,
                             round_budget=caps.cost.rounds)
    return out


@dataclass(frozen=True)
class SLOReport:
    """One engine's rolling-window verdict.

    ``dimensions`` maps each evaluated dimension to
    ``{"bad": int, "evaluated": int, "rate": float, "burn": float}``;
    ``worst_burn`` is the max across dimensions and ``ok`` means every
    dimension burns within budget (``<= 1.0``).
    """

    engine: str
    objective: float
    n_samples: int
    dimensions: Dict[str, dict] = field(default_factory=dict)

    @property
    def worst_burn(self) -> float:
        return max((d["burn"] for d in self.dimensions.values()),
                   default=0.0)

    @property
    def ok(self) -> bool:
        return self.worst_burn <= 1.0

    def to_dict(self) -> dict:
        return {"engine": self.engine, "objective": self.objective,
                "n_samples": self.n_samples,
                "dimensions": {k: dict(v)
                               for k, v in self.dimensions.items()},
                "worst_burn": self.worst_burn, "ok": self.ok}


class SLOMonitor:
    """Rolling-window burn-rate monitor over query samples.

    Feed it live outcomes (``observe_outcome``) or history records
    (``observe_record``); read :meth:`reports` / :meth:`alerts`.  The
    window is per engine and bounded (oldest samples fall off), so a
    long-lived service alerts on *recent* burn, not on a bad hour last
    week.
    """

    def __init__(self, slos: Optional[Mapping[str, SLO]] = None,
                 window: int = 256) -> None:
        self._slos: Dict[str, SLO] = dict(slos) if slos is not None \
            else default_slos()
        self._window = window
        self._samples: Dict[str, Deque[QuerySample]] = {}

    def slo_for(self, engine: str) -> SLO:
        """The engine's SLO (a default one for unregistered engines)."""
        slo = self._slos.get(engine)
        if slo is None:
            slo = SLO(engine=engine)
            self._slos[engine] = slo
        return slo

    def observe(self, sample: QuerySample) -> None:
        window = self._samples.get(sample.engine)
        if window is None:
            window = self._samples[sample.engine] = \
                deque(maxlen=self._window)
        window.append(sample)

    def observe_outcome(self, outcome) -> None:
        self.observe(sample_from_outcome(outcome))

    def observe_record(self, record: dict) -> None:
        self.observe(sample_from_record(record))

    def report(self, engine: str) -> SLOReport:
        """The engine's burn-rate report over its current window."""
        slo = self.slo_for(engine)
        samples = list(self._samples.get(engine, ()))
        bad: Dict[str, int] = {}
        evaluated: Dict[str, int] = {}
        for sample in samples:
            for dim, is_bad in sample.violations(slo).items():
                evaluated[dim] = evaluated.get(dim, 0) + 1
                if is_bad:
                    bad[dim] = bad.get(dim, 0) + 1
        dimensions = {
            dim: {"bad": bad.get(dim, 0), "evaluated": n,
                  "rate": (bad.get(dim, 0) / n) if n else 0.0,
                  "burn": burn_rate(bad.get(dim, 0), n, slo.objective)}
            for dim, n in sorted(evaluated.items())}
        return SLOReport(engine=engine, objective=slo.objective,
                         n_samples=len(samples), dimensions=dimensions)

    def reports(self) -> List[SLOReport]:
        """Reports for every engine with at least one sample."""
        return [self.report(engine)
                for engine in sorted(self._samples)]

    def alerts(self, threshold: float = 1.0) -> List[str]:
        """Human-readable alerts for dimensions burning over budget."""
        out: List[str] = []
        for report in self.reports():
            for dim, row in report.dimensions.items():
                if row["burn"] > threshold:
                    out.append(
                        f"{report.engine}: {dim} burn "
                        f"{row['burn']:.1f}x error budget "
                        f"({row['bad']}/{row['evaluated']} queries over "
                        f"budget, objective {report.objective:.0%})")
        return out


def format_burn_rates(monitor: SLOMonitor) -> str:
    """The burn-rate table of ``serve --slo`` and the SLO gate: one row
    per engine (samples, burn per dimension, ok/BURNING), then one
    ``ALERT:`` line per dimension burning over budget."""
    lines = []
    for report in monitor.reports():
        dims = "  ".join(f"{dim}={row['burn']:.2f}x"
                         for dim, row in report.dimensions.items())
        lines.append(f"{report.engine:<20} "
                     f"samples={report.n_samples:<4} {dims}  "
                     + ("ok" if report.ok else "BURNING"))
    lines += [f"ALERT: {alert}" for alert in monitor.alerts()]
    return "\n".join(lines)
