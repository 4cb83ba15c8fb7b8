"""Post-run guarantee monitor: did a run meet the paper's promises?

The drivers return *measured* resources (:class:`~repro.mpc.accounting.
RunStats`) and a distance that is always a valid upper bound; the
theorems promise more — an approximation factor (``1+ε`` for Ulam,
Theorem 4; ``3+ε`` for edit distance, Theorem 9), per-machine memory
``Õ_ε(n^(1-x))``, machine count ``Õ_ε(n^x)`` / ``Õ_ε(n^(9/5·x))`` and a
constant round count (2 / 4).  This module turns each promise into a
measurable check against one finished run and aggregates the verdicts
into a :class:`GuaranteeReport` that serialises into run records
(:mod:`repro.registry`) and drives the ``--check-guarantees`` CLI flag.

Reference distances
-------------------
The approximation check needs the true distance ``d`` — which the MPC
algorithm exists to avoid computing.  Two affordable routes:

* **exact** — when the banded DP with band ``ub`` (certified exact in
  ``O(ub·n)`` work, Ukkonen) fits ``work_cap``, the exact distance comes
  from Myers' bit-parallel DP
  (:func:`~repro.strings.edit_distance.levenshtein`), one word step
  per symbol of the shorter string; a distance above ``ub`` refutes the
  claimed upper bound.
* **certified lower bound** — otherwise run the banded DP with the
  *smaller* band ``k₀ = ⌈ub/factor⌉ - 1``.  If it certifies ``d > k₀``
  then ``d ≥ ub/factor``, hence ``ub/d ≤ factor`` — the guarantee holds
  even though ``d`` itself stays unknown.  If it instead returns a
  value, that value *is* the exact distance and the ratio is computed
  directly.

If even the lower-bound route exceeds ``work_cap`` the ratio check is
*skipped* (reported as such, never silently passed as verified).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..mpc.accounting import RunStats
from ..strings.banded import levenshtein_banded
from ..strings.edit_distance import levenshtein
from ..strings.types import as_array

__all__ = ["GuaranteeCheck", "GuaranteeReport", "reference_distance",
           "machine_budget", "check_ulam_guarantees",
           "check_edit_guarantees", "check_approx_guarantees",
           "format_guarantees"]

#: Default cap on band·n work for the reference-distance DP (~a second
#: of NumPy row DP); beyond it the ratio check degrades to the certified
#: lower bound and finally to "skipped".
DEFAULT_WORK_CAP = 50_000_000

#: Constant in front of the machine-count budget ``slack·n^e·log₂n``
#: (the ``Õ`` of Theorems 4/9 hides polylog factors; 2 is roomy for the
#: whole Table-1 grid while still catching a mis-parameterised run,
#: whose machine count scales with a different power of ``n``).
MACHINE_SLACK = 2.0


@dataclass
class GuaranteeCheck:
    """One measurable promise: measured value vs bound, with a verdict."""

    name: str
    passed: bool
    measured: Optional[float]
    bound: Optional[float]
    detail: str = ""
    skipped: bool = False

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "measured": self.measured, "bound": self.bound,
                "detail": self.detail, "skipped": self.skipped}


@dataclass
class GuaranteeReport:
    """Aggregated verdict of every check run against one execution."""

    algorithm: str
    checks: List[GuaranteeCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when no check failed (skipped checks do not fail)."""
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> List[GuaranteeCheck]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {"algorithm": self.algorithm, "passed": self.passed,
                "checks": [c.to_dict() for c in self.checks]}


# ---------------------------------------------------------------------------
# Reference distance

def reference_distance(s, t, upper_bound: int, factor: float,
                       work_cap: int = DEFAULT_WORK_CAP
                       ) -> Dict[str, object]:
    """Exact distance, or a certified lower bound, or a shrug.

    Returns a dict with ``mode`` one of ``"exact"`` / ``"lower-bound"``
    / ``"skipped"``; ``distance`` (exact mode), ``lower_bound``
    (lower-bound mode) and ``valid_upper_bound`` (False only when the
    claimed upper bound is *refuted* — a driver bug, not slack).
    """
    S, T = as_array(s), as_array(t)
    n = max(len(S), len(T), 1)
    ub = int(upper_bound)
    if ub < abs(len(S) - len(T)):
        # Length difference is a universal lower bound; no DP needed.
        return {"mode": "exact", "distance": None,
                "valid_upper_bound": False}
    if (ub + 1) * n <= work_cap:
        # The distance is symmetric: the shorter string is the pattern,
        # whose symbols are the sweep's steps.
        d = levenshtein(S, T) if len(S) <= len(T) else levenshtein(T, S)
        if d > ub:
            return {"mode": "exact", "distance": None,
                    "valid_upper_bound": False}
        return {"mode": "exact", "distance": d, "valid_upper_bound": True}
    k0 = max(int(math.ceil(ub / factor)) - 1, 0)
    if (k0 + 1) * n <= work_cap:
        d = levenshtein_banded(S, T, k0)
        if d is None:
            # Certified d ≥ k0 + 1 ≥ ub/factor: the ratio bound holds.
            return {"mode": "lower-bound", "lower_bound": k0 + 1,
                    "valid_upper_bound": True}
        return {"mode": "exact", "distance": int(d),
                "valid_upper_bound": True}
    return {"mode": "skipped", "valid_upper_bound": True}


def machine_budget(n: int, exponent: float,
                   slack: float = MACHINE_SLACK) -> int:
    """``slack · n^exponent · log₂n`` — the ``Õ(n^exponent)`` machine cap."""
    return max(1, int(slack * (n ** exponent)
                      * max(math.log2(max(n, 2)), 1.0)))


# ---------------------------------------------------------------------------
# Shared checks

def _ratio_check(s, t, distance: int, factor: float,
                 work_cap: int) -> GuaranteeCheck:
    ref = reference_distance(s, t, distance, factor, work_cap=work_cap)
    if not ref["valid_upper_bound"]:
        return GuaranteeCheck(
            name="approximation_ratio", passed=False,
            measured=None, bound=factor,
            detail=f"returned value {distance} is not a valid upper "
                   "bound on the true distance")
    if ref["mode"] == "exact":
        d = ref["distance"]
        if d == 0:
            ratio = 1.0 if distance == 0 else math.inf
        else:
            ratio = distance / d
        return GuaranteeCheck(
            name="approximation_ratio", passed=ratio <= factor,
            measured=round(ratio, 4), bound=factor,
            detail=f"exact distance {d}, returned {distance}")
    if ref["mode"] == "lower-bound":
        lb = ref["lower_bound"]
        ratio_bound = distance / lb if lb else math.inf
        return GuaranteeCheck(
            name="approximation_ratio", passed=ratio_bound <= factor,
            measured=round(ratio_bound, 4), bound=factor,
            detail=f"certified lower bound {lb} (banded DP), "
                   f"returned {distance}")
    return GuaranteeCheck(
        name="approximation_ratio", passed=True, measured=None,
        bound=factor, skipped=True,
        detail="reference distance too expensive at this size; "
               "ratio not verified")


def _memory_check(stats: RunStats, memory_limit: int) -> GuaranteeCheck:
    measured = stats.max_memory_words
    return GuaranteeCheck(
        name="machine_memory", passed=measured <= memory_limit,
        measured=measured, bound=memory_limit,
        detail="per-machine high-water words vs the "
               "slack·n^(1-x)·log₂n/ε'² cap")


def _machines_check(stats: RunStats, n: int, exponent: float,
                    label: str) -> GuaranteeCheck:
    budget = machine_budget(n, exponent)
    measured = stats.max_machines
    return GuaranteeCheck(
        name="machine_count", passed=measured <= budget,
        measured=measured, bound=budget,
        detail=f"max machines in any round vs Õ({label})")


def _rounds_check(stats: RunStats, bound: int) -> GuaranteeCheck:
    return GuaranteeCheck(
        name="round_count", passed=stats.n_rounds <= bound,
        measured=stats.n_rounds, bound=bound,
        detail="communication rounds (parallel-guess semantics)")


# ---------------------------------------------------------------------------
# Per-algorithm entry points

def check_ulam_guarantees(s, t, result,
                          work_cap: int = DEFAULT_WORK_CAP
                          ) -> GuaranteeReport:
    """Check a :class:`~repro.ulam.driver.UlamResult` against Theorem 4.

    Promises checked: ``1+ε`` approximation, per-machine memory,
    ``Õ(n^x)`` machines, 2 rounds.
    """
    params = result.params
    factor = 1.0 + params.eps
    report = GuaranteeReport(algorithm="ulam")
    report.checks.append(
        _ratio_check(s, t, result.distance, factor, work_cap))
    report.checks.append(_memory_check(result.stats, params.memory_limit))
    report.checks.append(
        _machines_check(result.stats, params.n, params.x, "n^x"))
    report.checks.append(_rounds_check(result.stats, 2))
    return report


def check_edit_guarantees(s, t, result,
                          work_cap: int = DEFAULT_WORK_CAP
                          ) -> GuaranteeReport:
    """Check an :class:`~repro.editdistance.driver.EditResult` against
    Theorem 9.

    Promises checked: ``3+ε`` approximation, per-machine memory,
    ``Õ(n^(9/5·x))`` machines, 4 rounds.
    """
    params = result.params
    factor = 3.0 + params.eps
    report = GuaranteeReport(algorithm="edit")
    report.checks.append(
        _ratio_check(s, t, result.distance, factor, work_cap))
    report.checks.append(_memory_check(result.stats, params.memory_limit))
    report.checks.append(
        _machines_check(result.stats, params.n, 1.8 * params.x,
                        "n^(9/5·x)"))
    report.checks.append(_rounds_check(result.stats, 4))
    return report


def check_approx_guarantees(s, t, distance: int, stats: RunStats, *,
                            algorithm: str, factor: float,
                            memory_limit: Optional[int] = None,
                            machines_bound: Optional[int] = None,
                            machines_label: str = "",
                            rounds_bound: Optional[int] = None,
                            work_cap: int = DEFAULT_WORK_CAP
                            ) -> GuaranteeReport:
    """Generic checker for registry engines (exact / HSS / BEGHS).

    Every engine promises *some* approximation factor — ``1.0`` for the
    exact engines, ``1+ε`` for the HSS and BEGHS baselines — verified
    through the same certified :func:`reference_distance` route as the
    paper's theorems.  Resource bounds are optional: pass
    ``memory_limit`` / ``machines_bound`` / ``rounds_bound`` when the
    engine makes those promises (single-machine engines pass 1 / 1).
    """
    report = GuaranteeReport(algorithm=algorithm)
    report.checks.append(
        _ratio_check(s, t, distance, factor, work_cap))
    if memory_limit is not None:
        report.checks.append(_memory_check(stats, memory_limit))
    if machines_bound is not None:
        report.checks.append(GuaranteeCheck(
            name="machine_count",
            passed=stats.max_machines <= machines_bound,
            measured=stats.max_machines, bound=machines_bound,
            detail=f"max machines in any round vs "
                   f"{machines_label or machines_bound}"))
    if rounds_bound is not None:
        report.checks.append(_rounds_check(stats, rounds_bound))
    return report


def format_guarantees(report: GuaranteeReport) -> str:
    """Human-readable verdict table for the CLI."""
    lines = [f"guarantees[{report.algorithm}]: "
             + ("PASS" if report.passed else "FAIL")]
    for c in report.checks:
        status = "skip" if c.skipped else ("ok" if c.passed else "FAIL")
        bound = "-" if c.bound is None else f"{c.bound:g}"
        measured = "-" if c.measured is None else f"{c.measured:g}"
        lines.append(f"  [{status:>4}] {c.name:<21} "
                     f"measured={measured:<12} bound={bound:<12} "
                     f"{c.detail}")
    return "\n".join(lines)
