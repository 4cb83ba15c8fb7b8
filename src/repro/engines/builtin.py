"""The built-in engines: every driver in the repo behind one protocol.

Six engines register on import:

========================  ========  ===========  ==================
name                      distance  guarantee    model
========================  ========  ===========  ==================
``ulam-mpc``              ulam      1+eps        MPC (Theorem 4)
``edit-mpc``              edit      3+eps        MPC (Theorem 9)
``hss``                   edit      1+eps        MPC (HSS'19)
``beghs``                 edit      1+eps        MPC (BEGHS'18)
``exact-ulam``            ulam      exact        single machine
``exact-edit``            edit      exact        single machine
========================  ========  ===========  ==================

Porting contract: the MPC engines delegate to the existing drivers with
identical defaults and simulator handling, so their ledgers are
byte-identical to the pre-registry call paths (golden-equivalence
fixtures).  Driver imports stay *inside* method bodies: importing the
registry costs nothing, and this module is the single sanctioned
importer of ``repro.ulam.driver`` / ``repro.editdistance.driver`` /
``repro.baselines`` outside the driver packages themselves (the
API-boundary checker enforces it).

Cost-model constants are calibrated against measured ``total_work`` at
n≈256–1024 (benchmark E24): exact DP is the cheapest engine far beyond
those sizes — the MPC engines' asymptotics only win past the exact
engines' crossover, which is exactly what ``max_n`` on their regime
encodes.
"""

from __future__ import annotations

from typing import Optional

from ..analysis.guarantees import (DEFAULT_WORK_CAP, check_approx_guarantees,
                                   check_edit_guarantees,
                                   check_ulam_guarantees, machine_budget)
from ..params import EditParams, UlamParams
from .base import (CostModel, Engine, EngineCaps, EngineRequest,
                   EngineResult, Regime)
from .registry import register

__all__ = ["EXACT_CROSSOVER_N", "UlamMpcEngine", "EditMpcEngine",
           "HssEngine", "BeghsEngine", "ExactUlamEngine",
           "ExactEditEngine"]

#: Largest n the exact single-machine engines admit: beyond it the
#: quadratic DP (~n² work) stops being the cheapest answer and `auto`
#: must fall over to the MPC engines.
EXACT_CROSSOVER_N = 1 << 16


def _work_cap(work_cap: Optional[int]) -> int:
    return DEFAULT_WORK_CAP if work_cap is None else work_cap


def _raw(result):
    """Unwrap an :class:`EngineResult` to the driver's native result.

    A driver result passed directly (no ``raw`` attribute) is returned
    as it is.
    """
    inner = getattr(result, "raw", None)
    return result if inner is None else inner


# ---------------------------------------------------------------------------
# The paper's MPC engines (Theorems 4 and 9)

class UlamMpcEngine(Engine):
    """Theorem 4: 2-round ``1+ε`` MPC Ulam distance."""

    caps = EngineCaps(
        name="ulam-mpc", title="MPC Ulam distance (Theorem 4)",
        distances=("ulam",),
        regime=Regime(min_n=0, requires_duplicate_free=True, max_x=0.5),
        guarantee="1+eps (w.h.p.)", guarantee_class="1+eps",
        cost=CostModel(work_exponent=2.0, log_power=1.0, constant=20.0,
                       rounds=2),
        model="mpc", default_x=0.25, default_eps=0.5, primary=True)

    def memory_limit(self, n, x, eps):
        return UlamParams(n=max(n, 2), x=x, eps=eps).memory_limit

    def solve(self, request: EngineRequest) -> EngineResult:
        from ..ulam.driver import mpc_ulam
        x, eps = self.resolve_params(request)
        res = mpc_ulam(request.s, request.t, x=x, eps=eps,
                       sim=request.sim, config=request.config,
                       seed=request.seed,
                       keep_tuples=bool(request.options.get("keep_tuples")),
                       data_plane=request.data_plane)
        return EngineResult(
            engine=self.caps.name, distance=res.distance, n=res.n,
            params={"x": x, "eps": eps}, stats=res.stats, raw=res,
            extra={"guarantee": f"1+{eps}"})

    def check_guarantees(self, s, t, result, work_cap=None):
        return check_ulam_guarantees(s, t, _raw(result),
                                     work_cap=_work_cap(work_cap))

    def make_query(self, corpus, *, x=None, eps=None, seed=0,
                   config=None, keep_tuples=False):
        from ..ulam.driver import UlamQuery
        x, eps = (x if x is not None else self.caps.default_x,
                  eps if eps is not None else self.caps.default_eps)
        return UlamQuery(corpus, x=x, eps=eps, config=config, seed=seed,
                         keep_tuples=keep_tuples)


class EditMpcEngine(Engine):
    """Theorem 9: constant-round ``3+ε`` MPC edit distance."""

    caps = EngineCaps(
        name="edit-mpc", title="MPC edit distance (Theorem 9)",
        distances=("edit",),
        regime=Regime(min_n=0, max_x=5.0 / 17.0),
        guarantee="3+eps (w.h.p.)", guarantee_class="3+eps",
        cost=CostModel(work_exponent=1.8, log_power=1.0, constant=40.0,
                       rounds=4),
        model="mpc", default_x=0.25, default_eps=1.0, primary=True)

    def memory_limit(self, n, x, eps):
        if n <= 1:
            return EditParams(n=2, x=min(x, 5 / 17), eps=eps).memory_limit
        return EditParams(n=n, x=x, eps=eps).memory_limit

    def solve(self, request: EngineRequest) -> EngineResult:
        from ..editdistance.driver import mpc_edit_distance
        x, eps = self.resolve_params(request)
        res = mpc_edit_distance(request.s, request.t, x=x, eps=eps,
                                sim=request.sim, config=request.config,
                                seed=request.seed,
                                data_plane=request.data_plane)
        return EngineResult(
            engine=self.caps.name, distance=res.distance, n=res.n,
            params={"x": x, "eps": eps}, stats=res.stats, raw=res,
            extra={"guarantee": f"3+{eps}", "regime": res.regime,
                   "accepted_guess": res.accepted_guess})

    def check_guarantees(self, s, t, result, work_cap=None):
        return check_edit_guarantees(s, t, _raw(result),
                                     work_cap=_work_cap(work_cap))

    def make_query(self, corpus, *, x=None, eps=None, seed=0,
                   config=None, keep_tuples=False):
        from ..editdistance.driver import EditQuery
        x, eps = (x if x is not None else self.caps.default_x,
                  eps if eps is not None else self.caps.default_eps)
        return EditQuery(corpus, x=x, eps=eps, config=config, seed=seed)


# ---------------------------------------------------------------------------
# Baseline MPC engines (Table 1 rows 3 and 4)

class HssEngine(Engine):
    """HSS'19 baseline: ``1+ε`` in 2 rounds, ``Õ(n^2x)`` machines."""

    caps = EngineCaps(
        name="hss", title="HSS'19 baseline edit distance",
        distances=("edit",),
        regime=Regime(min_n=0, max_x=5.0 / 17.0),
        guarantee="1+eps (w.h.p.)", guarantee_class="1+eps",
        cost=CostModel(work_exponent=2.0, log_power=1.0, constant=40.0,
                       rounds=2),
        model="mpc", default_x=0.25, default_eps=1.0)

    def memory_limit(self, n, x, eps):
        if n <= 1:
            return EditParams(n=2, x=min(x, 5 / 17), eps=eps).memory_limit
        return EditParams(n=n, x=x, eps=eps).memory_limit

    def solve(self, request: EngineRequest) -> EngineResult:
        from ..baselines.hss import hss_edit_distance
        x, eps = self.resolve_params(request)
        res = hss_edit_distance(request.s, request.t, x=x, eps=eps,
                                sim=request.sim)
        return EngineResult(
            engine=self.caps.name, distance=res.distance, n=res.n,
            params={"x": x, "eps": eps}, stats=res.stats, raw=res,
            extra={"guarantee": f"1+{eps}",
                   "accepted_guess": res.accepted_guess})

    def check_guarantees(self, s, t, result, work_cap=None):
        raw = _raw(result)
        n = max(raw.n, 2)
        return check_approx_guarantees(
            s, t, raw.distance, raw.stats, algorithm="hss",
            factor=1.0 + raw.params.eps,
            memory_limit=raw.params.memory_limit,
            machines_bound=machine_budget(n, 2 * raw.params.x),
            machines_label="Õ(n^2x)",
            rounds_bound=2 * max(1, len(raw.per_guess)),
            work_cap=_work_cap(work_cap))


class BeghsEngine(Engine):
    """BEGHS'18 baseline: ``1+O(ε)`` in ``O(log n)`` rounds."""

    caps = EngineCaps(
        name="beghs", title="BEGHS'18 baseline edit distance",
        distances=("edit",),
        regime=Regime(min_n=0),
        guarantee="1+O(eps)", guarantee_class="1+eps",
        cost=CostModel(work_exponent=1.9, log_power=1.0, constant=30.0),
        model="mpc", default_x=None, default_eps=1.0)

    def solve(self, request: EngineRequest) -> EngineResult:
        from ..baselines.beghs import beghs_edit_distance
        _, eps = self.resolve_params(request)
        res = beghs_edit_distance(request.s, request.t, eps=eps,
                                  sim=request.sim)
        return EngineResult(
            engine=self.caps.name, distance=res.distance, n=res.n,
            params={"x": None, "eps": eps}, stats=res.stats, raw=res,
            extra={"guarantee": f"1+O({eps})", "tree_depth": res.depth})

    def check_guarantees(self, s, t, result, work_cap=None):
        raw = _raw(result)
        n = max(raw.n, 2)
        # Quantisation costs ≤ ε·D overall (module docstring), so 1+ε is
        # the checkable factor; rounds are 1 + depth per guess tried.
        return check_approx_guarantees(
            s, t, raw.distance, raw.stats, algorithm="beghs",
            factor=1.0 + raw.eps,
            machines_bound=machine_budget(n, 8.0 / 9.0),
            machines_label="Õ(n^(8/9))",
            rounds_bound=(raw.depth + 1) * max(1, len(raw.per_guess)) + 1,
            work_cap=_work_cap(work_cap))


# ---------------------------------------------------------------------------
# Single-machine exact engines (the x → 0 corner of Table 1)

class _ExactEngineBase(Engine):
    def check_guarantees(self, s, t, result, work_cap=None):
        raw = _raw(result)
        return check_approx_guarantees(
            s, t, raw.distance, raw.stats,
            algorithm=self.caps.name, factor=1.0,
            machines_bound=1, machines_label="1 machine",
            rounds_bound=1, work_cap=_work_cap(work_cap))


class ExactUlamEngine(_ExactEngineBase):
    """Exact Ulam distance on one machine (banded match-point DP)."""

    caps = EngineCaps(
        name="exact-ulam", title="Single-machine exact Ulam distance",
        distances=("ulam",),
        regime=Regime(min_n=0, max_n=EXACT_CROSSOVER_N,
                      requires_duplicate_free=True),
        guarantee="exact", guarantee_class="exact",
        cost=CostModel(work_exponent=2.0),
        model="single-machine")

    def solve(self, request: EngineRequest) -> EngineResult:
        from ..baselines.single_machine import single_machine_ulam
        res = single_machine_ulam(request.s, request.t, sim=request.sim)
        return EngineResult(
            engine=self.caps.name, distance=res.distance, n=res.n,
            params={"x": None, "eps": None}, stats=res.stats, raw=res,
            extra={"guarantee": "exact"})


class ExactEditEngine(_ExactEngineBase):
    """Exact edit distance on one machine (Ukkonen doubling DP)."""

    caps = EngineCaps(
        name="exact-edit", title="Single-machine exact edit distance",
        distances=("edit",),
        regime=Regime(min_n=0, max_n=EXACT_CROSSOVER_N),
        guarantee="exact", guarantee_class="exact",
        cost=CostModel(work_exponent=2.0),
        model="single-machine")

    def solve(self, request: EngineRequest) -> EngineResult:
        from ..baselines.single_machine import single_machine_edit_distance
        res = single_machine_edit_distance(request.s, request.t,
                                           sim=request.sim)
        return EngineResult(
            engine=self.caps.name, distance=res.distance, n=res.n,
            params={"x": None, "eps": None}, stats=res.stats, raw=res,
            extra={"guarantee": "exact"})


for _engine_cls in (UlamMpcEngine, EditMpcEngine, HssEngine, BeghsEngine,
                    ExactUlamEngine, ExactEditEngine):
    register(_engine_cls())
