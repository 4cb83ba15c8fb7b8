"""Pluggable distance-engine registry: one entry point, many engines.

``repro.engines`` is the single dispatch surface for every distance
algorithm in the repo.  The CLI ``solve`` subcommand, the legacy
``ulam``/``edit``/``hss``/``beghs``/``chaos`` aliases, and the
:class:`repro.service.DistanceService` all resolve algorithms here; the
driver modules themselves are an implementation detail the API-boundary
checker walls off.

Quick tour::

    from repro.engines import EngineRequest, get_engine, select_engine

    req = EngineRequest(distance="edit", s=s, t=t)
    engine = select_engine(req)          # cheapest admissible engine
    result = engine.solve(req)           # EngineResult: distance+ledger
    report = engine.check_guarantees(s, t, result)

See :mod:`repro.engines.base` for the protocol, ``registry`` for the
planner, ``builtin`` for the eight shipped engines, and TUTORIAL §13 for
writing your own engine in ~50 lines.
"""

from .base import (CostModel, Engine, EngineCaps, EngineRequest,
                   EngineResult, GUARANTEE_STRENGTH, Regime,
                   SolveStepQuery, guarantee_strength)
from .registry import (NoEngineError, all_engines, default_engine,
                       distances, engines_for, get_engine, register,
                       select_engine, workload_kind)

__all__ = [
    "CostModel", "Engine", "EngineCaps", "EngineRequest", "EngineResult",
    "GUARANTEE_STRENGTH", "Regime", "SolveStepQuery",
    "guarantee_strength",
    "NoEngineError", "all_engines", "default_engine", "distances",
    "engines_for", "get_engine", "register", "select_engine",
    "workload_kind",
]
