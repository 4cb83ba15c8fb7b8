"""Programmatic client for :class:`~repro.service.DistanceService`.

A synchronous batch front door, :func:`run_workload`, used by the
``repro serve`` / ``repro serve-bench`` CLI subcommands and the E23
benchmark: build a service, register every distinct corpus once
(content addressing dedupes identical pairs), fire all queries
concurrently, drain, shut down, and return the outcomes in
*submission order* (so downstream aggregation is deterministic
regardless of completion interleaving).  Code already living in an
event loop calls :meth:`DistanceService.register_corpus` and
:meth:`DistanceService.submit` directly.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..mpc.telemetry import Tracer
from .service import DistanceService, QueryOutcome

__all__ = ["run_workload"]


def run_workload(queries: Sequence[Dict[str, object]],
                 max_workers: Optional[int] = None,
                 max_concurrent_queries: int = 8,
                 max_inflight_rounds: int = 4,
                 machine_memory_cap: Optional[int] = None,
                 data_plane: bool = True,
                 check_guarantees: bool = True,
                 tracer: Optional[Tracer] = None,
                 observer=None,
                 hold_seconds: float = 0.0
                 ) -> Tuple[List[QueryOutcome], float]:
    """Run a batch of queries through one service; return outcomes + wall.

    Each query dict carries ``{"algo": "ulam"|"edit", "s": ..., "t":
    ...}`` plus optional ``engine`` (a registry engine name or
    ``"auto"``; default: the distance's canonical engine) and
    ``x``/``eps``/``seed``/``config``/
    ``fault_plan``/``max_attempts``/``on_exhausted``.  Identical
    ``(s, t)`` pairs share one corpus (content addressing), so a warm
    workload pays one publish per distinct pair no matter how many
    queries reference it.

    Returns ``(outcomes_in_submission_order, wall_seconds)``; the wall
    clock covers registration through shutdown (the number E23 compares
    against back-to-back one-shot runs).

    *observer* is an optional
    :class:`~repro.obs.exporter.ObservabilityServer` (or anything with a
    ``bind(service)`` method): it is bound as soon as the service
    exists, so ``/metrics`` and ``/healthz`` reflect the live batch.
    *hold_seconds* keeps the drained service open (admission still
    accepting) for that long before shutdown — the hook ``repro serve
    --export-linger`` uses so an external scraper can observe a live,
    ready service deterministically.
    """

    async def _main() -> Tuple[List[QueryOutcome], float]:
        start = time.perf_counter()
        async with DistanceService(
                max_workers=max_workers,
                max_concurrent_queries=max_concurrent_queries,
                max_inflight_rounds=max_inflight_rounds,
                machine_memory_cap=machine_memory_cap,
                data_plane=data_plane,
                check_guarantees=check_guarantees,
                tracer=tracer) as service:
            if observer is not None:
                observer.bind(service)
            handles = []
            for q in queries:
                corpus_id = service.register_corpus(q["s"], q["t"])
                kwargs = {k: q[k] for k in
                          ("engine", "x", "eps", "seed", "config",
                           "keep_tuples", "fault_plan", "max_attempts",
                           "on_exhausted", "check_guarantees") if k in q}
                handles.append(service.submit(q["algo"], corpus_id,
                                              **kwargs))
            outcomes = list(await asyncio.gather(*handles))
            if hold_seconds > 0:
                await asyncio.sleep(hold_seconds)
        return outcomes, time.perf_counter() - start

    return asyncio.run(_main())
