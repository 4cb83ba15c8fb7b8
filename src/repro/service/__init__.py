"""Persistent distance service: concurrent queries over one executor.

One-shot runs rebuild the world per query — simulator, worker pool,
shared-memory publishes — which caps throughput far below what the
algorithms themselves cost.  This package keeps the expensive state
*persistent*, the way the paper's MPC model keeps machines and data
placement alive across rounds:

* :class:`~repro.service.corpus.Corpus` — a registered input pair,
  content-addressed and reference-counted, whose derived arrays are
  published into shared memory **once** and sliced by every query;
* :class:`~repro.service.service.DistanceService` — the asyncio
  front end: admission control (memory caps, bounded in-flight machine
  work), one shared executor, per-query scoped ledgers and guarantee
  verdicts, drain-and-assert-clean shutdown;
* :func:`~repro.service.client.run_workload` — the synchronous batch
  client the ``repro serve`` CLI subcommands sit on;
* :mod:`~repro.service.runner` — the synchronous driver the one-shot
  ``mpc_ulam`` / ``mpc_edit_distance`` wrappers use, so both paths
  execute the same resumable query objects and produce byte-identical
  ledgers.
"""

from .corpus import Corpus, content_id
from .runner import drive, run_query
from .service import (AdmissionError, DistanceService, QueryHandle,
                      QueryOutcome)
from .client import run_workload

__all__ = ["Corpus", "content_id", "drive", "run_query",
           "AdmissionError", "DistanceService", "QueryHandle",
           "QueryOutcome", "run_workload"]
