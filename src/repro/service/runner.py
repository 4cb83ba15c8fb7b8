"""Synchronous query driver: step a resumable query to completion.

A query object (``UlamQuery`` / ``EditQuery``) exposes ``steps(sim)`` —
a generator that executes one MPC round per ``next()`` and stores its
result on ``query.result`` when exhausted.  This module drives that
protocol for the *one-shot* path (``mpc_ulam`` / ``mpc_edit_distance``
and therefore the classic CLI subcommands): run every step in the
calling thread and hand back the result.  The query's metrics ride its
own ledger (``result.stats.metrics``, filled by the simulator and the
driver), so nothing here needs to window them.

The asyncio :class:`~repro.service.service.DistanceService` implements
the same protocol with admission control between steps; because both
paths execute the identical generator against an identically-configured
simulator, their ledgers are byte-for-byte the same (the
golden-equivalence suite holds them to it).
"""

from __future__ import annotations

__all__ = ["drive", "run_query"]


def drive(gen):
    """Exhaust a phase generator; return its ``StopIteration`` value."""
    while True:
        try:
            next(gen)
        except StopIteration as stop:
            return stop.value


def run_query(query, sim):
    """Run *query* on *sim* to completion; return its result.

    The result's :attr:`~repro.mpc.accounting.RunStats.metrics` block
    is built from *sim*'s own rounds, so it is the query's exact
    contribution even when other queries run concurrently in the same
    process, under any executor.
    """
    gen = query.steps(sim)
    try:
        drive(gen)
    finally:
        gen.close()
    return query.result
