"""BSP round simulator with enforced per-machine memory caps.

:class:`MPCSimulator` is the substrate every algorithm in this repository
runs on.  One call to :meth:`MPCSimulator.run_round` corresponds to one MPC
round: a set of machines each receives a payload (checked against the
memory limit), computes locally, and emits an output (also checked).  The
simulator records, per round, exactly the quantities Table 1 of the paper
is stated in: machine count, per-machine memory, total and critical-path
work.

Typical usage::

    sim = MPCSimulator(memory_limit=4 * n_pow)          # words
    outputs = sim.run_round("phase-1", fn, payloads)
    ...
    sim.stats.summary()

To run the same rounds under an injected failure model (machine crashes,
stragglers, corrupted payloads) with bounded-retry recovery, pass a
:class:`~repro.mpc.faults.FaultPlan` (and optionally a
:class:`~repro.mpc.faults.RetryPolicy`).  A round is then one or more
execution waves: every task runs wrapped under its seeded fault
decision, and the failed subset re-runs until it succeeds or the policy
drops or raises.  Without a plan a round is a single wave of unwrapped
tasks.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..metrics import merge_into
from ..obs.profile import fold_global
from .accounting import RoundStats, RunStats, add_work
from .errors import MemoryLimitExceeded, RoundFailedError, RoundProtocolError
from .executor import Executor, SerialExecutor
from .faults import (FaultPlan, RetryPolicy, _InjectedCall, fault_kind,
                     is_failed)
from .machine import Broadcast, MachineResult, MachineTask
from .sizeof import sizeof
from .telemetry import Span, Tracer, current_trace

__all__ = ["MPCSimulator"]


def prepare_broadcast(name: str, payloads: Sequence[Any],
                      broadcast: Optional[Dict[str, Any]]
                      ) -> Tuple[Optional[Broadcast], int]:
    """Validate a round's broadcast blob and price its memory charge.

    Returns ``(wrapped_blob, per_machine_words)``.  Broadcast rounds use
    dict-merge semantics — every payload must be a dict whose keys are
    disjoint from the blob's — so the effective machine input
    ``{**broadcast, **payload}`` weighs exactly
    ``sizeof(payload) + sizeof(broadcast) - 1`` words (the two dict
    framing words collapse into one).  Charging that per machine keeps
    the memory ledger identical to the replicate-into-every-payload
    encoding the broadcast channel replaces.
    """
    if broadcast is None:
        return None, 0
    if not isinstance(broadcast, dict):
        raise RoundProtocolError(
            f"round {name!r}: broadcast must be a dict, got "
            f"{type(broadcast).__name__}")
    bkeys = set(broadcast)
    for i, payload in enumerate(payloads):
        if not isinstance(payload, dict):
            raise RoundProtocolError(
                f"round {name!r}: broadcast rounds require dict payloads, "
                f"machine {i} got {type(payload).__name__}")
        clash = bkeys.intersection(payload)
        if clash:
            raise RoundProtocolError(
                f"round {name!r}: payload of machine {i} shadows "
                f"broadcast key(s) {sorted(clash)!r}")
    return Broadcast(broadcast), sizeof(broadcast) - 1


class MPCSimulator:
    """Simulates a fleet of memory-capped machines executing BSP rounds.

    Parameters
    ----------
    memory_limit:
        Per-machine memory cap in MPC words (``None`` disables the cap —
        useful for ground-truth baselines that deliberately ignore the
        model, e.g. the single-machine exact DP).
    executor:
        How machines within a round run; defaults to
        :class:`repro.mpc.executor.SerialExecutor`.
    tracer:
        Optional :class:`~repro.mpc.telemetry.Tracer`; when set, every
        machine attempt and every round emits a span — discarded
        attempts with ``wasted=True`` and their fault kind.  ``None``
        (default) disables telemetry entirely — the only cost is one
        ``is None`` check per round, the same cheap-no-op pattern as
        :func:`~repro.mpc.accounting.add_work`.
    fault_plan:
        The seeded failure model to inject.  ``None`` (default) disables
        injection: tasks run unwrapped in a single wave and a machine
        exception propagates.
    retry_policy:
        Recovery knobs under a fault plan (attempts, backoff, budget,
        drop-or-raise); default :class:`~repro.mpc.faults.RetryPolicy`.
    realtime:
        Under a fault plan, stragglers really sleep their inflation.
    """

    def __init__(self, memory_limit: Optional[int] = None,
                 executor: Optional[Executor] = None,
                 tracer: Optional[Tracer] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 realtime: bool = False) -> None:
        self.memory_limit = memory_limit
        self.executor = executor or SerialExecutor()
        self.tracer = tracer
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy or RetryPolicy()
        self.realtime = realtime
        self.stats = RunStats()

    # ------------------------------------------------------------------
    def _check(self, round_name: str, index: int, direction: str,
               words: int) -> None:
        if self.memory_limit is None or words <= self.memory_limit:
            return
        raise MemoryLimitExceeded(round_name, index, direction, words,
                                  self.memory_limit)

    # ------------------------------------------------------------------
    def run_round(self, name: str, fn: Callable[[Any], Any],
                  payloads: Sequence[Any],
                  allow_empty: bool = False,
                  broadcast: Optional[Dict[str, Any]] = None) -> List[Any]:
        """Execute one MPC round.

        Every element of *payloads* is routed to its own machine, which
        runs ``fn(payload)``.  Returns the machine outputs in payload
        order.  Under a fault plan, failed machines are re-executed
        (same payload, same machine index, fresh attempt number) until
        they succeed or the retry policy is exhausted; a machine dropped
        under ``on_exhausted="drop"`` leaves ``None`` at its position, so
        consumers that pair outputs with payloads positionally stay
        aligned and must skip ``None``.

        Parameters
        ----------
        name:
            Round label used in statistics and error messages.
        fn:
            Top-level callable executed by each machine.
        payloads:
            One payload per machine.  Each payload and each output is
            measured with :func:`repro.mpc.sizeof.sizeof` and checked
            against the memory limit.
        allow_empty:
            Permit a round with zero machines (otherwise a protocol
            error, because a zero-machine round is almost always a bug in
            the driver).
        broadcast:
            Optional dict of shared read-only data every machine of the
            round receives merged under its payload
            (``fn({**broadcast, **payload})``).  Charged to each
            machine's memory exactly as if replicated into the payload,
            but shipped to process-pool workers once per worker per
            round instead of once per machine, and wrapped once per
            round, so retry waves reuse the same serialised bytes.
        """
        start = time.perf_counter()
        payloads = list(payloads)
        if not payloads and not allow_empty:
            raise RoundProtocolError(
                f"round {name!r} was scheduled with zero machines")

        blob, broadcast_words = prepare_broadcast(name, payloads, broadcast)
        round_stats = RoundStats(name=name, broadcast_words=broadcast_words)
        input_sizes = []
        for i, payload in enumerate(payloads):
            words = sizeof(payload) + broadcast_words
            self._check(name, i, "input", words)
            input_sizes.append(words)

        if self.fault_plan is None:
            results = self.executor.run(
                [MachineTask(fn=fn, payload=p) for p in payloads], blob)
            attempts = [1] * len(results)
        else:
            results, attempts = self._run_waves(
                name, fn, payloads, blob, round_stats, input_sizes)
        round_stats.wall_seconds = time.perf_counter() - start

        tracer = self.tracer
        outputs: List[Any] = []
        for i, result in enumerate(results):
            if result is None:      # dropped: placeholder keeps alignment
                outputs.append(None)
                continue
            out_words = sizeof(result.output)
            self._check(name, i, "output", out_words)
            round_stats.observe_machine(input_sizes[i], out_words,
                                        result.work)
            # Propagate machine work to any meter enclosing the simulator
            # itself, so ``with WorkMeter() as m: algo(sim)`` sees the whole
            # computation even under a process-pool executor.
            add_work(result.work)
            if result.profile:
                round_stats.observe_profile(i, result.profile)
                fold_global(result.profile, *current_trace())
            if result.metrics:
                merge_into(self.stats.metrics, result.metrics)
            if tracer is not None:
                tracer.emit(Span(
                    kind="machine", name=name, machine=i,
                    attempt=attempts[i], worker=result.worker,
                    start=result.started,
                    end=result.started + result.wall_seconds,
                    work=result.work, input_words=input_sizes[i],
                    output_words=out_words,
                    broadcast_words=broadcast_words,
                    profile=result.profile or {}))
            outputs.append(result.output)

        if tracer is not None:
            tracer.emit(Span(
                kind="round", name=name, worker=os.getpid(),
                start=start, end=time.perf_counter(),
                work=round_stats.total_work,
                input_words=round_stats.total_input_words,
                output_words=round_stats.total_output_words,
                broadcast_words=broadcast_words))
        self.stats.rounds.append(round_stats)
        return outputs

    def _run_waves(self, name: str, fn: Callable[[Any], Any],
                   payloads: List[Any], blob: Optional[Broadcast],
                   round_stats: RoundStats, input_sizes: List[int]
                   ) -> Tuple[List[Optional[MachineResult]], List[int]]:
        """Run a round's execution waves under the fault plan.

        Returns, per machine, its surviving result (``None`` when
        dropped) and the attempt that produced it.  Discarded attempts
        are charged to the round's recovery fields, to any enclosing
        work meter (the cluster really burned that work) and, with a
        tracer, to ``wasted`` machine spans; their kernel profiles and
        metrics are not folded, so a run's hot spots and counters stay
        attributed to the work that counted.
        """
        plan, policy, tracer = self.fault_plan, self.retry_policy, self.tracer
        results: List[Optional[MachineResult]] = [None] * len(payloads)
        attempts = [1] * len(payloads)
        pending = list(range(len(payloads)))
        retried: set = set()
        re_executions = 0
        attempt = 0
        while pending:
            attempt += 1
            if attempt > 1:
                delay = policy.delay(name, attempt)
                if delay > 0:
                    time.sleep(delay)
            calls = [_InjectedCall(fn=fn, decision=plan.decide(name, i,
                                                               attempt),
                                   round_name=name, machine_index=i,
                                   attempt=attempt, realtime=self.realtime)
                     for i in pending]
            wave = self.executor.run(
                [MachineTask(fn=call, payload=payloads[call.machine_index])
                 for call in calls], blob)
            failed: List[int] = []
            for call, result in zip(calls, wave):
                i = call.machine_index
                factor = call.decision.straggle_factor
                if factor > 1.0:
                    # Spans read [started, started+wall_seconds), so
                    # inflating wall_seconds stretches the straggler on
                    # the trace timeline as it does in the ledger.
                    result.work = int(result.work * factor)
                    result.wall_seconds *= factor
                if not is_failed(result.output):
                    results[i] = result
                    attempts[i] = attempt
                    continue
                failed.append(i)
                round_stats.failed_attempts += 1
                round_stats.wasted_work += result.work
                round_stats.wasted_wall_seconds += result.wall_seconds
                add_work(result.work)
                if tracer is not None:
                    tracer.emit(Span(
                        kind="machine", name=name, machine=i,
                        attempt=attempt, worker=result.worker,
                        start=result.started,
                        end=result.started + result.wall_seconds,
                        work=result.work, input_words=input_sizes[i],
                        broadcast_words=round_stats.broadcast_words,
                        wasted=True, fault=fault_kind(result.output),
                        profile=result.profile or {}))
            if not failed:
                break
            out_of_budget = (policy.retry_budget is not None and
                             re_executions + len(failed)
                             > policy.retry_budget)
            if attempt >= policy.max_attempts or out_of_budget:
                if policy.on_exhausted == "raise" \
                        or len(failed) == len(payloads):
                    # An all-dropped round has no graceful degradation:
                    # there is no surviving contribution to degrade to.
                    raise RoundFailedError(name, failed, attempt)
                round_stats.dropped_machines = len(failed)
                break
            retried.update(failed)
            re_executions += len(failed)
            pending = failed
        round_stats.attempts = attempt
        round_stats.retried_machines = len(retried)
        return results, attempts

    # ------------------------------------------------------------------
    def spawn(self) -> "MPCSimulator":
        """Create a sibling simulator sharing configuration but not stats.

        Used by drivers that explore several parameter guesses "in
        parallel" (the paper's ``n^δ`` guessing): each guess runs on its
        own simulator and the driver merges the statistics afterwards.
        The sibling keeps the fault plan and retry policy, so every guess
        stays under chaos and :meth:`absorb` folds its recovery counters
        back into the parent ledger.
        """
        return MPCSimulator(memory_limit=self.memory_limit,
                            executor=self.executor, tracer=self.tracer,
                            fault_plan=self.fault_plan,
                            retry_policy=self.retry_policy,
                            realtime=self.realtime)

    def absorb(self, other: "MPCSimulator") -> None:
        """Merge a sibling simulator's rounds as if run concurrently."""
        self.stats = self.stats.merge(other.stats)
