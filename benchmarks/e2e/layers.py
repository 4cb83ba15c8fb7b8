"""Outside-in layer tracing: timed wrappers around each layer's entry point.

The traced run installs wrappers (``setattr``, restored in ``finally``)
around the public entry of every layer a query crosses, and attributes
each call to its service query through
:func:`repro.mpc.telemetry.current_trace`:

==============================  =========================================
wrapped call                    layer it opens
==============================  =========================================
``UlamQuery/EditQuery.steps``   one service round step of the query: the
                                driver code of ``repro.ulam.driver`` /
                                ``repro.editdistance.driver``
``Pipeline.round``              ``repro.mpc.plan`` (partition, collect)
``MPCSimulator.run_round``      ``repro.mpc.simulator`` (sizeof checks,
                                broadcast, ledger)
``<Executor>.run``              ``repro.mpc.executor`` (dispatch, IPC)
``machine.resolve_payload``     ``repro.mpc.shm`` (descriptor resolve)
==============================  =========================================

Machine wall-clock comes back on ``MachineResult.wall_seconds`` and kernel
time from the kernel profiler (``RoundStats.kernel_profile``), so each
layer's self time is its span minus the layer below it.  The gaps between
a query's consecutive steps are the time it waited in the service (round
slot, thread hand-off, interpreter lock).  Whatever no span covers is
reported as ``trace.unattributed_ms``, so the rows of the waterfall sum
to the query's latency.  Under a process pool ``resolve_payload`` runs
in the workers, out of reach of these wrappers, and stays inside
``machine.self``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence

from repro.editdistance.driver import EditQuery
from repro.mpc import machine as _machine
from repro.mpc.executor import ProcessPoolExecutor, SerialExecutor
from repro.mpc.plan import Pipeline
from repro.mpc.simulator import MPCSimulator
from repro.mpc.telemetry import current_trace
from repro.ulam.driver import UlamQuery

__all__ = ["KERNELS", "LayerTrace", "breakdown", "format_waterfall",
           "chrome_trace"]

#: The instrumented DP kernels of ``repro.strings``.
KERNELS = ("ulam_sparse", "bitparallel", "wf_row", "banded", "lis",
           "fitting")

#: Chrome-trace export keeps the first this-many queries of a run.
_CHROME_QUERIES = 40

_ROUNDS = ("plan.round", "simulator.run_round")


@dataclass
class Span:
    """One timed call into a wrapped layer entry point."""

    layer: str
    query_id: int
    start: float
    nested: bool = False
    end: float = 0.0
    machine_seconds: float = 0.0
    tasks: int = 0


class LayerTrace:
    """Spans of the wrapped layer entry points, in completion order."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open = threading.local()

    def _wrap(self, layer: str, fn):
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = open_spans.__dict__.setdefault("stack", [])
            span = Span(layer, current_trace()[1], time.perf_counter(),
                        nested=bool(stack))
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                spans.append(span)
            if layer == "executor.run":
                span.machine_seconds = sum(r.wall_seconds for r in result)
                span.tasks = len(result)
            return result

        return timed

    def _wrap_steps(self, fn):
        spans = self.spans

        @functools.wraps(fn)
        def steps(query, sim):
            inner = fn(query, sim)
            try:
                while True:
                    span = Span("driver.step", current_trace()[1],
                                time.perf_counter())
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        span.end = time.perf_counter()
                        spans.append(span)
                    yield item
            finally:
                inner.close()

        return steps

    @contextlib.contextmanager
    def installed(self) -> Iterator["LayerTrace"]:
        """Wrap every layer entry point for the duration of the block."""
        targets = ((UlamQuery, "steps", "driver.step"),
                   (EditQuery, "steps", "driver.step"),
                   (Pipeline, "round", "plan.round"),
                   (MPCSimulator, "run_round", "simulator.run_round"),
                   (SerialExecutor, "run", "executor.run"),
                   (ProcessPoolExecutor, "run", "executor.run"),
                   (_machine, "resolve_payload", "shm.resolve"))
        saved = []
        try:
            for owner, attr, layer in targets:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap_steps(original)
                        if layer == "driver.step"
                        else self._wrap(layer, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def breakdown(queries: Sequence, spans: Sequence[Span]
              ) -> Dict[str, float]:
    """Per-query mean of every per-layer metric (times in ms).

    *queries* are the client's records of the traced queries: their
    ``query_id``, ``registered``/``submitted``/``done`` times and kernel
    profile ``kernels`` (``{kernel: [calls, cells, seconds]}``).

    A round is a ``Pipeline.round`` or a ``run_round`` called outside
    one.  Self times nest: rounds minus ``run_round`` is partition and
    collect, ``run_round`` minus ``Executor.run`` is simulator set-up,
    ``Executor.run`` minus machine wall is dispatch, and machine wall
    minus kernels minus resolve is machine self time.  Driver self time
    is the query's steps minus its rounds (the step prologue before the
    first round belongs to ``service.to_first_round_ms``).
    """
    per_query: Dict[int, Dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    first_round: Dict[int, float] = {}
    steps: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        qid = span.query_id
        acc = per_query[qid]
        acc[span.layer] += span.end - span.start
        if span.layer in _ROUNDS and not span.nested:
            acc["round"] += span.end - span.start
            first_round[qid] = min(first_round.get(qid, span.start),
                                   span.start)
        if span.layer == "simulator.run_round":
            acc["rounds"] += 1
        elif span.layer == "executor.run":
            acc["machine"] += span.machine_seconds
            acc["tasks"] += span.tasks
        elif span.layer == "driver.step":
            steps[qid].append(span)
    total: Dict[str, float] = defaultdict(float)
    latency = unattributed = run_s = machine_s = 0.0
    for q in queries:
        acc = per_query[q.query_id]
        own_steps = sorted(steps[q.query_id], key=lambda s: s.start)
        first = first_round.get(q.query_id, q.done)
        prologue = first - own_steps[0].start if own_steps else 0.0
        kernel_s = sum(rec[2] for rec in q.kernels.values())
        parts = {
            "service.register_ms": q.submitted - q.registered,
            "service.to_first_round_ms": first - q.submitted,
            "service.round_wait_ms": sum(
                b.start - a.end for a, b in zip(own_steps, own_steps[1:])),
            "driver.self_ms": acc["driver.step"] - acc["round"] - prologue,
            "plan.partition_collect_ms":
                acc["round"] - acc["simulator.run_round"],
            "simulator.setup_ms":
                acc["simulator.run_round"] - acc["executor.run"],
            "executor.dispatch_ms": acc["executor.run"] - acc["machine"],
            "shm.resolve_ms": acc["shm.resolve"],
            "machine.self_ms":
                acc["machine"] - kernel_s - acc["shm.resolve"],
        }
        lat = q.done - q.registered
        rest = lat - sum(parts.values()) - kernel_s
        parts["trace.unattributed_ms"] = rest
        latency += lat
        unattributed += rest
        for name, seconds in parts.items():
            total[name] += seconds * 1e3
        for kernel in KERNELS:
            calls, cells, seconds = q.kernels.get(kernel, (0, 0, 0.0))
            total[f"kernel.{kernel}_ms"] += seconds * 1e3
            total[f"kernel.{kernel}.calls"] += calls
            total[f"kernel.{kernel}.cells"] += cells
        total["simulator.rounds"] += acc["rounds"]
        total["executor.tasks"] += acc["tasks"]
        run_s += acc["executor.run"]
        machine_s += acc["machine"]
    count = max(len(queries), 1)
    out = {name: value / count for name, value in total.items()}
    out["executor.parallelism"] = machine_s / run_s if run_s else 0.0
    out["trace.coverage"] = 1.0 - unattributed / latency if latency else 0.0
    out["latency_mean_ms"] = latency / count * 1e3
    return out


#: Waterfall rows in call order; the last row is the unattributed rest.
_WATERFALL = ("service.register_ms", "service.to_first_round_ms",
              "service.round_wait_ms", "driver.self_ms",
              "plan.partition_collect_ms", "simulator.setup_ms",
              "executor.dispatch_ms", "shm.resolve_ms", "machine.self_ms") \
    + tuple(f"kernel.{k}_ms" for k in KERNELS) \
    + ("trace.unattributed_ms",)


def format_waterfall(workload: str, layers: Dict[str, float],
                     queries: int) -> str:
    """Per-query waterfall: every layer's mean ms and share of latency."""
    mean = layers["latency_mean_ms"]
    lines = [f"{workload}: mean over {queries} traced queries, latency "
             f"{mean:.3f} ms, coverage {layers['trace.coverage']:.3f}, "
             f"executor parallelism {layers['executor.parallelism']:.2f}",
             f"  {'layer':<28} {'ms/query':>10} {'share':>8}"]
    for name in _WATERFALL:
        value = layers[name]
        lines.append(f"  {name[:-3]:<28} {value:>10.3f} "
                     f"{value / mean if mean else 0.0:>8.1%}")
    lines.append(f"  {'= latency':<28} "
                 f"{sum(layers[n] for n in _WATERFALL):>10.3f}")
    return "\n".join(lines)


def chrome_trace(queries: Sequence, spans: Sequence[Span],
                 origin: float) -> str:
    """Chrome-trace JSON of the first queries: one lane per query."""
    keep = {q.query_id for q in queries[:_CHROME_QUERIES]}

    def event(name, tid, start, end, **args):
        return {"name": name, "ph": "X", "pid": 1, "tid": tid,
                "ts": round((start - origin) * 1e6, 1),
                "dur": round((end - start) * 1e6, 1), "args": args}

    events = []
    for q in queries[:_CHROME_QUERIES]:
        events.append(event("query", q.query_id, q.registered, q.done))
        events.append(event("service.register", q.query_id, q.registered,
                            q.submitted))
    for s in spans:
        if s.query_id in keep:
            extra = ({"tasks": s.tasks,
                      "machine_ms": round(s.machine_seconds * 1e3, 3)}
                     if s.layer == "executor.run" else {})
            events.append(event(s.layer, s.query_id, s.start, s.end,
                                **extra))
    return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})
