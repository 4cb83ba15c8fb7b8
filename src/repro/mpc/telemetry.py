"""Per-machine span telemetry: structured event tracing for MPC runs.

The ledger (:mod:`repro.mpc.accounting`) records round-level aggregates —
``max_work``, ``total_work`` — which is exactly what Table 1 needs but
says nothing about *which* machine was the straggler, how skewed the work
distribution across the fleet was, or where retry waves burned wall-clock
under a fault plan.  This module records the missing machine-level view:
one :class:`Span` per machine invocation (every attempt, including the
wasted ones), plus round / collector / run spans, emitted through
pluggable :class:`Sink` objects.

Span model
----------
A span is a flat, JSON-friendly record with a half-open monotonic time
interval ``[start, end)``:

===============  ============================================================
``kind``         ``"machine"`` | ``"round"`` | ``"collect"`` | ``"run"``
                 | ``"publish"`` (one-time data-plane segment copy;
                 ``output_words`` = published array length)
``name``         round name (or run label for ``"run"`` spans)
``machine``      machine index within the round; ``-1`` for non-machine spans
``attempt``      1-based execution attempt (retries increment it)
``worker``       OS pid of the process that executed the span
``start, end``   ``time.perf_counter()`` seconds (system-wide monotonic
                 clock on Linux, so worker and driver spans share a
                 timeline even across a process pool)
``work``         abstract work units (for ``"collect"``: shuffle work)
``input_words``  payload + broadcast charge, in MPC words
``output_words`` output size in MPC words (for ``"collect"``: shuffle words)
``broadcast_words``  per-machine broadcast charge of the span's round
``wasted``       True when the attempt's output was discarded
``fault``        ``""`` | ``"crash"`` | ``"corrupt"`` | ``"error"``
``trace_id``     service-minted query correlation id (``""`` one-shot)
``query_id``     service query number (``-1`` outside the service)
``profile``      ``{kernel: [calls, cells, seconds]}`` attribution from
                 :mod:`repro.obs.profile` (machine spans only; empty
                 when the kernel profiler was off)
===============  ============================================================

Trace context
-------------
:func:`trace_context` binds a ``(trace_id, query_id)`` pair to the
current execution context (``contextvars``), and :meth:`Tracer.emit` —
the single choke point every span passes through — stamps the ambient
pair onto spans that do not already carry one.  Because
``asyncio.to_thread`` copies the ambient context into its worker
thread, wrapping a service query's execution in ``trace_context``
correlates every span the query produces (machine/round/collect spans
from the simulator, retry attempts, data-plane publishes) without any
emission site knowing about services or queries, even while several
queries interleave over the same tracer.

Sinks
-----
* :class:`InMemorySink` — appends spans to a list (analytics, tests).
* :class:`JsonlSink` — streams one JSON object per line, flushed per
  span, so a crashed run leaves a readable prefix (never a truncated
  JSON document).
* :func:`export_chrome_trace` — converts spans to the Chrome trace-event
  format (``ph``/``ts``/``dur``/``pid``/``tid``), loadable in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``.

Telemetry is **off by default**: a simulator constructed without a
:class:`Tracer` performs a single ``is None`` check per round — the same
cheap-no-op pattern as :func:`repro.mpc.accounting.add_work` — and emits
nothing.  Drivers never construct sinks themselves (CI enforces this via
``tools/check_api_boundary.py``); they accept a pre-built tracer so the
choice of sink stays with the caller (CLI, benchmark, notebook).
"""

from __future__ import annotations

import contextvars
import json
import os
import pathlib
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from typing import IO, Dict, Iterator, List, Optional, Sequence, Tuple, \
    Union

__all__ = ["Span", "Sink", "InMemorySink", "JsonlSink", "Tracer",
           "current_trace", "trace_context",
           "read_jsonl", "export_chrome_trace"]

#: Span kinds, in nesting order (a run contains publishes and rounds, a
#: round contains machine attempts and at most one collect span).
SPAN_KINDS = ("run", "round", "machine", "collect", "publish")

#: Ambient query identity, carried by ``contextvars`` so it survives
#: ``asyncio.to_thread`` hops exactly like metric scopes do.  The
#: default is the "uncorrelated" sentinel pair.
_TRACE_CTX: "contextvars.ContextVar[Tuple[str, int]]" = \
    contextvars.ContextVar("repro_trace_ctx", default=("", -1))


def current_trace() -> Tuple[str, int]:
    """The ambient ``(trace_id, query_id)`` pair.

    ``("", -1)`` outside any :func:`trace_context` — the one-shot CLI
    path, where there is no query to correlate against.
    """
    return _TRACE_CTX.get()


@contextmanager
def trace_context(trace_id: str, query_id: int) -> Iterator[None]:
    """Bind a query identity to the current context tree.

    Every span emitted while the context is active — including from
    worker threads started inside it via ``asyncio.to_thread`` — is
    stamped with the pair by :meth:`Tracer.emit`, and kernel-profile
    records folded inside are attributed to it
    (:func:`repro.obs.profile.fold_global`).  Contexts nest; the
    innermost binding wins.
    """
    token = _TRACE_CTX.set((trace_id, query_id))
    try:
        yield
    finally:
        _TRACE_CTX.reset(token)


@dataclass
class Span:
    """One timed event of an MPC execution (see the module docstring)."""

    kind: str
    name: str
    machine: int = -1
    attempt: int = 1
    worker: int = 0
    start: float = 0.0
    end: float = 0.0
    work: int = 0
    input_words: int = 0
    output_words: int = 0
    broadcast_words: int = 0
    wasted: bool = False
    fault: str = ""
    trace_id: str = ""
    query_id: int = -1
    # Kernel-profile attribution for machine spans: ``{kernel: [calls,
    # cells, seconds]}`` from repro.obs.profile, empty when the
    # profiler was off (so legacy traces round-trip unchanged — old
    # readers of *new* traces reject the field by design, like any
    # schema growth under span_from_dict's strict policy).
    profile: Dict[str, list] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length in seconds."""
        return self.end - self.start

    def to_dict(self) -> dict:
        """The span as a flat JSON-serialisable dict."""
        return asdict(self)


_SPAN_FIELDS = {f.name for f in fields(Span)}


def span_from_dict(data: dict) -> Span:
    """Inverse of :meth:`Span.to_dict`.

    Unknown keys raise ``ValueError`` (schema drift from a newer writer
    should be loud, matching :mod:`repro.mpc.trace`).
    """
    unknown = sorted(set(data) - _SPAN_FIELDS)
    if unknown:
        raise ValueError(f"unknown span field(s) {unknown}; "
                         "was this trace written by a newer version?")
    return Span(**data)


class Sink:
    """Interface: receive spans one at a time as the run progresses.

    Implementations must tolerate spans arriving out of timeline order
    (a round's machine spans are emitted when the round completes, and
    worker clocks interleave).
    """

    def emit(self, span: Span) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release any held resources.  Default: nothing."""


class InMemorySink(Sink):
    """Collects spans in a list, for analytics and tests."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def emit(self, span: Span) -> None:
        self.spans.append(span)


class JsonlSink(Sink):
    """Streams spans to a JSON-lines file, one flushed line per span.

    Because every line is written and flushed atomically with its
    trailing newline, a run that dies mid-way leaves a valid JSONL
    prefix — at worst the final line is truncated, which
    :func:`read_jsonl` tolerates.
    """

    def __init__(self, path: Union[str, pathlib.Path]) -> None:
        self.path = pathlib.Path(path)
        self._fh: Optional[IO[str]] = open(self.path, "w")

    def emit(self, span: Span) -> None:
        if self._fh is None:
            raise ValueError(f"JsonlSink({str(self.path)!r}) is closed")
        self._fh.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def read_jsonl(path: Union[str, pathlib.Path]) -> List[Span]:
    """Load the spans of a :class:`JsonlSink` trace file.

    A truncated *final* line (crash mid-append) never poisons the trace:
    if it still parses as a complete span (only the newline was lost) it
    is recovered, otherwise it is dropped and the intact prefix is
    returned.  A malformed line anywhere *else* raises ``ValueError`` —
    the file is append-only, so mid-file damage means something other
    than a :class:`JsonlSink` wrote it.
    """
    spans: List[Span] = []
    lines = pathlib.Path(path).read_text().split("\n")
    # A complete file ends with "\n", so the last split element is "";
    # anything else there is the torn tail of an interrupted append.
    body, tail = lines[:-1], lines[-1]
    for lineno, line in enumerate(body, start=1):
        try:
            spans.append(span_from_dict(json.loads(line)))
        except (ValueError, TypeError, KeyError):
            raise ValueError(
                f"{path}:{lineno}: malformed span line {line!r}")
    if tail:
        try:
            spans.append(span_from_dict(json.loads(tail)))
        except (ValueError, TypeError, KeyError):
            pass                    # crash-truncated tail: keep the prefix
    return spans


class Tracer:
    """Fans spans out to a set of sinks; the simulator's telemetry handle.

    A tracer with no sinks is valid but pointless; ``None`` (the
    simulator default) is the disabled state — every emission site is
    guarded by a single ``tracer is not None`` check, so runs without
    telemetry pay nothing.
    """

    def __init__(self, sinks: Sequence[Sink]) -> None:
        self.sinks = list(sinks)

    # -- convenience constructors (the sanctioned way for drivers and
    #    benchmarks to get a tracer without naming a sink class) --------
    @classmethod
    def to_jsonl(cls, path: Union[str, pathlib.Path]) -> "Tracer":
        """A tracer streaming to a JSONL trace file at *path*."""
        return cls([JsonlSink(path)])

    @classmethod
    def in_memory(cls) -> "Tracer":
        """A tracer collecting spans in memory (see :attr:`spans`)."""
        return cls([InMemorySink()])

    @property
    def spans(self) -> List[Span]:
        """Spans collected by this tracer's in-memory sinks."""
        return [s for sink in self.sinks if isinstance(sink, InMemorySink)
                for s in sink.spans]

    def emit(self, span: Span) -> None:
        """Forward *span* to every sink.

        Spans that do not already carry a query identity are stamped
        with the ambient :func:`trace_context` pair first — this is the
        single choke point every span passes through, so emission sites
        (simulator, retry path, pipeline collectors, data plane) stay
        oblivious to query correlation.
        """
        if span.query_id < 0:
            trace_id, query_id = _TRACE_CTX.get()
            if query_id >= 0:
                span.trace_id = trace_id
                span.query_id = query_id
        for sink in self.sinks:
            sink.emit(span)

    @contextmanager
    def span(self, kind: str, name: str) -> Iterator[None]:
        """Context manager timing a driver-side span (e.g. the run span).

        The span is emitted on exit — even on error, so a crashed run's
        trace still shows how far it got.
        """
        start = time.perf_counter()
        try:
            yield
        finally:
            self.emit(Span(kind=kind, name=name, worker=os.getpid(),
                           start=start, end=time.perf_counter()))

    def close(self) -> None:
        """Close every sink (flushes file-backed sinks)."""
        for sink in self.sinks:
            sink.close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Chrome trace-event export


def export_chrome_trace(spans: Sequence[Span],
                        path: Union[str, pathlib.Path]) -> None:
    """Write *spans* as a Chrome trace-event JSON file.

    The output is the ``{"traceEvents": [...]}`` object format with one
    complete event (``"ph": "X"``) per span, carrying the ``ts``/``dur``
    (microseconds) and ``pid``/``tid`` fields Perfetto requires.

    Track grouping depends on whether the spans carry a query identity
    (service runs under :func:`trace_context`):

    * spans with ``query_id >= 0`` group by **query** — ``pid`` is the
      query id (one named Perfetto process group per query, so
      interleaved concurrent queries render as separate timelines
      instead of collapsing into one) and ``tid`` the machine index;
      the worker pid moves into ``args``;
    * uncorrelated spans keep the one-shot lanes — ``pid`` is the OS
      worker pid (one track group per worker process) and ``tid`` the
      machine index, so a skewed round shows up as one long bar among
      short ones.

    Ledger quantities and the ``trace_id`` travel in ``args``.
    Profiled machine spans additionally carry their per-kernel
    ``profile`` map in ``args`` and feed a merged ``kernel dp_cells``
    counter track (``"ph": "C"``, one per process group) showing the
    cumulative cell flow per kernel over the timeline.  Timestamps are
    rebased to the earliest span so the timeline starts at zero.
    """
    t0 = min((s.start for s in spans), default=0.0)
    events = []
    queries: dict = {}
    for s in spans:
        if s.query_id >= 0 and s.query_id not in queries:
            queries[s.query_id] = s.trace_id
    for qid, trace_id in sorted(queries.items()):
        name = f"query {qid}" + (f" [{trace_id}]" if trace_id else "")
        events.append({"name": "process_name", "ph": "M", "pid": qid,
                       "tid": 0, "args": {"name": name}})
    cells_totals: dict = {}
    for s in spans:
        label = s.name if s.machine < 0 else f"{s.name}[{s.machine}]"
        if s.attempt > 1:
            label += f" (attempt {s.attempt})"
        pid = s.query_id if s.query_id >= 0 else s.worker
        args = {"work": s.work, "input_words": s.input_words,
                "output_words": s.output_words,
                "broadcast_words": s.broadcast_words,
                "attempt": s.attempt, "wasted": s.wasted,
                "fault": s.fault, "worker": s.worker,
                "trace_id": s.trace_id, "query_id": s.query_id}
        if s.profile:
            args["profile"] = s.profile
        events.append({
            "name": label,
            "cat": s.kind,
            "ph": "X",
            "ts": round((s.start - t0) * 1e6, 3),
            "dur": round(s.duration * 1e6, 3),
            "pid": pid,
            "tid": s.machine if s.machine >= 0 else 0,
            "args": args,
        })
        # Merged per-track counter series: cumulative DP cells per
        # kernel, sampled at each profiled span's end.  Renders as the
        # "kernel dp_cells" stacked counter track under the span lanes,
        # so Perfetto shows *which kernel* the cells flowed into over
        # time without opening the JSONL.
        if s.profile:
            totals = cells_totals.setdefault(pid, {})
            for kernel, rec in s.profile.items():
                totals[kernel] = totals.get(kernel, 0) + rec[1]
            events.append({
                "name": "kernel dp_cells",
                "ph": "C",
                "ts": round((s.end - t0) * 1e6, 3),
                "pid": pid,
                "tid": 0,
                "args": dict(totals),
            })
    pathlib.Path(path).write_text(
        json.dumps({"traceEvents": events, "displayTimeUnit": "ms"},
                   indent=1, sort_keys=True))
