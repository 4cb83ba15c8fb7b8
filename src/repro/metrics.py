"""Process-wide labelled metrics registry: counters, gauges, histograms.

The accounting layer (:mod:`repro.mpc.accounting`) answers "what did one
run cost" in the paper's own currencies; the telemetry layer
(:mod:`repro.mpc.telemetry`) answers "where inside one run did the time
go".  What neither can answer is *what the algorithms actually did* —
how many DP cells the string kernels evaluated, how many candidate
windows Algorithm 1 generated per block, how much volume the shuffle
moved per round name — in a form that can be snapshotted into a run
record and compared across runs (see :mod:`repro.registry`).

Design
------
* One module-global :class:`MetricsRegistry`, **disabled by default**.
  Every mutation helper is guarded by a single ``enabled`` check, the
  same cheap-no-op pattern as :func:`repro.mpc.accounting.add_work`, so
  library users who never call :func:`enable` pay one attribute load and
  one branch per *kernel call* (not per DP cell) — measured < 5 %
  enabled and unmeasurable disabled (benchmark E21).
* The string kernels' ``strings.dp_cells`` / ``strings.kernel_calls``
  series are ticked only by :class:`repro.mpc.accounting.charge`, the
  one bracket that also charges the work ledger and the kernel
  profile, so all three views count the same calls and cells.
* Three instrument types, all labelled:

  - :class:`Counter` — monotone totals (``inc``): DP cells, candidate
    windows, shuffle words.
  - :class:`Gauge` — last-set values (``set``): effective config caps,
    derived parameters.
  - :class:`Histogram` — streaming ``count/sum/min/max`` (``observe``):
    per-block candidate counts and similar distributions.

* Snapshots are plain dicts keyed by ``name{label=value,...}`` so they
  serialise to JSON untouched; :meth:`MetricsRegistry.delta` subtracts
  two snapshots, and :func:`scoped_snapshot` collects a *windowed* view
  directly — every increment made while the scope is active (in the
  entering context or anything it spawns via ``contextvars`` copies,
  e.g. ``asyncio.to_thread``) is accumulated into the scope, so
  concurrent queries each get an exact per-query delta even though the
  registry is process-cumulative and shared.

Scope
-----
The registry is process-local.  Under the default
:class:`~repro.mpc.executor.SerialExecutor` every machine function runs
in the driver process, so kernel-level counters cover the whole run;
under a :class:`~repro.mpc.executor.ProcessPoolExecutor` only
driver-side instruments (shuffle/broadcast accounting, driver phase
counters) are complete — worker-process increments stay in the workers.

Mutation (obtaining a ``counter``/``gauge``/``histogram`` handle) is an
internal privilege of ``src/repro/``: tests, examples and benchmarks
consume snapshots read-only (enforced by ``tools/check_api_boundary.py``;
the registry's own unit tests are the single sanctioned exception).
"""

from __future__ import annotations

import contextvars
import threading
from typing import Dict, Iterator, Optional, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "MetricsScope", "scoped_snapshot",
           "get_registry", "enable", "disable", "enabled"]

MetricSnapshot = Dict[str, dict]

#: Active metric scopes for the current context.  A tuple (not a list)
#: so that pushing a scope rebinds the ContextVar — child contexts
#: (``asyncio.to_thread``, ``Context.run``) see the scopes that were
#: active when they were forked, and sibling tasks never observe each
#: other's scopes.
_SCOPES: "contextvars.ContextVar[Tuple[MetricsScope, ...]]" = \
    contextvars.ContextVar("repro_metrics_scopes", default=())


def metric_key(name: str, labels: Dict[str, object]) -> str:
    """Canonical snapshot key: ``name{k=v,...}`` with sorted label keys."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class _Instrument:
    """Shared base: a registered metric with a touched flag.

    ``touched`` gates snapshot inclusion — a handle created at import
    time but never written (e.g. because the registry stayed disabled)
    leaves no trace in snapshots or run records.
    """

    __slots__ = ("_registry", "key", "touched")

    kind = ""

    def __init__(self, registry: "MetricsRegistry", key: str) -> None:
        self._registry = registry
        self.key = key
        self.touched = False

    def _reset(self) -> None:
        raise NotImplementedError

    def _snapshot(self) -> dict:
        raise NotImplementedError


class Counter(_Instrument):
    """Monotone counter; ``inc`` is a no-op while the registry is disabled."""

    __slots__ = ("value",)

    kind = "counter"

    def __init__(self, registry: "MetricsRegistry", key: str) -> None:
        super().__init__(registry, key)
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if not self._registry._enabled:
            return
        self.value += amount
        self.touched = True
        for scope in _SCOPES.get():
            scope._record_counter(self.key, amount)

    def _reset(self) -> None:
        self.value = 0
        self.touched = False

    def _snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge(_Instrument):
    """Last-set value; ``set`` is a no-op while the registry is disabled."""

    __slots__ = ("value",)

    kind = "gauge"

    def __init__(self, registry: "MetricsRegistry", key: str) -> None:
        super().__init__(registry, key)
        self.value: object = 0

    def set(self, value: object) -> None:
        if not self._registry._enabled:
            return
        self.value = value
        self.touched = True
        for scope in _SCOPES.get():
            scope._record_gauge(self.key, value)

    def _reset(self) -> None:
        self.value = 0
        self.touched = False

    def _snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram(_Instrument):
    """Streaming distribution summary: ``count``/``sum``/``min``/``max``.

    Full bucketed histograms are overkill for run records; the four
    moments answer the questions the registry exists for ("how many
    candidates per block, and how skewed?") and merge exactly.
    """

    __slots__ = ("count", "sum", "min", "max")

    kind = "histogram"

    def __init__(self, registry: "MetricsRegistry", key: str) -> None:
        super().__init__(registry, key)
        self.count = 0
        self.sum = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value) -> None:
        if not self._registry._enabled:
            return
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        self.touched = True
        for scope in _SCOPES.get():
            scope._record_histogram(self.key, value)

    def _reset(self) -> None:
        self.count = 0
        self.sum = 0
        self.min = None
        self.max = None
        self.touched = False

    def _snapshot(self) -> dict:
        return {"type": "histogram", "count": self.count, "sum": self.sum,
                "min": self.min, "max": self.max}


class MetricsRegistry:
    """Registry of labelled instruments with snapshot/delta/merge algebra.

    Handles are created once per ``(name, labels)`` pair and cached, so
    hot call sites can hold a module-level handle and skip the lookup
    entirely; :meth:`reset` zeroes instruments *in place*, which keeps
    every cached handle valid.
    """

    def __init__(self, enabled: bool = False) -> None:
        self._enabled = enabled
        self._metrics: Dict[str, _Instrument] = {}
        self._lock = threading.Lock()

    # -- enablement ------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    # -- instrument factories (mutation surface; see module docstring) ---
    def _get(self, cls, name: str, labels: Dict[str, object]) -> _Instrument:
        key = metric_key(name, labels)
        inst = self._metrics.get(key)
        if inst is None:
            with self._lock:
                inst = self._metrics.get(key)
                if inst is None:
                    inst = cls(self, key)
                    self._metrics[key] = inst
        if not isinstance(inst, cls):
            raise TypeError(
                f"metric {key!r} already registered as {inst.kind}, "
                f"requested {cls.kind}")
        return inst

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(Histogram, name, labels)

    # -- snapshot algebra ------------------------------------------------
    def snapshot(self) -> MetricSnapshot:
        """All *touched* metrics as ``{key: typed-dict}`` (JSON-ready)."""
        return {key: inst._snapshot()
                for key, inst in sorted(self._metrics.items())
                if inst.touched}

    def mark(self) -> MetricSnapshot:
        """Baseline snapshot for a later :meth:`delta` (alias for clarity)."""
        return self.snapshot()

    @staticmethod
    def delta(before: MetricSnapshot, after: MetricSnapshot
              ) -> MetricSnapshot:
        """What happened between two snapshots of the same registry.

        Counters and histogram ``count``/``sum`` subtract; gauges report
        their current value when it changed (or first appeared).  A
        histogram's ``min``/``max`` cannot be windowed after the fact,
        so the delta carries the cumulative extremes — exact whenever
        the window starts at a fresh (or reset) registry, conservative
        otherwise.
        """
        out: MetricSnapshot = {}
        for key, cur in after.items():
            prev = before.get(key)
            kind = cur["type"]
            if kind == "counter":
                value = cur["value"] - (prev["value"] if prev else 0)
                if value:
                    out[key] = {"type": "counter", "value": value}
            elif kind == "gauge":
                if prev is None or prev["value"] != cur["value"]:
                    out[key] = dict(cur)
            else:
                count = cur["count"] - (prev["count"] if prev else 0)
                if count:
                    out[key] = {"type": "histogram", "count": count,
                                "sum": cur["sum"]
                                - (prev["sum"] if prev else 0),
                                "min": cur["min"], "max": cur["max"]}
        return out

    def reset(self) -> None:
        """Zero every instrument in place (cached handles stay valid)."""
        for inst in self._metrics.values():
            inst._reset()


def merge_snapshots(a: MetricSnapshot, b: MetricSnapshot) -> MetricSnapshot:
    """Combine two run-level metric snapshots (concurrent-siblings rule).

    Mirrors :meth:`~repro.mpc.accounting.RunStats.merge`: counters and
    histogram ``count``/``sum`` add, gauges and histogram ``max`` take
    the maximum, histogram ``min`` the minimum.  Merging against an
    empty snapshot (a metrics-free run) is the identity.
    """
    out = {key: dict(val) for key, val in a.items()}
    for key, val in b.items():
        cur = out.get(key)
        if cur is None:
            out[key] = dict(val)
            continue
        if cur["type"] != val["type"]:
            raise ValueError(
                f"metric {key!r}: cannot merge {cur['type']} with "
                f"{val['type']}")
        if val["type"] == "counter":
            cur["value"] += val["value"]
        elif val["type"] == "gauge":
            try:
                cur["value"] = max(cur["value"], val["value"])
            except TypeError:
                cur["value"] = val["value"]
        else:
            cur["count"] += val["count"]
            cur["sum"] += val["sum"]
            for field, pick in (("min", min), ("max", max)):
                if cur[field] is None:
                    cur[field] = val[field]
                elif val[field] is not None:
                    cur[field] = pick(cur[field], val[field])
    return out


# ---------------------------------------------------------------------------
# Scoped collection

class MetricsScope:
    """Accumulator for every metric write made while its scope is active.

    Produced by :func:`scoped_snapshot`.  Unlike the
    ``mark()``/``delta()`` pair — which reads the *shared* registry twice
    and therefore attributes concurrent writers' increments to whichever
    window happens to be open — a scope only ever receives the writes
    that happen in its own context tree, so per-query deltas stay exact
    when queries overlap.  Histogram ``min``/``max`` are windowed too
    (the cumulative-extremes caveat of :meth:`MetricsRegistry.delta`
    does not apply).

    Thread-safe: ``asyncio.to_thread`` copies the ambient context into
    the worker thread, so several threads may record into one scope.

    ``trace_id``/``query_id`` are the scope's query correlation identity
    (the service stamps the pair it minted at submit; the one-shot path
    leaves the ``("", -1)`` sentinel), so a scope's delta can always be
    joined back to the spans and records of the query that produced it.
    """

    __slots__ = ("_lock", "_data", "trace_id", "query_id")

    def __init__(self, trace_id: str = "", query_id: int = -1) -> None:
        self._lock = threading.Lock()
        self._data: Dict[str, dict] = {}
        self.trace_id = trace_id
        self.query_id = query_id

    def _record_counter(self, key: str, amount) -> None:
        with self._lock:
            cur = self._data.get(key)
            if cur is None:
                self._data[key] = {"type": "counter", "value": amount}
            else:
                cur["value"] += amount

    def _record_gauge(self, key: str, value) -> None:
        with self._lock:
            self._data[key] = {"type": "gauge", "value": value}

    def _record_histogram(self, key: str, value) -> None:
        with self._lock:
            cur = self._data.get(key)
            if cur is None:
                self._data[key] = {"type": "histogram", "count": 1,
                                   "sum": value, "min": value, "max": value}
            else:
                cur["count"] += 1
                cur["sum"] += value
                cur["min"] = min(cur["min"], value)
                cur["max"] = max(cur["max"], value)

    def delta(self) -> MetricSnapshot:
        """The scope's accumulated writes, in snapshot/delta format.

        Matches :meth:`MetricsRegistry.delta` output exactly: sorted
        keys, zero-valued counters and empty histograms omitted, so the
        result drops into :attr:`RunStats.metrics` / run records
        unchanged.
        """
        with self._lock:
            out: MetricSnapshot = {}
            for key in sorted(self._data):
                val = dict(self._data[key])
                if val["type"] == "counter" and not val["value"]:
                    continue
                if val["type"] == "histogram" and not val["count"]:
                    continue
                out[key] = val
            return out


class scoped_snapshot:
    """Context manager yielding a :class:`MetricsScope` for exact deltas.

    ::

        with scoped_snapshot() as scope:
            ...  # run a query (possibly across asyncio.to_thread hops)
        record["metrics"] = scope.delta()

    Scopes nest (each write lands in every active scope) and are carried
    by ``contextvars``, so two overlapping queries in one process —
    interleaved asyncio tasks, or threads started with a copied context
    — each collect only their own writes.  This replaces the global
    ``registry.reset()`` the CLI used to need before every run.
    """

    def __init__(self, trace_id: str = "", query_id: int = -1) -> None:
        self.scope = MetricsScope(trace_id=trace_id, query_id=query_id)
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> MetricsScope:
        self._token = _SCOPES.set(_SCOPES.get() + (self.scope,))
        return self.scope

    def __exit__(self, *exc) -> None:
        if self._token is not None:
            _SCOPES.reset(self._token)
            self._token = None


# ---------------------------------------------------------------------------
# Module-global registry

_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry every instrumented module writes to."""
    return _REGISTRY


def enable() -> None:
    """Turn metrics collection on for the process-wide registry."""
    _REGISTRY.enable()


def disable() -> None:
    """Turn metrics collection off (writes become no-ops again)."""
    _REGISTRY.disable()


class enabled:
    """Context manager scoping metrics collection: ``with enabled(): ...``.

    Restores the previous enablement state on exit, so benchmarks can
    interleave enabled and disabled repetitions safely.
    """

    def __init__(self, on: bool = True) -> None:
        self._on = on
        self._saved = False

    def __enter__(self) -> MetricsRegistry:
        self._saved = _REGISTRY._enabled
        _REGISTRY._enabled = self._on
        return _REGISTRY

    def __exit__(self, *exc) -> None:
        _REGISTRY._enabled = self._saved


def _iter_instruments() -> Iterator[_Instrument]:  # pragma: no cover
    """Debugging aid: iterate registered instruments."""
    return iter(_REGISTRY._metrics.values())
