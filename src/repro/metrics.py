"""Labelled metrics: one snapshot dict per run, carried like work.

The accounting layer (:mod:`repro.mpc.accounting`) answers "what did one
run cost" in the paper's own currencies; the telemetry layer
(:mod:`repro.mpc.telemetry`) answers "where inside one run did the time
go".  What neither can answer is *what the algorithms actually did* —
how many DP cells the string kernels evaluated, how many candidate
windows Algorithm 1 generated per block, how much volume the shuffle
moved per round name — in a form that can be stored in a run record and
compared across runs (see :mod:`repro.registry`).

Design
------
* Metric data has one representation: a :data:`MetricSnapshot`, a plain
  dict keyed ``name{label=value,...}`` (:func:`metric_key`) whose values
  are typed dicts, so it serialises to JSON untouched.  Three writes
  mutate one:

  - :func:`inc` — counters, monotone totals: DP cells, candidate
    windows, shuffle words;
  - :func:`set_gauge` — gauges, last-set values: effective config caps,
    derived parameters;
  - :func:`observe` — histograms, streaming ``count/sum/min/max``:
    per-block candidate counts and similar distributions.

  :func:`merge_snapshots` (and its in-place form :func:`merge_into`)
  combines two snapshots exactly.
* Collection is **off by default**.  Every write is guarded by one
  module-flag check, so library users who never call :func:`enable`
  pay one branch per write — measured < 5 % enabled and unmeasurable
  disabled (benchmark E21).
* A run's metrics travel the way its work does.  With collection on,
  every :class:`~repro.mpc.accounting.WorkMeter` holds a snapshot; the
  machine's meter (opened by :func:`repro.mpc.machine.execute_task`)
  ships it in :class:`~repro.mpc.machine.MachineResult`, and
  :meth:`~repro.mpc.simulator.MPCSimulator.run_round` folds the
  snapshots of the surviving attempts into
  :attr:`RunStats.metrics <repro.mpc.accounting.RunStats.metrics>`.
  Driver-side writes (shuffle and broadcast volumes, phase gauges) go
  straight into that dict, and sibling simulators merge on ``absorb``.
  So a process pool reports exactly what the serial executor does: a
  machine reports only through its round output.
* The string kernels' ``strings.dp_cells`` / ``strings.kernel_calls``
  series are ticked only by :class:`repro.mpc.accounting.charge`, the
  one bracket that also charges the work ledger and the kernel
  profile, so all three views count the same calls and cells.
* :class:`MetricsRegistry` keeps only what is truly process-wide: the
  fold of the finished service queries' snapshots plus the service's
  own ``service.query_latency`` histogram, which ``/metrics`` renders.

Writes are an internal privilege of ``src/repro/``: tests, examples and
benchmarks read ``RunStats.metrics`` or the ``/metrics`` snapshot only
(enforced by ``tools/check_api_boundary.py``; the metrics module's own
unit tests are the single sanctioned exception).
"""

from __future__ import annotations

import threading
from typing import Dict

__all__ = ["MetricsRegistry", "metric_key", "inc",
           "set_gauge", "observe", "merge_into", "merge_snapshots",
           "get_registry", "enable", "disable", "enabled"]

#: ``{name{label=value,...}: typed-dict}`` — see the module docstring.
MetricSnapshot = Dict[str, dict]

#: Master switch, read by every write and by the meters.
_ENABLED = False


def metric_key(name: str, labels: Dict[str, object]) -> str:
    """Canonical snapshot key: ``name{k=v,...}`` with sorted label keys."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def inc(snap: MetricSnapshot, key: str, amount: int = 1) -> None:
    """Counter write: add *amount* to ``snap[key]``.

    A no-op while collection is off; a zero *amount* leaves no entry,
    so a snapshot never carries a zero-valued counter.
    """
    if not _ENABLED or not amount:
        return
    cur = snap.get(key)
    if cur is None:
        snap[key] = {"type": "counter", "value": amount}
    else:
        cur["value"] += amount


def set_gauge(snap: MetricSnapshot, key: str, value: object) -> None:
    """Gauge write: ``snap[key]`` becomes *value* (no-op while off)."""
    if _ENABLED:
        snap[key] = {"type": "gauge", "value": value}


def observe(snap: MetricSnapshot, key: str, value) -> None:
    """Histogram write: fold *value* into ``snap[key]``'s four moments.

    Full bucketed histograms are overkill for run records; the four
    moments answer the questions metrics exist for ("how many
    candidates per block, and how skewed?") and merge exactly.  A no-op
    while collection is off.
    """
    if not _ENABLED:
        return
    cur = snap.get(key)
    if cur is None:
        snap[key] = {"type": "histogram", "count": 1, "sum": value,
                     "min": value, "max": value}
    else:
        cur["count"] += 1
        cur["sum"] += value
        cur["min"] = min(cur["min"], value)
        cur["max"] = max(cur["max"], value)


def merge_into(dst: MetricSnapshot, src: MetricSnapshot) -> MetricSnapshot:
    """Fold *src* into *dst* in place (concurrent-siblings rule); return it.

    Mirrors :meth:`~repro.mpc.accounting.RunStats.merge`: counters and
    histogram ``count``/``sum`` add, gauges and histogram ``max`` take
    the maximum, histogram ``min`` the minimum.  *src* is never mutated
    (new keys are copied), so a machine's snapshot can be folded into
    several ledgers.
    """
    for key, val in src.items():
        cur = dst.get(key)
        if cur is None:
            dst[key] = dict(val)
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
            cur["min"] = min(cur["min"], val["min"])
            cur["max"] = max(cur["max"], val["max"])
    return dst


def merge_snapshots(a: MetricSnapshot, b: MetricSnapshot) -> MetricSnapshot:
    """Combine two run-level snapshots into a new one (see
    :func:`merge_into`).  Merging against an empty snapshot (a
    metrics-free run) is the identity."""
    return merge_into({key: dict(val) for key, val in a.items()}, b)


class MetricsRegistry:
    """The process-wide metrics: finished queries plus service latency.

    Per-run data lives in :attr:`RunStats.metrics
    <repro.mpc.accounting.RunStats.metrics>`; the registry only folds
    finished queries' snapshots (:meth:`record`) and takes the service's
    own process-level writes (:meth:`observe`), under one lock, so the
    ``/metrics`` exporter can read :meth:`snapshot` from any thread.
    """

    def __init__(self) -> None:
        self._data: MetricSnapshot = {}
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        """Whether metrics collection is on (the module-wide switch)."""
        return _ENABLED

    def record(self, snapshot: MetricSnapshot) -> None:
        """Fold one finished query's snapshot into the process total."""
        with self._lock:
            merge_into(self._data, snapshot)

    def observe(self, key: str, value) -> None:
        """A process-level histogram write (no-op while off)."""
        with self._lock:
            observe(self._data, key, value)

    def snapshot(self) -> MetricSnapshot:
        """A detached copy of the process total, keys sorted."""
        with self._lock:
            return {key: dict(val)
                    for key, val in sorted(self._data.items())}

    def reset(self) -> None:
        """Forget every folded query and observation."""
        with self._lock:
            self._data.clear()


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry ``/metrics`` renders."""
    return _REGISTRY


def enable() -> None:
    """Turn metrics collection on for this process."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Turn metrics collection off (writes become no-ops again)."""
    global _ENABLED
    _ENABLED = False


class enabled:
    """Context manager scoping metrics collection: ``with enabled(): ...``.

    Restores the previous state on exit, so benchmarks can interleave
    enabled and disabled repetitions safely.  Yields the registry.
    """

    def __init__(self, on: bool = True) -> None:
        self._on = on
        self._saved = False

    def __enter__(self) -> MetricsRegistry:
        global _ENABLED
        self._saved = _ENABLED
        _ENABLED = self._on
        return _REGISTRY

    def __exit__(self, *exc) -> None:
        global _ENABLED
        _ENABLED = self._saved
