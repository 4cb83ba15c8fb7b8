"""Kernel-attribution profiler: who owns the wall-clock, per kernel.

The metrics registry (:mod:`repro.metrics`) counts *what* the string
kernels did (``strings.dp_cells`` per kernel label) and span telemetry
(:mod:`repro.mpc.telemetry`) records *where machine time went* — but
neither says which *kernel* owned a machine's wall-clock.  This module
closes that gap with a deliberately tiny probe riding the exact choke
points that already tick ``strings.dp_cells``:

* each instrumented kernel holds a module-level :class:`KernelProbe`
  (``_PROBE = kernel_probe("banded")``) and brackets its hot loop with
  ``t0 = _PROBE.begin()`` / ``_PROBE.end(t0, cells)``;
* when profiling is **off** (the default) ``begin`` is a single module
  attribute read returning the ``-1.0`` sentinel and ``end`` is one
  float comparison — the same cheap-no-op discipline as
  :func:`repro.mpc.accounting.add_work` and the metrics registry;
* when **on**, ``end`` charges ``(calls, cells, seconds)`` to every
  active :class:`collect_profile` accumulator on a thread-local stack
  (the :class:`~repro.mpc.accounting.WorkMeter` pattern), and
  :func:`repro.mpc.machine.execute_task` opens one accumulator per
  machine so per-kernel attribution crosses the process-pool boundary
  as a plain dict on :class:`~repro.mpc.machine.MachineResult` —
  exactly like spans do.

The simulator folds machine profiles into
``RoundStats.kernel_profile`` (driving the ``profile`` block of
:meth:`~repro.mpc.accounting.RunStats.summary`, hence history records)
and into a process-global aggregate served by the
``/profile`` endpoint of :class:`repro.obs.ObservabilityServer`.  The
global aggregate keys a bounded per-query breakdown on the ambient
:func:`~repro.mpc.telemetry.current_trace` pair, so service queries
get per-query attribution through the existing contextvar scopes.

On top of the raw data this module provides the presentation layer:
collapsed-stack (Brendan Gregg flamegraph) export, per-kernel totals,
and the differential profiler behind ``repro profdiff`` /
``tools/check_regression.py`` — a failing gate names the top kernels
responsible instead of just the regressed metric.

:func:`inject_slowdown` deliberately delays one named kernel (inside
the measured window), the chaos-style facility the differential
profiler's own tests are built on.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import time

__all__ = ["KernelProbe", "kernel_probe", "collect_profile",
           "enable", "disable", "profiling_enabled", "enabled",
           "inject_slowdown", "merge_profile",
           "fold_global", "global_profile", "reset_global_profile",
           "totals_from_rows", "totals_from_record", "totals_from_spans",
           "hot_kernels", "diff_profiles", "format_profile_diff",
           "flame_from_record", "flame_from_spans", "write_collapsed"]

#: Master switch.  Read once per probe hit; rebound by enable()/disable().
_ENABLED = False

#: kernel name -> injected per-call delay in seconds (testing facility).
#: Empty in production, so the hot path pays one falsy check.
_DELAYS: Dict[str, float] = {}

_local = threading.local()


def _accumulators() -> List[Dict[str, List[float]]]:
    accs = getattr(_local, "accs", None)
    if accs is None:
        accs = []
        _local.accs = accs
    return accs


class KernelProbe:
    """Per-kernel timing probe bracketing a kernel's hot loop.

    Held at module level by each instrumented kernel; ``begin``/``end``
    collapse to an attribute read plus a float comparison when
    profiling is disabled, so the probe can sit on every call path
    unconditionally.
    """

    __slots__ = ("kernel",)

    def __init__(self, kernel: str) -> None:
        self.kernel = kernel

    def begin(self) -> float:
        """Start timing; returns the ``-1.0`` sentinel when disabled."""
        if not _ENABLED:
            return -1.0
        return time.perf_counter()

    def end(self, t0: float, cells: int) -> None:
        """Charge one call of *cells* DP cells ending now to all
        active accumulators.  No-op when ``begin`` returned the
        disabled sentinel."""
        if t0 < 0.0:
            return
        self.end_batch(t0, 1, cells)

    def end_batch(self, t0: float, calls: int, cells: int) -> None:
        """Charge *calls* logical calls totalling *cells* DP cells to
        one timing window ending now.

        A batched kernel evaluates many logical calls inside one NumPy
        invocation; folding the batch as ``calls`` calls keeps profile
        call/cell counts equal to those of the same jobs issued one at a
        time — only the seconds column reflects the batching win.
        """
        if t0 < 0.0:
            return
        if _DELAYS:
            extra = _DELAYS.get(self.kernel, 0.0)
            if extra > 0.0:
                # Sleep inside the measured window, once per logical
                # call, so an injected slowdown is genuinely *observed*
                # by the profiler, not merely configured.
                time.sleep(extra * calls)
        dt = time.perf_counter() - t0
        for data in _accumulators():
            rec = data.get(self.kernel)
            if rec is None:
                data[self.kernel] = [calls, cells, dt]
            else:
                rec[0] += calls
                rec[1] += cells
                rec[2] += dt


def kernel_probe(kernel: str) -> KernelProbe:
    """A probe handle for *kernel* (module-level, like metric handles)."""
    return KernelProbe(kernel)


# ---------------------------------------------------------------------------
# Enablement (mirrors repro.metrics: module switch + context manager)

def enable() -> None:
    """Turn kernel profiling on process-wide."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Turn kernel profiling off process-wide."""
    global _ENABLED
    _ENABLED = False


def profiling_enabled() -> bool:
    """Whether the profiler is currently collecting."""
    return _ENABLED


class enabled:
    """Context manager: profile while the block runs, then restore.

    ``with profile.enabled(): run()`` — the scoped counterpart of
    :func:`enable`, mirroring :class:`repro.metrics.enabled`.
    """

    def __init__(self, on: bool = True) -> None:
        self._on = on

    def __enter__(self) -> "enabled":
        global _ENABLED
        self._saved = _ENABLED
        _ENABLED = self._on
        return self

    def __exit__(self, *exc) -> None:
        global _ENABLED
        _ENABLED = self._saved


class inject_slowdown:
    """Deliberately delay every call of one kernel (testing facility).

    The delay is applied *inside* the probe's measured window, so the
    profiler observes it as genuine kernel wall-clock — which is the
    point: the differential profiler's acceptance tests slow one kernel
    and assert ``repro profdiff`` convicts exactly that kernel.
    """

    def __init__(self, kernel: str, seconds: float) -> None:
        self.kernel = kernel
        self.seconds = seconds

    def __enter__(self) -> "inject_slowdown":
        self._saved = _DELAYS.get(self.kernel)
        _DELAYS[self.kernel] = self.seconds
        return self

    def __exit__(self, *exc) -> None:
        if self._saved is None:
            _DELAYS.pop(self.kernel, None)
        else:
            _DELAYS[self.kernel] = self._saved


class collect_profile:
    """Accumulate per-kernel ``[calls, cells, seconds]`` for a block.

    ``data`` is ``None`` when profiling is disabled (so callers ship
    nothing), else a plain picklable dict — the exact shape that rides
    :class:`~repro.mpc.machine.MachineResult` back to the driver.
    Collectors nest and stack per thread, like
    :class:`~repro.mpc.accounting.WorkMeter`.
    """

    __slots__ = ("data",)

    def __enter__(self) -> "collect_profile":
        if _ENABLED:
            self.data: Optional[Dict[str, List[float]]] = {}
            _accumulators().append(self.data)
        else:
            self.data = None
        return self

    def __exit__(self, *exc) -> None:
        if self.data is not None:
            _accumulators().remove(self.data)


def merge_profile(into: Dict[str, List[float]],
                  prof: Mapping[str, Sequence[float]]) -> None:
    """Fold one ``{kernel: [calls, cells, seconds]}`` map into *into*."""
    for kernel, rec in prof.items():
        dst = into.get(kernel)
        if dst is None:
            into[kernel] = [rec[0], rec[1], rec[2]]
        else:
            dst[0] += rec[0]
            dst[1] += rec[1]
            dst[2] += rec[2]


# ---------------------------------------------------------------------------
# Process-global aggregate (the /profile endpoint and `repro top` read it)

#: Retain at most this many per-query breakdowns (oldest evicted), so a
#: long-lived service cannot grow the aggregate without bound.
_QUERY_CAP = 64


class _GlobalProfile:
    """Locked process-wide aggregate with a bounded per-query breakdown."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.kernels: Dict[str, List[float]] = {}
        self.queries: "OrderedDict[str, Dict[str, List[float]]]" = \
            OrderedDict()

    def fold(self, prof: Mapping[str, Sequence[float]],
             trace_id: str, query_id: int) -> None:
        with self._lock:
            merge_profile(self.kernels, prof)
            if query_id >= 0:
                key = f"{query_id}:{trace_id}" if trace_id else str(query_id)
                per_query = self.queries.get(key)
                if per_query is None:
                    per_query = self.queries[key] = {}
                    while len(self.queries) > _QUERY_CAP:
                        self.queries.popitem(last=False)
                merge_profile(per_query, prof)

    def snapshot(self) -> dict:
        with self._lock:
            kernels = {k: {"calls": int(v[0]), "cells": int(v[1]),
                           "seconds": round(v[2], 6)}
                       for k, v in self.kernels.items()}
            queries = {q: {k: {"calls": int(v[0]), "cells": int(v[1]),
                               "seconds": round(v[2], 6)}
                           for k, v in prof.items()}
                       for q, prof in self.queries.items()}
        return {"enabled": _ENABLED, "kernels": kernels,
                "queries": queries}

    def reset(self) -> None:
        with self._lock:
            self.kernels.clear()
            self.queries.clear()


_GLOBAL = _GlobalProfile()


def fold_global(prof: Mapping[str, Sequence[float]],
                trace_id: str = "", query_id: int = -1) -> None:
    """Fold one machine's profile into the process-global aggregate.

    Called by the simulator per machine result; the ``(trace_id,
    query_id)`` pair attributes the profile to the ambient service
    query (pass :func:`repro.mpc.telemetry.current_trace`)."""
    _GLOBAL.fold(prof, trace_id, query_id)


def global_profile() -> dict:
    """JSON-ready snapshot of the process-wide kernel aggregate."""
    return _GLOBAL.snapshot()


def reset_global_profile() -> None:
    """Clear the process-wide aggregate (tests, service restarts)."""
    _GLOBAL.reset()


# ---------------------------------------------------------------------------
# Totals, hot kernels and the differential profiler

def totals_from_rows(rows: Sequence[Mapping[str, object]]
                     ) -> Dict[str, Dict[str, float]]:
    """Per-kernel totals from a summary ``profile`` block's rows."""
    totals: Dict[str, Dict[str, float]] = {}
    for row in rows:
        kernel = str(row.get("kernel"))
        t = totals.setdefault(kernel,
                              {"calls": 0, "cells": 0, "seconds": 0.0})
        t["calls"] += row.get("calls", 0) or 0
        t["cells"] += row.get("cells", 0) or 0
        t["seconds"] += row.get("seconds", 0.0) or 0.0
    return totals


def totals_from_record(record: Mapping[str, object]
                       ) -> Dict[str, Dict[str, float]]:
    """Per-kernel totals from a history record's ``summary.profile``."""
    summary = record.get("summary") or {}
    rows = summary.get("profile") if isinstance(summary, Mapping) else None
    return totals_from_rows(rows or [])


def totals_from_spans(spans: Sequence[object]) -> Dict[str, Dict[str, float]]:
    """Per-kernel totals from machine spans carrying ``profile`` data."""
    totals: Dict[str, List[float]] = {}
    for s in spans:
        prof = getattr(s, "profile", None)
        if prof:
            merge_profile(totals, prof)
    return {k: {"calls": int(v[0]), "cells": int(v[1]), "seconds": v[2]}
            for k, v in totals.items()}


def hot_kernels(totals: Mapping[str, Mapping[str, float]],
                by: str = "seconds", top: int = 3
                ) -> List[Tuple[str, float, float]]:
    """The *top* kernels as ``(kernel, value, share)`` by metric *by*."""
    grand = sum(t.get(by, 0) for t in totals.values()) or 1
    ranked = sorted(totals.items(), key=lambda kv: -kv[1].get(by, 0))
    return [(k, t.get(by, 0), t.get(by, 0) / grand)
            for k, t in ranked[:top]]


def diff_profiles(a: Mapping[str, Mapping[str, float]],
                  b: Mapping[str, Mapping[str, float]],
                  by: str = "seconds") -> List[dict]:
    """Rank kernels by their A→B delta on metric *by* (descending |Δ|).

    *a* and *b* are per-kernel totals (:func:`totals_from_record` /
    :func:`totals_from_spans`).  Each row carries both sides of every
    metric so the CLI can print one table whatever the ranking metric.
    """
    rows: List[dict] = []
    for kernel in sorted(set(a) | set(b)):
        ta = a.get(kernel, {})
        tb = b.get(kernel, {})
        row: dict = {"kernel": kernel}
        for metric in ("calls", "cells", "seconds"):
            va = ta.get(metric, 0) or 0
            vb = tb.get(metric, 0) or 0
            row[f"a_{metric}"] = va
            row[f"b_{metric}"] = vb
            row[f"delta_{metric}"] = vb - va
        va, vb = row[f"a_{by}"], row[f"b_{by}"]
        row["change"] = None if not va else round((vb - va) / va, 4)
        rows.append(row)
    rows.sort(key=lambda r: -abs(r[f"delta_{by}"]))
    return rows


def _per_call(value: float, calls: float, by: str) -> str:
    """``value/calls`` formatted for the *by* metric ("-" when no calls)."""
    if not calls:
        return "-"
    if by == "seconds":
        return f"{value / calls * 1e6:.1f}us"
    return f"{value / calls:.1f}"


def format_profile_diff(rows: Sequence[Mapping[str, object]],
                        by: str = "seconds", top: int = 0,
                        per_call: bool = False) -> str:
    """Readable table for ``repro profdiff`` and the regression gate.

    With *per_call*, two extra columns show the A and B sides of
    ``by``-per-call — the direct view of batch-dispatch wins, where
    total calls stay identical but the cost of each collapses.
    """
    shown = rows[:top] if top else rows
    header = (f"  {'kernel':<14} {'A ' + by:>14} {'B ' + by:>14} "
              f"{'delta':>14} {'change':>9}")
    if per_call:
        header += f" {'A/call':>11} {'B/call':>11}"
    lines = [header]
    for row in shown:
        va, vb = row[f"a_{by}"], row[f"b_{by}"]
        delta = row[f"delta_{by}"]
        if by == "seconds":
            a_s, b_s, d_s = (f"{va:.4f}", f"{vb:.4f}", f"{delta:+.4f}")
        else:
            a_s, b_s, d_s = (str(va), str(vb), f"{delta:+d}")
        change = row.get("change")
        change_s = "-" if change is None else f"{change:+.1%}"
        line = (f"  {str(row['kernel']):<14} {a_s:>14} {b_s:>14} "
                f"{d_s:>14} {change_s:>9}")
        if per_call:
            line += (f" {_per_call(va, row.get('a_calls', 0), by):>11}"
                     f" {_per_call(vb, row.get('b_calls', 0), by):>11}")
        lines.append(line)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Collapsed-stack (flamegraph) export

def _weight(rec: Mapping[str, float], weight: str) -> int:
    if weight == "seconds":
        # Microsecond integers: flamegraph.pl folds integer sample
        # counts, and microseconds keep sub-millisecond kernels visible.
        return int(round(float(rec.get("seconds", 0.0)) * 1e6))
    return int(rec.get(weight, 0))


def flame_from_record(record: Mapping[str, object],
                      weight: str = "seconds") -> List[str]:
    """Collapsed-stack lines (``engine;round;kernel N``) from a record.

    Round-level attribution: history records carry the summary's
    ``profile`` block, whose rows are already folded per (round,
    kernel).  Use :func:`flame_from_spans` on a span trace for the
    per-machine frames.
    """
    root = (record.get("engine") or record.get("command") or "run")
    summary = record.get("summary") or {}
    rows = summary.get("profile") if isinstance(summary, Mapping) else None
    folded: "OrderedDict[str, int]" = OrderedDict()
    for row in rows or []:
        frame = f"{root};{row.get('round')};{row.get('kernel')}"
        folded[frame] = folded.get(frame, 0) + _weight(row, weight)
    return [f"{frame} {value}" for frame, value in folded.items() if value]


def flame_from_spans(spans: Sequence[object],
                     weight: str = "seconds") -> List[str]:
    """Collapsed-stack lines (``run;round;machine[i];kernel N``) from
    machine spans carrying ``profile`` data."""
    root = next((getattr(s, "name", "run") for s in spans
                 if getattr(s, "kind", "") == "run"), "run")
    folded: "OrderedDict[str, int]" = OrderedDict()
    for s in spans:
        prof = getattr(s, "profile", None)
        if not prof or getattr(s, "kind", "") != "machine":
            continue
        for kernel, rec in prof.items():
            frame = (f"{root};{s.name};machine[{s.machine}];{kernel}")
            value = _weight({"calls": rec[0], "cells": rec[1],
                             "seconds": rec[2]}, weight)
            folded[frame] = folded.get(frame, 0) + value
    return [f"{frame} {value}" for frame, value in folded.items() if value]


def write_collapsed(lines: Sequence[str], path: str) -> None:
    """Write collapsed-stack lines in Brendan Gregg's folded format
    (one ``frame;frame;frame value`` line each), ready for
    ``flamegraph.pl`` or speedscope."""
    import pathlib
    pathlib.Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))
