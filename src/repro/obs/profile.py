"""Kernel-attribution profiler: who owns the wall-clock, per kernel.

The metrics registry (:mod:`repro.metrics`) counts *what* the string
kernels did (``strings.dp_cells`` per kernel label) and span telemetry
(:mod:`repro.mpc.telemetry`) records *where machine time went* — but
neither says which *kernel* owned a machine's wall-clock.  The profiler
closes that gap without a mechanism of its own: every DP kernel already
reports each call once, through the
:class:`~repro.mpc.accounting.charge` bracket around its loop, and with
profiling **on** that bracket also times the loop and folds
``[calls, cells, seconds]`` into the ``kernels`` map of every active
:class:`~repro.mpc.accounting.WorkMeter` opened while profiling.  Off
(the default), meters carry ``kernels = None`` and the bracket's exit
is one float comparison.

:func:`repro.mpc.machine.execute_task` opens one meter per machine, so
a machine's work and its kernel profile come from the same
accumulator and cross the process-pool boundary together on
:class:`~repro.mpc.machine.MachineResult` — exactly like spans do.  The
simulator folds machine profiles into ``RoundStats.kernel_profile``
(driving the ``profile`` block of
:meth:`~repro.mpc.accounting.RunStats.summary`, hence history records)
and into a process-global aggregate served by the ``/profile`` endpoint
of :class:`repro.obs.ObservabilityServer`.  The global aggregate keys a
bounded per-query breakdown on the ambient
:func:`~repro.mpc.telemetry.current_trace` pair, so service queries get
per-query attribution through the existing contextvar scopes.

On top of the raw data this module provides the presentation layer:
one row format for recorded profiles (:func:`kernel_rows` reads a
history record or a span trace), per-kernel totals, collapsed-stack
(Brendan Gregg flamegraph) export, and the differential profiler
behind ``repro profdiff`` / ``tools/check_regression.py`` — a failing
gate names the top kernels responsible instead of just the regressed
metric.

:func:`inject_slowdown` deliberately delays one named kernel (inside
the measured window), the chaos-style facility the differential
profiler's own tests are built on.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Mapping, Sequence, Tuple

from ..registry import record_profile

__all__ = ["enable", "disable", "profiling_enabled", "enabled",
           "inject_slowdown", "merge_profile",
           "fold_global", "global_profile", "reset_global_profile",
           "kernel_rows", "kernel_totals", "collapsed_stacks",
           "hot_kernels", "diff_profiles", "format_profile_diff",
           "kernel_attribution", "write_collapsed"]

#: Master switch, read by :class:`repro.mpc.accounting.charge` and
#: :class:`~repro.mpc.accounting.WorkMeter`; rebound by
#: enable()/disable().
_ENABLED = False

#: kernel name -> injected per-call delay in seconds (testing facility).
#: Empty in production, so the hot path pays one falsy check.
_DELAYS: Dict[str, float] = {}


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

    The delay is applied *inside* the timed window of the kernel's
    :class:`~repro.mpc.accounting.charge` bracket, so the
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

def kernel_rows(run) -> List[dict]:
    """Recorded kernel profile as rows of ``frame, kernel, calls, cells,
    seconds``: the one format every reader below consumes.

    *run* is a history record (a mapping; one row per (round, kernel)
    of its ``summary.profile`` block, framed ``engine;round``) or a
    span trace (a sequence; one row per kernel of each profiled machine
    span, framed ``run;round;machine[i]``).
    """
    if isinstance(run, Mapping):
        root = run.get("engine") or run.get("command") or "run"
        return [{"frame": f"{root};{row.get('round')}",
                 "kernel": str(row.get("kernel")),
                 "calls": row.get("calls", 0) or 0,
                 "cells": row.get("cells", 0) or 0,
                 "seconds": row.get("seconds", 0.0) or 0.0}
                for row in record_profile(run)]
    root = next((getattr(s, "name", "run") for s in run
                 if getattr(s, "kind", "") == "run"), "run")
    return [{"frame": f"{root};{s.name};machine[{s.machine}]",
             "kernel": kernel, "calls": rec[0], "cells": rec[1],
             "seconds": rec[2]}
            for s in run
            if getattr(s, "kind", "") == "machine"
            and getattr(s, "profile", None)
            for kernel, rec in s.profile.items()]


def kernel_totals(rows: Sequence[Mapping[str, object]]
                  ) -> Dict[str, Dict[str, float]]:
    """Per-kernel ``{calls, cells, seconds}`` totals of
    :func:`kernel_rows` rows."""
    totals: Dict[str, Dict[str, float]] = {}
    for row in rows:
        t = totals.setdefault(row["kernel"],
                              {"calls": 0, "cells": 0, "seconds": 0.0})
        for metric in t:
            t[metric] += row[metric]
    return totals


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

    *a* and *b* are per-kernel totals (:func:`kernel_totals`).  Each
    row carries both sides of every metric so the CLI can print one
    table whatever the ranking metric.
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


def kernel_attribution(baseline: Mapping[str, object],
                       fresh: Mapping[str, object], top: int = 3) -> str:
    """Name the kernels behind a change between two run records: their
    top wall-clock deltas, or ``""`` when either record predates the
    profiler.  The baseline gate prints it for regressions *and*
    improvements, so a faster run credits the accelerated kernel just as
    a slower one blames the responsible kernel."""
    a = kernel_totals(kernel_rows(baseline))
    b = kernel_totals(kernel_rows(fresh))
    rows = diff_profiles(a, b, by="seconds") if a and b else []
    if not rows:
        return ""
    direction = "slower" if rows[0]["delta_seconds"] > 0 else "faster"
    return (f"  responsible kernels (top {min(top, len(rows))} "
            f"wall-clock deltas; hottest: {rows[0]['kernel']}, "
            f"{direction}):\n"
            + format_profile_diff(rows, by="seconds", top=top))


# ---------------------------------------------------------------------------
# Collapsed-stack (flamegraph) export

def _weight(rec: Mapping[str, float], weight: str) -> int:
    if weight == "seconds":
        # Microsecond integers: flamegraph.pl folds integer sample
        # counts, and microseconds keep sub-millisecond kernels visible.
        return int(round(float(rec.get("seconds", 0.0)) * 1e6))
    return int(rec.get(weight, 0))


def collapsed_stacks(rows: Sequence[Mapping[str, object]],
                     weight: str = "seconds") -> List[str]:
    """Collapsed-stack lines (``frame;kernel N``) of :func:`kernel_rows`
    rows: round-level frames from a record, per-machine frames from a
    span trace."""
    folded: "OrderedDict[str, int]" = OrderedDict()
    for row in rows:
        frame = f"{row['frame']};{row['kernel']}"
        folded[frame] = folded.get(frame, 0) + _weight(row, weight)
    return [f"{frame} {value}" for frame, value in folded.items() if value]


def write_collapsed(lines: Sequence[str], path: str) -> None:
    """Write collapsed-stack lines in Brendan Gregg's folded format
    (one ``frame;frame;frame value`` line each), ready for
    ``flamegraph.pl`` or speedscope."""
    import pathlib
    pathlib.Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))
