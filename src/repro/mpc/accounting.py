"""Work metering and per-round/per-run resource statistics.

The paper states its results in terms of *total computation* (the sum of
the running times of all machines) and *parallel running time* (the
critical path: the sum over rounds of the slowest machine in each round).
Wall-clock time of a Python interpreter is a poor proxy for those
quantities — NumPy-vectorised kernels and pure-Python loops differ by two
orders of magnitude for the same abstract work — so the string kernels
report *abstract work units* (DP cells computed, comparisons made) through
a :class:`WorkMeter`.

A meter is activated with a context manager and collected through a
module-level stack, so deeply nested kernels do not need a threaded-through
parameter::

    with WorkMeter() as meter:
        levenshtein(a, b)        # kernels call add_work(...) internally
    meter.total                  # abstract work units

Meters nest: inner meters also charge all enclosing meters, which lets the
simulator meter a whole round while a machine meters itself.

A DP kernel reports each call exactly once, through the :class:`charge`
bracket around its loop.  The one ``(kernel, calls, cells)`` event feeds
three views: the work ledger (every active meter's ``total``), the
metrics snapshot of every active meter opened while metrics were on
(``strings.dp_cells`` / ``strings.kernel_calls``, see
:mod:`repro.metrics`) and, with the kernel profiler on
(:mod:`repro.obs.profile`), the per-kernel ``[calls, cells, seconds]``
map of every active meter opened while profiling — so the per-machine
meter of :func:`repro.mpc.machine.execute_task` yields a machine's
work, metrics and kernel profile.  Other machine-side metric writes go
through :func:`record_metric`, into the same snapshots.
"""

from __future__ import annotations

import copy
import functools
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from .. import metrics as _metrics
from ..metrics import MetricSnapshot, merge_snapshots
from ..obs import profile as _profile

__all__ = ["WorkMeter", "add_work", "record_metric", "charge",
           "RoundStats", "RunStats"]

_local = threading.local()


def _stack() -> List["WorkMeter"]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = []
        _local.stack = stack
    return stack


def add_work(units: int) -> None:
    """Charge *units* of abstract work to every active :class:`WorkMeter`.

    Cheap no-op when no meter is active, so kernels can call it
    unconditionally.
    """
    for meter in _stack():
        meter.total += units


class isolated_meters:
    """Context manager: suspend all enclosing meters.

    Machine execution uses this so a machine's work is charged to *its
    own* meter only; the simulator then propagates the reported total to
    enclosing meters explicitly — identically under serial and
    process-pool executors (where enclosing meters live in another
    process and could never be charged implicitly).
    """

    def __enter__(self) -> "isolated_meters":
        stack = _stack()
        self._saved = stack[:]
        stack.clear()
        return self

    def __exit__(self, *exc) -> None:
        _stack()[:] = self._saved


def record_metric(write: Callable[[MetricSnapshot, str, object], None],
                  key: str, value) -> None:
    """Apply a metrics write to every active meter's snapshot.

    *write* is :func:`repro.metrics.inc` or :func:`repro.metrics.observe`
    (or :func:`~repro.metrics.set_gauge`); meters opened while metrics
    were off carry no snapshot and are skipped, so this is the
    machine-side counterpart of :func:`add_work`.
    """
    for meter in _stack():
        if meter.metrics is not None:
            write(meter.metrics, key, value)


class WorkMeter:
    """Accumulates abstract work units charged via :func:`add_work`.

    ``kernels`` is ``None`` unless the kernel profiler was on when the
    meter opened; then it maps kernel name to ``[calls, cells,
    seconds]`` for every :class:`charge` bracket run inside the meter.
    ``metrics`` is likewise ``None`` unless metrics collection was on;
    then it is the :mod:`repro.metrics` snapshot of every write made
    inside the meter (:class:`charge`, :func:`record_metric`).
    """

    __slots__ = ("total", "kernels", "metrics")

    def __init__(self) -> None:
        self.total = 0
        self.kernels: Optional[Dict[str, list]] = None
        self.metrics: Optional[MetricSnapshot] = None

    def __enter__(self) -> "WorkMeter":
        if _profile._ENABLED:
            self.kernels = {}
        if _metrics._ENABLED:
            self.metrics = {}
        _stack().append(self)
        return self

    def __exit__(self, *exc) -> None:
        _stack().remove(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorkMeter(total={self.total})"


@functools.lru_cache(maxsize=None)
def _kernel_keys(kernel: str) -> Tuple[str, str]:
    """The kernel's ``strings.dp_cells`` / ``strings.kernel_calls`` keys."""
    label = {"kernel": kernel}
    return (_metrics.metric_key("strings.dp_cells", label),
            _metrics.metric_key("strings.kernel_calls", label))


class charge:
    """``with charge(kernel, calls, cells): <loop>`` — the one way a DP
    kernel reports itself.

    Entering adds *cells* to every active :class:`WorkMeter` and, in
    every meter carrying a metrics snapshot, ticks
    ``strings.dp_cells{kernel}`` by *cells* and
    ``strings.kernel_calls{kernel}`` by *calls* (a batched kernel
    charges its whole batch as *calls* logical calls).  With the kernel
    profiler on, the block is timed and ``[calls, cells, seconds]``
    folds into the ``kernels`` map of every active meter that has one;
    off, the exit is one float comparison.  An
    :class:`~repro.obs.profile.inject_slowdown` delay for *kernel*
    sleeps inside the timed window, once per logical call.
    """

    __slots__ = ("kernel", "calls", "cells", "_t0")

    def __init__(self, kernel: str, calls: int, cells: int) -> None:
        self.kernel = kernel
        self.calls = calls
        self.cells = cells

    def __enter__(self) -> "charge":
        cells = self.cells
        for meter in _stack():
            meter.total += cells
            if meter.metrics is not None:
                cells_key, calls_key = _kernel_keys(self.kernel)
                _metrics.inc(meter.metrics, cells_key, cells)
                _metrics.inc(meter.metrics, calls_key, self.calls)
        self._t0 = time.perf_counter() if _profile._ENABLED else -1.0
        return self

    def __exit__(self, *exc) -> None:
        if self._t0 < 0.0:
            return
        if _profile._DELAYS:
            time.sleep(_profile._DELAYS.get(self.kernel, 0.0) * self.calls)
        dt = time.perf_counter() - self._t0
        for meter in _stack():
            kernels = meter.kernels
            if kernels is None:
                continue
            rec = kernels.get(self.kernel)
            if rec is None:
                kernels[self.kernel] = [self.calls, self.cells, dt]
            else:
                rec[0] += self.calls
                rec[1] += self.cells
                rec[2] += dt


@dataclass
class RoundStats:
    """Resource usage of one MPC round.

    ``machines`` counts machine invocations; the remaining fields are in
    MPC words (:func:`repro.mpc.sizeof.sizeof`) or abstract work units.
    """

    name: str
    machines: int = 0
    max_input_words: int = 0
    max_output_words: int = 0
    total_input_words: int = 0
    total_output_words: int = 0
    max_work: int = 0
    total_work: int = 0
    wall_seconds: float = 0.0
    # Communication accounting (nonzero only for rounds driven through
    # repro.mpc.plan).  ``broadcast_words`` is the per-machine word charge
    # of the round's shared broadcast blob (already included in the
    # input-word fields above, so memory maxima stay comparable across
    # broadcast and replicate-into-payload encodings); ``shuffle_words``
    # is the volume the collector routed into the next round's state and
    # ``shuffle_work`` the abstract work it metered doing so.
    broadcast_words: int = 0
    shuffle_words: int = 0
    shuffle_work: int = 0
    # Data-plane accounting (nonzero only for pipeline rounds run with
    # metrics enabled; see repro.mpc.shm).  ``payload_bytes`` is the
    # *physical* pickle size of the round's payloads — what actually
    # crosses the executor's process boundary — and
    # ``payload_bytes_avoided`` the bytes of array data referenced by
    # shared-memory descriptors instead of being copied into payloads.
    # Both are transport bytes, deliberately separate from the logical
    # word fields above (the MPC model prices words; the data plane only
    # changes the physics).
    payload_bytes: int = 0
    payload_bytes_avoided: int = 0
    # Recovery accounting (nonzero only under a fault plan; see
    # MPCSimulator.run_round in repro.mpc.simulator).  ``attempts`` is the number of
    # execution waves the round needed (1 = no failures);
    # ``failed_attempts`` counts the individual machine executions whose
    # output was discarded (so ``machines + failed_attempts`` is the
    # round's true invocation count, matching the telemetry layer's
    # machine-span count); ``wasted_work`` is the abstract work of those
    # discarded attempts.
    attempts: int = 1
    retried_machines: int = 0
    dropped_machines: int = 0
    failed_attempts: int = 0
    wasted_work: int = 0
    wasted_wall_seconds: float = 0.0
    # Kernel-profile accounting (non-empty only when the kernel profiler
    # was enabled; see repro.obs.profile).  Maps kernel name to
    # ``[calls, cells, seconds, machines, max_seconds, max_machine]`` —
    # totals across the round's machines plus the single hottest machine
    # for that kernel, so skew stays visible after folding.
    kernel_profile: Dict[str, list] = field(default_factory=dict)

    def observe_machine(self, input_words: int, output_words: int,
                        work: int) -> None:
        """Fold one machine's usage into the round statistics."""
        self.machines += 1
        self.max_input_words = max(self.max_input_words, input_words)
        self.max_output_words = max(self.max_output_words, output_words)
        self.total_input_words += input_words
        self.total_output_words += output_words
        self.max_work = max(self.max_work, work)
        self.total_work += work

    def observe_profile(self, machine: int,
                        profile: Dict[str, list]) -> None:
        """Fold one machine's kernel profile into the round ledger."""
        for kernel, (calls, cells, seconds) in profile.items():
            _fold_profile(self.kernel_profile, kernel,
                          (calls, cells, seconds, 1, seconds, machine))


def _fold_profile(into: Dict[Hashable, list], key: Hashable,
                  rec: Sequence) -> None:
    """Fold one ``kernel_profile`` record into ``into[key]``.

    Calls, cells, seconds and machine counts add up; the hottest machine
    (``max_seconds``, ``max_machine``) is kept by ``max_seconds``.
    """
    dst = into.get(key)
    if dst is None:
        into[key] = list(rec)
        return
    for slot in range(4):
        dst[slot] += rec[slot]
    if rec[4] > dst[4]:
        dst[4], dst[5] = rec[4], rec[5]


@dataclass
class RunStats:
    """Aggregated statistics of a full MPC execution (several rounds).

    ``metrics`` is the run's :mod:`repro.metrics` snapshot: what the
    instrumented kernels and phases did during this run, keyed
    ``name{label=value}``.  :meth:`MPCSimulator.run_round
    <repro.mpc.simulator.MPCSimulator.run_round>` folds in the snapshot
    of every surviving machine attempt, and drivers write their own
    counters and gauges into it directly.  Empty when metrics
    collection was disabled — the default — so legacy ledgers are
    unchanged.  It is run-level data, not per-round.
    """

    rounds: List[RoundStats] = field(default_factory=list)
    metrics: Dict[str, dict] = field(default_factory=dict)

    @property
    def n_rounds(self) -> int:
        """Number of communication rounds executed."""
        return len(self.rounds)

    @property
    def max_machines(self) -> int:
        """Largest number of machines used in any single round.

        This is the paper's "# machines" column: machines can be reused
        between rounds, so the requirement is the per-round maximum.
        """
        return max((r.machines for r in self.rounds), default=0)

    @property
    def total_machine_invocations(self) -> int:
        """Sum of machine invocations across all rounds."""
        return sum(r.machines for r in self.rounds)

    @property
    def total_machine_attempts(self) -> int:
        """Machine executions including discarded retry attempts.

        This is the quantity a span trace counts: one machine span per
        execution, successful or wasted.  Equal to
        :attr:`total_machine_invocations` when no machine ever failed.
        """
        return sum(r.machines + r.failed_attempts for r in self.rounds)

    @property
    def max_memory_words(self) -> int:
        """Largest input/output held by any machine in any round."""
        return max(
            (max(r.max_input_words, r.max_output_words) for r in self.rounds),
            default=0)

    @property
    def total_work(self) -> int:
        """Total computation: abstract work summed over all machines."""
        return sum(r.total_work for r in self.rounds)

    @property
    def parallel_work(self) -> int:
        """Critical-path work: sum over rounds of the slowest machine."""
        return sum(r.max_work for r in self.rounds)

    @property
    def total_communication_words(self) -> int:
        """Total words shipped out of machines between rounds."""
        return sum(r.total_output_words for r in self.rounds)

    # -- communication aggregates (nonzero only for pipeline runs) ------
    @property
    def shuffle_words(self) -> int:
        """Total words routed between rounds by collectors (the model's
        communication volume: what the shuffle phase must move)."""
        return sum(r.shuffle_words for r in self.rounds)

    @property
    def shuffle_work(self) -> int:
        """Total abstract work metered inside collectors (routing cost,
        kept out of ``total_work`` so machine-compute ledgers stay
        comparable with pre-pipeline runs)."""
        return sum(r.shuffle_work for r in self.rounds)

    @property
    def broadcast_words(self) -> int:
        """Sum over rounds of the per-machine broadcast charge."""
        return sum(r.broadcast_words for r in self.rounds)

    @property
    def communication_active(self) -> bool:
        """True when any round recorded shuffle or broadcast traffic."""
        return any(r.shuffle_words or r.shuffle_work or r.broadcast_words
                   for r in self.rounds)

    # -- data-plane aggregates (nonzero only when byte accounting ran) --
    @property
    def payload_bytes(self) -> int:
        """Physical payload bytes pickled across all rounds."""
        return sum(r.payload_bytes for r in self.rounds)

    @property
    def payload_bytes_avoided(self) -> int:
        """Bytes referenced via shared-memory descriptors, not copied."""
        return sum(r.payload_bytes_avoided for r in self.rounds)

    @property
    def data_plane_active(self) -> bool:
        """True when any round recorded physical payload-byte traffic."""
        return any(r.payload_bytes or r.payload_bytes_avoided
                   for r in self.rounds)

    @property
    def wall_seconds(self) -> float:
        """Wall-clock time spent executing rounds."""
        return sum(r.wall_seconds for r in self.rounds)

    # -- recovery aggregates (nonzero only under a fault plan) ----------
    @property
    def total_attempts(self) -> int:
        """Sum of execution waves over all rounds (== n_rounds when no
        machine ever failed)."""
        return sum(r.attempts for r in self.rounds)

    @property
    def retried_machines(self) -> int:
        """Machines that needed at least one re-execution, over all rounds."""
        return sum(r.retried_machines for r in self.rounds)

    @property
    def dropped_machines(self) -> int:
        """Machines whose contribution was dropped after retry exhaustion."""
        return sum(r.dropped_machines for r in self.rounds)

    @property
    def failed_attempts(self) -> int:
        """Machine executions whose output was discarded, over all rounds."""
        return sum(r.failed_attempts for r in self.rounds)

    @property
    def wasted_work(self) -> int:
        """Abstract work spent on attempts whose output was discarded."""
        return sum(r.wasted_work for r in self.rounds)

    # -- kernel-profile aggregates (non-empty only when the profiler ran)
    @property
    def profile_active(self) -> bool:
        """True when any round carries kernel-profile data."""
        return any(r.kernel_profile for r in self.rounds)

    def profile_rows(self) -> List[dict]:
        """Per-(round name, kernel) profile rows, repeated rounds folded.

        Same-named rounds (parameter-guess siblings, per-query phases)
        merge the way :meth:`merge` combines rounds: calls, cells,
        seconds and machine counts add up; the hottest machine is kept
        by ``max_seconds``.  This is the ``profile`` block persisted in
        history records and the input to the flamegraph exporter.
        """
        folded: Dict[tuple, list] = {}
        for r in self.rounds:
            for kernel, rec in r.kernel_profile.items():
                _fold_profile(folded, (r.name, kernel), rec)
        return [{"round": round_name, "kernel": kernel,
                 "calls": int(f[0]), "cells": int(f[1]),
                 "seconds": round(f[2], 6),
                 "machines": int(f[3]),
                 "max_seconds": round(f[4], 6),
                 "max_machine": int(f[5])}
                for (round_name, kernel), f in folded.items()]

    def snapshot(self) -> "RunStats":
        """Deep copy of the ledger, detached from the simulator.

        Result objects must hold a snapshot, not ``sim.stats`` itself:
        the live object keeps growing if the caller reuses the simulator
        (or the driver keeps absorbing sub-runs), silently mutating
        ledgers already returned to the caller.
        """
        return RunStats(rounds=[copy.deepcopy(r) for r in self.rounds],
                        metrics={key: dict(val) for key, val
                                 in sorted(self.metrics.items())})

    def merge(self, other: "RunStats") -> "RunStats":
        """Concatenate two runs (used when sub-algorithms run in parallel).

        Rounds with the same name are merged positionally as if the two
        executions shared the same barrier schedule: machine counts and
        work add up, memory maxima combine by ``max``.
        """
        merged = RunStats(
            metrics=merge_snapshots(self.metrics, other.metrics))
        longer, shorter = (self.rounds, other.rounds)
        if len(shorter) > len(longer):
            longer, shorter = shorter, longer
        for i, r in enumerate(longer):
            combined = replace(r, kernel_profile={
                k: list(v) for k, v in r.kernel_profile.items()})
            if i < len(shorter):
                o = shorter[i]
                combined.machines += o.machines
                combined.max_input_words = max(combined.max_input_words,
                                               o.max_input_words)
                combined.max_output_words = max(combined.max_output_words,
                                                o.max_output_words)
                combined.total_input_words += o.total_input_words
                combined.total_output_words += o.total_output_words
                combined.max_work = max(combined.max_work, o.max_work)
                combined.total_work += o.total_work
                combined.wall_seconds = max(combined.wall_seconds,
                                            o.wall_seconds)
                # Broadcast is a per-machine memory charge (max, like the
                # other memory fields); shuffle traffic is a volume (sum).
                combined.broadcast_words = max(combined.broadcast_words,
                                               o.broadcast_words)
                combined.shuffle_words += o.shuffle_words
                combined.shuffle_work += o.shuffle_work
                # Physical transport volumes, like shuffle traffic (sum).
                combined.payload_bytes += o.payload_bytes
                combined.payload_bytes_avoided += o.payload_bytes_avoided
                # Concurrent siblings: retry waves overlap (max), while
                # per-machine recovery counts and wasted work add up.
                combined.attempts = max(combined.attempts, o.attempts)
                combined.retried_machines += o.retried_machines
                combined.dropped_machines += o.dropped_machines
                combined.failed_attempts += o.failed_attempts
                combined.wasted_work += o.wasted_work
                combined.wasted_wall_seconds = max(
                    combined.wasted_wall_seconds, o.wasted_wall_seconds)
                # Kernel profiles: totals add up, hottest machine wins.
                for kernel, rec in o.kernel_profile.items():
                    _fold_profile(combined.kernel_profile, kernel, rec)
            merged.rounds.append(combined)
        return merged

    @property
    def recovery_active(self) -> bool:
        """True when any round saw a retry, a drop, or wasted work."""
        return bool(self.retried_machines or self.dropped_machines
                    or self.failed_attempts or self.wasted_work
                    or self.total_attempts != self.n_rounds)

    def summary(self) -> dict:
        """Return the headline numbers as a plain dict (for reports).

        The communication block (shuffle/broadcast) is included only for
        runs driven through :mod:`repro.mpc.plan`, the recovery block
        only when recovery actually happened, and the ``profile`` block
        (per-round kernel attribution, :meth:`profile_rows`) only when
        the kernel profiler was on — so legacy ledgers stay
        byte-identical to the pre-pipeline / pre-chaos formats.
        """
        out = {
            "rounds": self.n_rounds,
            "max_machines": self.max_machines,
            "max_memory_words": self.max_memory_words,
            "total_work": self.total_work,
            "parallel_work": self.parallel_work,
            "total_communication_words": self.total_communication_words,
            "wall_seconds": round(self.wall_seconds, 6),
        }
        if self.communication_active:
            out.update({
                "shuffle_words": self.shuffle_words,
                "broadcast_words": self.broadcast_words,
            })
        if self.data_plane_active:
            out.update({
                "data_plane_bytes_shipped": self.payload_bytes,
                "data_plane_bytes_avoided": self.payload_bytes_avoided,
            })
        if self.recovery_active:
            out.update({
                "attempts": self.total_attempts,
                "retried_machines": self.retried_machines,
                "dropped_machines": self.dropped_machines,
                "failed_attempts": self.failed_attempts,
                "wasted_work": self.wasted_work,
            })
        if self.profile_active:
            out["profile"] = self.profile_rows()
        if self.metrics:
            out["metrics"] = copy.deepcopy(self.metrics)
        return out
