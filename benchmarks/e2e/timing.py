"""Latency statistics and the host-speed probe behind the timed metrics.

Shared hosts change speed under a benchmark, and on the 2-vCPU VM the
baseline was measured on, each vCPU changes on its own: with a workload
pinned to CPU 0, its query latencies follow the probe on CPU 0
(correlation 0.81-0.93) and not the probe on CPU 1 (0.01-0.08).  The
host slows a vCPU in two ways.  It runs it slower (a busy hyperthread
sibling, the clock), which a fixed unit of work timed in the vCPU's own
CPU time shows; and it takes it away, which the hypervisor reports as
steal time in ``/proc/stat`` -- from 0.4% to 39% of the busy time of a
25 s run.  Wall-clock runs of one workload and seed spread by up to 25%
(standard deviation over five runs).

:class:`HostSpeedProbe` measures both while a workload runs.  One thread
per CPU, pinned to it, times :func:`_unit` in thread CPU time every
50 ms (about 0.5% of the CPU) and reads the CPU's busy and steal clock
ticks.  The slowdown over an interval (plus a margin) is the median
unit time, times the steal factor ``(busy + steal) / busy``, divided by
:data:`REFERENCE_S`.  Both are weighted per sample by the ticks its CPU
was busy since the previous one, so they describe the CPUs the workload
ran on.  Timed metrics are reported at the reference speed: a query's
latency is divided by the slowdown over its own interval, throughput is
multiplied by the slowdown over the window.  Wall-clock values are kept
next to the adjusted ones.

Each part was chosen by measurement (``README.md`` has the numbers):

* CPU time, not wall-clock, because a wall-timed unit also counts the
  time the benchmark's own threads and pool workers hold the probe's
  CPU, so it would cancel part of any slowdown that also adds load.
* The median, not the mean, because a unit that runs just after its
  vCPU was given back reads slow while the workload does not: with the
  mean, a run with 39% steal was over-corrected by 28%.
* The steal factor, because CPU time leaves steal out: without it, runs
  of ``edit-n1024-pool2`` differed by 20% in throughput, with it by 3%.
* The busy weighting, because the unweighted mean of both CPUs dilutes
  the CPU a one-thread workload ran on.

Stdlib only: the orchestrating process imports this, and nothing a
change to ``repro`` or to its NumPy use does may change the probe.
"""

from __future__ import annotations

import bisect
import os
import random
import statistics
import threading
import time
from typing import Dict, List, Sequence, Tuple

__all__ = ["REFERENCE_S", "HostSpeedProbe", "percentiles"]

#: Probe-unit time at the reference host speed (the typical time on the
#: host the baseline was measured on).
REFERENCE_S = 0.00027

#: Probe period per CPU, and the margin around an interval whose
#: samples describe it.
_PERIOD_S = 0.05
_MARGIN_S = 0.25

#: Weight in the median of a unit timed on a CPU that was idle since the
#: previous sample; a busy CPU adds one per clock tick it was busy.  Not
#: 0, so that an interval with every CPU idle still has a reading.
_IDLE_WEIGHT = 0.1

_DATA = [random.Random(0).getrandbits(20) for _ in range(2048)]


def _unit() -> int:
    total = 0
    for k in range(3000):
        total += k & 7
    for _ in range(3):
        total += sorted(_DATA)[0]
    return total


def percentiles(values: Sequence[float]) -> Dict[int, float]:
    """p50, p90 and p99 of *values* (interpolated, inclusive method)."""
    if len(values) < 2:
        return {p: values[0] for p in (50, 90, 99)}
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return {p: cuts[p - 1] for p in (50, 90, 99)}


def _ticks(cpu: int) -> Tuple[int, int]:
    """Clock ticks *cpu* spent busy, and stolen by the hypervisor, since
    boot (``/proc/stat``)."""
    prefix = f"cpu{cpu} "
    with open("/proc/stat") as fh:
        for line in fh:
            if line.startswith(prefix):
                # user nice system idle iowait irq softirq steal ...
                t = [int(x) for x in line.split()[1:9]]
                return t[0] + t[1] + t[2] + t[5] + t[6], t[7]
    raise ValueError(f"/proc/stat has no line for cpu{cpu}")


class HostSpeedProbe:
    """Samples host speed on every CPU while the ``with`` block runs."""

    def __init__(self) -> None:
        self._stop = threading.Event()
        #: (time, unit CPU seconds, busy ticks, steal ticks) per sample.
        self._samples: List[Tuple[float, float, int, int]] = []
        self._ends: List[float] = []
        self._threads = [threading.Thread(target=self._run, args=(cpu,),
                                          daemon=True)
                         for cpu in sorted(os.sched_getaffinity(0))]

    def __enter__(self) -> "HostSpeedProbe":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()
        self._samples.sort()
        self._ends = [sample[0] for sample in self._samples]

    def _run(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # pins this thread only
        busy, steal = _ticks(cpu)
        while not self._stop.wait(_PERIOD_S):
            start = time.thread_time()
            _unit()
            seconds = time.thread_time() - start
            now_busy, now_steal = _ticks(cpu)
            self._samples.append((time.perf_counter(), seconds,
                                  now_busy - busy, now_steal - steal))
            busy, steal = now_busy, now_steal

    def slowdown(self, start: float, end: float) -> float:
        """Host slowdown over ``[start, end]`` (plus a margin) against
        :data:`REFERENCE_S`; above 1 the host ran slower than the
        reference.  Call after the ``with`` block."""
        lo = bisect.bisect_left(self._ends, start - _MARGIN_S)
        hi = bisect.bisect_right(self._ends, end + _MARGIN_S)
        window = self._samples[lo:hi]
        if not window:
            raise ValueError("no host-speed samples around "
                             f"[{start}, {end}]")
        busy = sum(b for _, _, b, _ in window)
        stolen = sum(s for _, _, _, s in window)
        steal_factor = (busy + stolen) / busy if busy else 1.0
        # Median of the unit times, each weighted by how busy its CPU was.
        weighted = sorted((x, _IDLE_WEIGHT + b) for _, x, b, _ in window)
        half = sum(w for _, w in weighted) / 2
        for seconds, w in weighted:
            half -= w
            if half <= 0:
                break
        return seconds * steal_factor / REFERENCE_S
