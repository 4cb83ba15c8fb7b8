"""Executors: how the machines of one round actually run.

The MPC model is agnostic about the physical mapping of machines to
hardware; what matters is that machines within a round cannot communicate.
Both executors below preserve that semantics:

* :class:`SerialExecutor` runs machines one after another in-process.  It
  is deterministic, debuggable, and what the test-suite uses.
* :class:`ProcessPoolExecutor` fans machines out over OS processes (the
  closest single-host analogue of an mpi4py ``scatter``/``gather`` cycle,
  cf. the mpi4py tutorial idioms).  Payloads and results are pickled, so
  machine functions must be top-level callables.

Executors only run tasks; all memory enforcement and accounting lives in
:class:`repro.mpc.simulator.MPCSimulator` so that both executors are
measured identically.  The same holds for telemetry
(:mod:`repro.mpc.telemetry`): executors never emit spans themselves —
each :class:`~repro.mpc.machine.MachineResult` carries its worker pid
and monotonic start time back across the process boundary as plain
picklable fields, and the simulator turns results into spans, so traces
are attributed identically under both executors.
"""

from __future__ import annotations

import concurrent.futures
import os
import pickle
import time
from collections import OrderedDict
from multiprocessing import resource_tracker
from typing import List, Optional, Sequence, Tuple

from ..metrics import enable as _enable_metrics, get_registry
from ..obs.profile import enable as _enable_profiling, profiling_enabled
from .machine import Broadcast, MachineResult, MachineTask, execute_task

__all__ = ["Executor", "SerialExecutor", "ProcessPoolExecutor"]


def _worker_init(profiling_on: bool, metrics_on: bool) -> None:
    """Pool-worker initializer: replicate driver-side collection state.

    The kernel profiler's and the metrics' on/off switches are module
    globals; fork-started workers happen to inherit them, but
    spawn-started workers would not.  Capturing the flags at pool
    construction and re-applying them here makes
    :class:`~repro.mpc.machine.MachineResult` ``profile`` and
    ``metrics`` collection start-method-independent.
    """
    if profiling_on:
        _enable_profiling()
    if metrics_on:
        _enable_metrics()


def _worker_pid(hold: float) -> int:
    """Hold a pool worker busy for *hold* seconds; return its pid."""
    time.sleep(hold)
    return os.getpid()


class Executor:
    """Interface: run a round's tasks and return results in task order.

    *broadcast* is the round's shared read-only blob (or ``None``); an
    executor must deliver its ``.value`` merged under every task payload
    — see :func:`repro.mpc.machine.execute_task` — but is free to choose
    *how* the blob travels (by reference in-process, serialised once per
    worker across processes).
    """

    def run(self, tasks: Sequence[MachineTask],
            broadcast: Optional[Broadcast] = None) -> List[MachineResult]:
        raise NotImplementedError

    def close(self) -> None:
        """Release any held resources.  Default: nothing to do."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialExecutor(Executor):
    """Run every machine in the current process, sequentially."""

    def run(self, tasks: Sequence[MachineTask],
            broadcast: Optional[Broadcast] = None) -> List[MachineResult]:
        value = broadcast.value if broadcast is not None else None
        return [execute_task(task, value) for task in tasks]


# ---------------------------------------------------------------------------
# Process-pool broadcast plumbing.  The blob crosses the process boundary
# as pre-pickled bytes tagged with the round's token; each worker
# deserialises a given token at most once and caches the value for the
# round's remaining tasks (and any retry waves).

#: token -> deserialised broadcast dict, per worker process.  A true LRU:
#: every cache hit refreshes the token's recency, so the round currently
#: executing can never be evicted by unrelated rounds churning the cache
#: — eviction removes the least-recently-*used* token, deterministically
#: oldest-first among untouched entries.
_worker_broadcast_cache: "OrderedDict[int, dict]" = OrderedDict()
_WORKER_CACHE_LIMIT = 4


def _resolve_broadcast(token: int, data: bytes) -> dict:
    value = _worker_broadcast_cache.get(token)
    if value is None:
        value = pickle.loads(data)
        while len(_worker_broadcast_cache) >= _WORKER_CACHE_LIMIT:
            _worker_broadcast_cache.popitem(last=False)
        _worker_broadcast_cache[token] = value
    else:
        _worker_broadcast_cache.move_to_end(token)
    return value


def _execute_batch(batch: Tuple[Optional[Tuple[int, bytes]],
                                List[MachineTask]]) -> List[MachineResult]:
    """Worker entry point: run one batch of tasks sharing one broadcast."""
    ref, tasks = batch
    value = _resolve_broadcast(*ref) if ref is not None else None
    return [execute_task(task, value) for task in tasks]


class ProcessPoolExecutor(Executor):
    """Run machines of a round concurrently across OS processes.

    Parameters
    ----------
    max_workers:
        Number of worker processes.  Defaults to ``os.cpu_count()``.
    chunksize:
        Tasks per pickled batch; larger values amortise IPC overhead for
        many small machines.  ``None`` (the default) derives the batch
        size from the round: ``max(1, n_tasks // (4 * max_workers))`` —
        about four batches per worker, enough slack for work stealing
        while many-small-machine rounds stop paying per-task IPC.  An
        explicit value stays authoritative for every round.

    Pool lifecycle is explicit: workers are spawned by :meth:`start` or
    lazily on the first non-empty :meth:`run`, released by :meth:`close`
    (or leaving the ``with`` block), and *respawned* if :meth:`run` is
    called again after a close — each close/run cycle is a fresh pool,
    never a zombie handle to a shut-down one.  Prefer the context-manager
    form so workers are always reclaimed::

        with ProcessPoolExecutor(max_workers=8) as pool:
            sim = MPCSimulator(memory_limit=limit, executor=pool)
            ...
    """

    def __init__(self, max_workers: int | None = None,
                 chunksize: int | None = None) -> None:
        self.max_workers = max_workers or (os.cpu_count() or 1)
        self.chunksize = chunksize
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None

    def effective_chunksize(self, n_tasks: int) -> int:
        """The batch size used for a round of *n_tasks* machines."""
        if self.chunksize is not None:
            return self.chunksize
        return max(1, n_tasks // (4 * self.max_workers))

    @property
    def running(self) -> bool:
        """True while a worker pool is alive (between first run and close)."""
        return self._pool is not None

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=_worker_init,
                initargs=(profiling_enabled(), get_registry().enabled))
        return self._pool

    def start(self) -> None:
        """Spawn every worker now, from the calling thread.

        A forked worker inherits every lock held at the fork: one forked
        at a round's first :meth:`run` while another thread holds the
        resource tracker's lock (during a shared-memory publish or
        attach) hangs at its own first attach.  Call this before such
        threads exist.  The tracker starts first, so the workers share
        it: one started by a worker unlinks what that worker attached
        when it exits.  ``concurrent.futures`` forks every worker at the
        first submit from Python 3.11 on, and before that one per submit
        while none is idle, so the workers are held briefly busy until
        every pid has answered.
        """
        resource_tracker.ensure_running()
        pool = self._ensure_pool()
        pids: set = set()
        while len(pids) < self.max_workers:
            pids.update(pool.map(_worker_pid,
                                 [0.001] * self.max_workers))

    def run(self, tasks: Sequence[MachineTask],
            broadcast: Optional[Broadcast] = None) -> List[MachineResult]:
        if not tasks:
            return []
        pool = self._ensure_pool()
        if broadcast is None:
            return list(pool.map(execute_task, tasks,
                                 chunksize=self.effective_chunksize(
                                     len(tasks))))
        # Broadcast round: ship the blob once per *batch* and cut the
        # round into at most ``max_workers`` batches, so the serialised
        # bytes cross the process boundary at most once per worker (the
        # blob's own pickling already happened at most once per round,
        # inside Broadcast.pickled()).
        ref = (broadcast.token, broadcast.pickled())
        per_batch = -(-len(tasks) // self.max_workers)
        batches = [(ref, list(tasks[lo:lo + per_batch]))
                   for lo in range(0, len(tasks), per_batch)]
        out: List[MachineResult] = []
        for chunk in pool.map(_execute_batch, batches, chunksize=1):
            out.extend(chunk)
        return out

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
