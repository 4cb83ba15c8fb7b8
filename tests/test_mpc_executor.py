"""Unit tests for serial and process-pool executors.

Machine functions must be top-level for pickling, hence the module-level
helpers.
"""

from multiprocessing import resource_tracker

import numpy as np
import pytest

from repro.mpc import (MachineTask, MPCSimulator, ProcessPoolExecutor,
                       SerialExecutor, add_work, execute_task)
from repro.mpc import executor as executor_mod
from repro.mpc.executor import _resolve_broadcast


def _tracker_pid(_):
    return resource_tracker._resource_tracker._pid


def _square(payload):
    add_work(payload)
    return payload * payload


def _numpy_sum(payload):
    return int(np.sum(payload))


class TestExecuteTask:
    def test_result_carries_output_and_work(self):
        res = execute_task(MachineTask(fn=_square, payload=6))
        assert res.output == 36
        assert res.work == 6
        assert res.wall_seconds >= 0


class TestSerialExecutor:
    def test_runs_in_order(self):
        ex = SerialExecutor()
        results = ex.run([MachineTask(_square, i) for i in range(5)])
        assert [r.output for r in results] == [0, 1, 4, 9, 16]

    def test_empty(self):
        assert SerialExecutor().run([]) == []


class TestProcessPoolExecutor:
    def test_matches_serial_results(self):
        tasks = [MachineTask(_square, i) for i in range(10)]
        with ProcessPoolExecutor(max_workers=2) as pool:
            pooled = pool.run(tasks)
        serial = SerialExecutor().run(tasks)
        assert [r.output for r in pooled] == [r.output for r in serial]

    def test_work_metering_crosses_process_boundary(self):
        with ProcessPoolExecutor(max_workers=2) as pool:
            results = pool.run([MachineTask(_square, 7)])
        assert results[0].work == 7

    def test_numpy_payloads_roundtrip(self):
        arrays = [np.arange(k) for k in (3, 5, 7)]
        with ProcessPoolExecutor(max_workers=2) as pool:
            results = pool.run([MachineTask(_numpy_sum, a) for a in arrays])
        assert [r.output for r in results] == [3, 10, 21]

    def test_empty_run_without_spawning_pool(self):
        pool = ProcessPoolExecutor()
        assert pool.run([]) == []
        assert pool._pool is None  # no workers were started

    def test_simulator_integration(self):
        with ProcessPoolExecutor(max_workers=2) as pool:
            sim = MPCSimulator(memory_limit=1000, executor=pool)
            outs = sim.run_round("r", _square, [1, 2, 3])
        assert outs == [1, 4, 9]
        assert sim.stats.rounds[0].total_work == 6

    def test_close_run_close_cycles_pool_explicitly(self):
        # Regression: run() after close() must respawn a fresh pool (and
        # report it via `running`), not reuse a shut-down handle.
        pool = ProcessPoolExecutor(max_workers=2)
        assert not pool.running
        assert [r.output for r in pool.run([MachineTask(_square, 3)])] \
            == [9]
        assert pool.running
        pool.close()
        assert not pool.running
        assert [r.output for r in pool.run([MachineTask(_square, 4)])] \
            == [16]
        assert pool.running
        pool.close()
        assert not pool.running

    def test_start_spawns_every_worker_up_front(self):
        # Every worker forks in start(), from this thread, after the
        # resource tracker started: the workers share this process's
        # tracker, and a round run afterwards spawns no worker.
        with ProcessPoolExecutor(max_workers=2) as pool:
            pool.start()
            workers = set(pool._pool._processes)
            assert len(workers) == 2
            tracker = _tracker_pid(None)
            assert tracker is not None
            assert set(pool._pool.map(_tracker_pid, range(4))) == {tracker}
            assert [r.output for r in pool.run(
                [MachineTask(_square, k) for k in range(6)])] \
                == [k * k for k in range(6)]
            assert set(pool._pool._processes) == workers

    def test_double_close_is_idempotent(self):
        pool = ProcessPoolExecutor(max_workers=2)
        pool.run([MachineTask(_square, 2)])
        pool.close()
        pool.close()
        assert not pool.running


class TestEffectiveChunksize:
    def test_explicit_chunksize_is_authoritative(self):
        pool = ProcessPoolExecutor(max_workers=4, chunksize=3)
        assert pool.effective_chunksize(1000) == 3
        assert pool.effective_chunksize(1) == 3

    def test_default_derives_four_batches_per_worker(self):
        pool = ProcessPoolExecutor(max_workers=4)
        assert pool.effective_chunksize(160) == 10  # 160 // (4*4)
        assert pool.effective_chunksize(16) == 1
        assert pool.effective_chunksize(0) == 1     # floor at 1

    def test_default_chunksize_results_match_serial(self):
        tasks = [MachineTask(_square, i) for i in range(50)]
        with ProcessPoolExecutor(max_workers=2) as pool:
            assert pool.chunksize is None
            pooled = pool.run(tasks)
        assert [r.output for r in pooled] \
            == [r.output for r in SerialExecutor().run(tasks)]


class TestWorkerBroadcastCacheLRU:
    """Regression: the per-worker broadcast cache evicts by *use*, not
    by insertion order — the round currently executing must survive
    unrelated rounds churning the cache."""

    def _pickled(self, value):
        import pickle
        return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)

    def test_hit_refreshes_recency(self):
        saved = dict(executor_mod._worker_broadcast_cache)
        executor_mod._worker_broadcast_cache.clear()
        try:
            limit = executor_mod._WORKER_CACHE_LIMIT
            blobs = {i: {"round": i} for i in range(limit + 1)}
            for i in range(limit):
                _resolve_broadcast(i, self._pickled(blobs[i]))
            first = _resolve_broadcast(0, self._pickled(blobs[0]))  # touch 0
            _resolve_broadcast(limit, self._pickled(blobs[limit]))
            cached = executor_mod._worker_broadcast_cache
            assert 0 in cached          # refreshed: survived the eviction
            assert 1 not in cached      # least-recently-used: evicted
            # token 0 resolves to the cached object, not a fresh unpickle
            assert _resolve_broadcast(0, self._pickled(blobs[0])) is first
        finally:
            executor_mod._worker_broadcast_cache.clear()
            executor_mod._worker_broadcast_cache.update(saved)

    def test_cache_stays_bounded(self):
        saved = dict(executor_mod._worker_broadcast_cache)
        executor_mod._worker_broadcast_cache.clear()
        try:
            for i in range(20):
                _resolve_broadcast(100 + i, self._pickled({"i": i}))
            assert len(executor_mod._worker_broadcast_cache) \
                <= executor_mod._WORKER_CACHE_LIMIT
        finally:
            executor_mod._worker_broadcast_cache.clear()
            executor_mod._worker_broadcast_cache.update(saved)
