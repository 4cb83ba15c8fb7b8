"""Unit and lifecycle tests for the zero-copy data plane.

The data plane's contract has three legs:

* **equivalence** — descriptors resolve to exactly the array slices they
  replaced, in-process (views) and across processes (attach);
* **accounting** — ``__mpc_size__`` of a descriptor equals ``sizeof`` of
  the replaced slice, so every ledger is byte-identical with the plane
  on or off, while the *physical* pickle bytes shrink;
* **lifecycle** — no shared-memory segment survives a run under any
  executor or exit path (clean, chaos retries, mid-round failure).
"""

import pickle

import numpy as np
import pytest

from repro import mpc_edit_distance, mpc_ulam
from repro.mpc import (DataPlane, FaultPlan, MemoryLimitExceeded,
                       MPCSimulator, ProcessPoolExecutor, RetryPolicy,
                       SerialExecutor,
                       SharedSlice, active_segments, payload_byte_stats,
                       resolve_payload, sizeof)
from repro.mpc import shm as shm_mod
from repro.mpc.telemetry import InMemorySink, Tracer
from repro.workloads.permutations import planted_pair as perm_pair
from repro.workloads.strings import planted_pair as str_pair


class TestSharedSlice:
    def test_sizeof_matches_replaced_ndarray(self):
        arr = np.arange(37, dtype=np.int64)
        ref = SharedSlice("seg", "int64", 3, 20)
        assert sizeof(ref) == sizeof(arr[3:23])
        assert sizeof(SharedSlice("seg", "int64", 0, 0)) == sizeof(arr[:0])

    def test_len_and_nbytes(self):
        ref = SharedSlice("seg", "int64", 4, 9)
        assert len(ref) == 9
        assert ref.nbytes == 9 * 8

    def test_pickles_small_regardless_of_length(self):
        tiny = SharedSlice("seg", "int64", 0, 10)
        huge = SharedSlice("seg", "int64", 0, 10 ** 9)
        # O(descriptor) bytes: a billion-element slice costs the same few
        # bytes as a ten-element one (modulo the integer's own width).
        assert len(pickle.dumps(huge)) < len(pickle.dumps(tiny)) + 8
        assert len(pickle.dumps(huge)) < 160


class TestPublishResolve:
    def test_roundtrip_and_zero_copy(self):
        arr = np.arange(100, dtype=np.int64)
        with DataPlane() as plane:
            plane.publish("a", arr)
            ref = plane.slice("a", 10, 40)
            view = resolve_payload(ref)
            np.testing.assert_array_equal(view, arr[10:40])
            # local resolution aliases the published copy — no per-task copy
            assert np.shares_memory(view, resolve_payload(
                plane.slice("a", 0, 100)))
        assert active_segments() == frozenset()

    def test_resolution_through_worker_attach_path(self):
        arr = np.arange(64, dtype=np.int64)
        with DataPlane() as plane:
            full = plane.publish("a", arr)
            # Simulate a worker that pre-dates the publish: it has no
            # local-array entry and must attach the segment.
            local = shm_mod._local_arrays.pop(full.segment)
            try:
                view = resolve_payload(plane.slice("a", 5, 25))
                np.testing.assert_array_equal(view, arr[5:25])
            finally:
                shm_mod._local_arrays[full.segment] = local
                shm_mod.detach_segments()
        assert active_segments() == frozenset()

    def test_attach_cache_is_bounded_lru(self):
        planes = [DataPlane() for _ in range(shm_mod._ATTACH_CACHE_LIMIT + 3)]
        try:
            for i, plane in enumerate(planes):
                full = plane.publish("a", np.arange(8, dtype=np.int64) + i)
                shm_mod._local_arrays.pop(full.segment)
                resolve_payload(plane.slice("a", 0, 8))
            assert len(shm_mod._attach_cache) \
                <= shm_mod._ATTACH_CACHE_LIMIT
        finally:
            shm_mod.detach_segments()
            for plane in planes:
                plane.close()
        assert active_segments() == frozenset()

    def test_resolve_payload_walks_containers(self):
        arr = np.arange(30, dtype=np.int64)
        with DataPlane() as plane:
            plane.publish("a", arr)
            payload = {"items": [(0, plane.slice("a", 0, 5)),
                                 (1, plane.slice("a", 5, 10))],
                       "plain": 7}
            out = resolve_payload(payload)
            np.testing.assert_array_equal(out["items"][0][1], arr[0:5])
            np.testing.assert_array_equal(out["items"][1][1], arr[5:10])
            assert out["plain"] == 7

    def test_resolve_payload_preserves_identity_without_descriptors(self):
        payload = {"a": [1, 2, (3, 4)], "b": np.arange(3)}
        assert resolve_payload(payload) is payload

    def test_slice_bounds_checked(self):
        with DataPlane() as plane:
            plane.publish("a", np.arange(10, dtype=np.int64))
            with pytest.raises(ValueError):
                plane.slice("a", 3, 11)
            with pytest.raises(ValueError):
                plane.slice("a", -1, 5)
            with pytest.raises(KeyError):
                plane.slice("missing", 0, 1)

    def test_publish_rejects_duplicates_and_2d(self):
        with DataPlane() as plane:
            plane.publish("a", np.arange(4))
            with pytest.raises(ValueError):
                plane.publish("a", np.arange(4))
            with pytest.raises(ValueError):
                plane.publish("b", np.zeros((2, 2)))

    def test_closed_plane_rejects_publish(self):
        plane = DataPlane()
        plane.close()
        plane.close()  # idempotent
        with pytest.raises(ValueError):
            plane.publish("a", np.arange(3))


class TestByteAccounting:
    def test_descriptor_payloads_ship_fewer_bytes(self):
        arr = np.arange(4096, dtype=np.int64)
        with DataPlane() as plane:
            plane.publish("a", arr)
            copies = [{"block": arr[lo:lo + 512]}
                      for lo in range(0, 4096, 512)]
            descs = [{"block": plane.slice("a", lo, lo + 512)}
                     for lo in range(0, 4096, 512)]
            shipped_c, avoided_c = payload_byte_stats(copies)
            shipped_d, avoided_d = payload_byte_stats(descs)
        assert avoided_c == 0
        assert avoided_d == 4096 * 8
        assert shipped_d * 2 < shipped_c

    def test_publish_emits_span(self):
        sink = InMemorySink()
        with DataPlane(tracer=Tracer([sink])) as plane:
            plane.publish("a", np.arange(17, dtype=np.int64))
        spans = [s for s in sink.spans if s.kind == "publish"]
        assert len(spans) == 1
        assert spans[0].name == "data-plane/a"
        assert spans[0].output_words == 17


class TestRefcounting:
    def test_release_of_last_reference_unlinks(self):
        plane = DataPlane()
        plane.publish("a", np.arange(5))
        assert len(active_segments()) == 1
        plane.retain("a")
        plane.release("a")
        assert len(active_segments()) == 1  # publish ref still held
        plane.release("a")
        assert active_segments() == frozenset()
        plane.close()

    def test_close_force_unlinks_leaked_retains(self):
        plane = DataPlane()
        plane.publish("a", np.arange(5))
        plane.retain("a")
        plane.close()
        assert active_segments() == frozenset()


def _summary(res):
    out = res.stats.summary()
    out.pop("wall_seconds", None)
    return out


class TestDriverLifecycle:
    """No segment survives a run — any driver, any executor, any exit."""

    def test_ulam_serial_and_pool_agree_and_leak_nothing(self):
        s, t, _ = perm_pair(256, 16, seed=0, style="mixed")
        serial = mpc_ulam(s, t, seed=0)
        assert active_segments() == frozenset()
        with ProcessPoolExecutor(max_workers=2) as pool:
            sim = MPCSimulator(
                memory_limit=serial.params.memory_limit, executor=pool)
            pooled = mpc_ulam(s, t, seed=0, sim=sim)
        assert active_segments() == frozenset()
        assert pooled.distance == serial.distance
        assert _summary(pooled) == _summary(serial)

    def test_edit_pool_matches_serial_and_leaks_nothing(self):
        s, t, _ = str_pair(128, 8, sigma=4, seed=0)
        serial = mpc_edit_distance(s, t, seed=0)
        with ProcessPoolExecutor(max_workers=2) as pool:
            sim = MPCSimulator(
                memory_limit=serial.params.memory_limit, executor=pool)
            pooled = mpc_edit_distance(s, t, seed=0, sim=sim)
        assert active_segments() == frozenset()
        assert pooled.distance == serial.distance
        assert _summary(pooled) == _summary(serial)

    def test_chaos_retry_waves_leak_nothing(self):
        s, t, _ = perm_pair(256, 16, seed=1, style="mixed")
        from repro.params import UlamParams
        sim = MPCSimulator(
            memory_limit=UlamParams(n=256, x=0.4, eps=0.5).memory_limit,
            fault_plan=FaultPlan.from_spec("crash=0.2,straggle=0.1x2",
                                           seed=11),
            retry_policy=RetryPolicy(max_attempts=3))
        res = mpc_ulam(s, t, x=0.4, eps=0.5, seed=0, sim=sim)
        assert res.stats.retried_machines > 0
        assert active_segments() == frozenset()

    def test_chaos_under_pool_leaks_nothing(self):
        s, t, _ = perm_pair(256, 16, seed=1, style="mixed")
        from repro.params import UlamParams
        with ProcessPoolExecutor(max_workers=2) as pool:
            sim = MPCSimulator(
                memory_limit=UlamParams(n=256, x=0.4,
                                        eps=0.5).memory_limit,
                fault_plan=FaultPlan.from_spec("crash=0.2", seed=11),
                retry_policy=RetryPolicy(max_attempts=3),
                executor=pool)
            clean = mpc_ulam(s, t, x=0.4, eps=0.5, seed=0)
            res = mpc_ulam(s, t, x=0.4, eps=0.5, seed=0, sim=sim)
        assert active_segments() == frozenset()
        assert res.distance == clean.distance

    def test_mid_round_failure_still_unlinks(self):
        # A memory-cap violation aborts the run mid-round; the driver's
        # finally must unlink every segment on that path too.
        s, t, _ = perm_pair(256, 16, seed=0, style="mixed")
        sim = MPCSimulator(memory_limit=8)  # far below any payload
        with pytest.raises(MemoryLimitExceeded):
            mpc_ulam(s, t, seed=0, sim=sim)
        assert active_segments() == frozenset()

    def test_serial_executor_passthrough(self):
        # Explicit SerialExecutor (not just the default) resolves locally.
        s, t, _ = perm_pair(256, 16, seed=0, style="mixed")
        sim = MPCSimulator(memory_limit=None, executor=SerialExecutor())
        res = mpc_ulam(s, t, seed=0, sim=sim)
        assert res.distance == mpc_ulam(s, t, seed=0).distance
        assert active_segments() == frozenset()


class TestRoundByteMetrics:
    def test_round_records_bytes_when_metrics_enabled(self):
        from repro.metrics import enabled
        s, t, _ = perm_pair(256, 16, seed=0, style="mixed")
        with enabled():
            on = mpc_ulam(s, t, seed=0, data_plane=True)
            off = mpc_ulam(s, t, seed=0, data_plane=False)
        assert on.stats.payload_bytes_avoided > 0
        assert off.stats.payload_bytes_avoided == 0
        assert 0 < on.stats.payload_bytes < off.stats.payload_bytes
        assert on.stats.summary()["data_plane_bytes_shipped"] \
            == on.stats.payload_bytes
        # Ledger fields stay identical; only the physical-byte report moves.
        keep = ("total_work", "total_communication_words",
                "max_memory_words", "rounds")
        for key in keep:
            assert on.stats.summary()[key] == off.stats.summary()[key]

    def test_bytes_not_recorded_when_metrics_disabled(self):
        s, t, _ = perm_pair(256, 16, seed=0, style="mixed")
        res = mpc_ulam(s, t, seed=0, data_plane=True)
        assert res.stats.payload_bytes == 0
        assert "data_plane_bytes_shipped" not in res.stats.summary()
