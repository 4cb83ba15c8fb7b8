"""Tests for the metrics snapshot writes and registry (repro.metrics).

This file is the single sanctioned place outside ``src/repro/`` that
calls the metric writes (``inc``/``set_gauge``/``observe``/
``record_metric``) — the API-boundary checker exempts it by name.
"""

import json

import pytest

from repro.metrics import (MetricsRegistry, disable, enable, enabled,
                           get_registry, inc, merge_snapshots, metric_key,
                           observe, set_gauge)
from repro.mpc import MPCSimulator, WorkMeter
from repro.mpc.accounting import record_metric


class TestMetricKey:
    def test_no_labels(self):
        assert metric_key("dp.cells", {}) == "dp.cells"

    def test_labels_sorted(self):
        key = metric_key("dp.cells", {"kernel": "banded", "algo": "edit"})
        assert key == "dp.cells{algo=edit,kernel=banded}"


class TestInstruments:
    """The three writes on a snapshot dict."""

    def test_counter_disabled_is_noop(self):
        snap = {}
        inc(snap, "c", 5)
        assert snap == {}

    def test_counter_enabled_accumulates(self):
        snap = {}
        with enabled():
            inc(snap, "c")
            inc(snap, "c", 41)
        assert snap == {"c": {"type": "counter", "value": 42}}

    def test_gauge_last_set_wins(self):
        snap = {}
        with enabled():
            set_gauge(snap, "g", 3)
            set_gauge(snap, "g", 7)
        assert snap["g"]["value"] == 7

    def test_gauge_disabled_is_noop(self):
        snap = {}
        set_gauge(snap, "g", 3)
        assert snap == {}

    def test_histogram_moments(self):
        snap = {}
        with enabled():
            for v in (4, 1, 7):
                observe(snap, "h", v)
        assert snap["h"] == {"type": "histogram", "count": 3, "sum": 12,
                             "min": 1, "max": 7}

    def test_histogram_disabled_is_noop(self):
        snap = {}
        observe(snap, "h", 5)
        assert snap == {}

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.record({"m": {"type": "counter", "value": 1}})
        with pytest.raises(ValueError, match="cannot merge"):
            reg.record({"m": {"type": "gauge", "value": 1}})


class TestSnapshots:
    def _loaded(self):
        snap = {}
        with enabled():
            inc(snap, metric_key("work", {"phase": "dense"}), 100)
            set_gauge(snap, "top_k", 8)
            observe(snap, "per_block", 3)
            observe(snap, "per_block", 5)
        reg = MetricsRegistry()
        reg.record(snap)
        return reg

    def test_snapshot_includes_only_touched(self):
        snap = {}
        with enabled():
            inc(snap, "never.written", 0)   # a zero tick leaves no entry
        reg = self._loaded()
        reg.record(snap)
        assert set(reg.snapshot()) == {"work{phase=dense}", "top_k",
                                       "per_block"}

    def test_snapshot_is_json_serialisable(self):
        snap = self._loaded().snapshot()
        assert json.loads(json.dumps(snap)) == snap

    def test_snapshot_keys_sorted(self):
        snap = self._loaded().snapshot()
        assert list(snap) == sorted(snap)

    def test_registry_folds_recorded_snapshots(self):
        reg = self._loaded()
        reg.record({"work{phase=dense}": {"type": "counter", "value": 5},
                    "per_block": {"type": "histogram", "count": 1,
                                  "sum": 9, "min": 9, "max": 9}})
        snap = reg.snapshot()
        assert snap["work{phase=dense}"]["value"] == 105
        assert snap["per_block"] == {"type": "histogram", "count": 3,
                                     "sum": 17, "min": 3, "max": 9}

    def test_snapshot_is_detached(self):
        reg = self._loaded()
        reg.snapshot()["top_k"]["value"] = 99
        assert reg.snapshot()["top_k"]["value"] == 8

    def test_reset_clears_the_fold(self):
        reg = self._loaded()
        reg.reset()
        assert reg.snapshot() == {}
        reg.record({"c": {"type": "counter", "value": 7}})
        assert reg.snapshot() == {"c": {"type": "counter", "value": 7}}


class TestMergeSnapshots:
    def test_empty_is_identity(self):
        snap = {"c": {"type": "counter", "value": 3}}
        assert merge_snapshots(snap, {}) == snap
        assert merge_snapshots({}, snap) == snap

    def test_counters_add_gauges_max(self):
        a = {"c": {"type": "counter", "value": 3},
             "g": {"type": "gauge", "value": 5}}
        b = {"c": {"type": "counter", "value": 4},
             "g": {"type": "gauge", "value": 2}}
        merged = merge_snapshots(a, b)
        assert merged["c"]["value"] == 7
        assert merged["g"]["value"] == 5

    def test_histograms_combine_exactly(self):
        a = {"h": {"type": "histogram", "count": 2, "sum": 6,
                   "min": 1, "max": 5}}
        b = {"h": {"type": "histogram", "count": 1, "sum": 9,
                   "min": 9, "max": 9}}
        merged = merge_snapshots(a, b)
        assert merged["h"] == {"type": "histogram", "count": 3, "sum": 15,
                               "min": 1, "max": 9}

    def test_inputs_not_mutated(self):
        a = {"c": {"type": "counter", "value": 3}}
        b = {"c": {"type": "counter", "value": 4}}
        merge_snapshots(a, b)
        assert a["c"]["value"] == 3 and b["c"]["value"] == 4

    def test_type_mismatch_raises(self):
        a = {"m": {"type": "counter", "value": 3}}
        b = {"m": {"type": "gauge", "value": 4}}
        with pytest.raises(ValueError, match="cannot merge"):
            merge_snapshots(a, b)

    def test_incomparable_gauges_take_right_value(self):
        a = {"g": {"type": "gauge", "value": "small"}}
        b = {"g": {"type": "gauge", "value": 4}}
        assert merge_snapshots(a, b)["g"]["value"] == 4


class TestGlobalRegistry:
    def test_disabled_by_default(self):
        # The conftest fixture restores the pristine state around every
        # test, so observing the default here is sound.
        assert get_registry().enabled is False

    def test_enable_disable_toggle(self):
        enable()
        assert get_registry().enabled
        disable()
        assert not get_registry().enabled

    def test_enabled_context_restores_prior_state(self):
        assert not get_registry().enabled
        with enabled():
            assert get_registry().enabled
            with enabled(False):
                assert not get_registry().enabled
            assert get_registry().enabled
        assert not get_registry().enabled

    def test_enabled_context_collects(self):
        with enabled() as reg:
            reg.observe("scoped", 2)
        reg.observe("ignored", 5)       # collection is off again
        snap = get_registry().snapshot()
        assert snap["scoped"]["sum"] == 2
        assert "ignored" not in snap


def _tick_machine(amount: int) -> int:
    record_metric(inc, "sc.q", amount)
    return amount


class TestScopedSnapshot:
    """A metrics snapshot is scoped by the :class:`WorkMeter` it rides:
    every write made while the meter is active lands in it, and a
    machine's meter ships it through the simulator into the run's
    ledger."""

    def test_scope_collects_writes_in_delta_format(self):
        enable()
        with WorkMeter() as meter:
            record_metric(inc, "sc.c", 3)
            record_metric(set_gauge, "sc.g", 7)
            record_metric(observe, "sc.h", 2)
            record_metric(observe, "sc.h", 5)
        assert meter.metrics == {
            "sc.c": {"type": "counter", "value": 3},
            "sc.g": {"type": "gauge", "value": 7},
            "sc.h": {"type": "histogram", "count": 2, "sum": 7,
                     "min": 2, "max": 5},
        }

    def test_writes_outside_scope_excluded(self):
        enable()
        record_metric(inc, "sc.before", 10)     # no meter: no-op
        with WorkMeter() as meter:
            record_metric(inc, "sc.inside", 1)
        record_metric(inc, "sc.after", 10)
        assert list(meter.metrics) == ["sc.inside"]

    def test_disabled_registry_records_nothing(self):
        assert not get_registry().enabled
        with WorkMeter() as meter:
            record_metric(inc, "sc.c", 5)
        assert meter.metrics is None    # nothing to ship over the pool

    def test_scopes_nest(self):
        enable()
        with WorkMeter() as outer:
            record_metric(inc, "sc.c", 1)
            with WorkMeter() as inner:
                record_metric(inc, "sc.c", 2)
        assert outer.metrics["sc.c"]["value"] == 3
        assert inner.metrics["sc.c"]["value"] == 2

    def test_windowed_histogram_extremes_are_exact(self):
        # An earlier extreme observation in an enclosing meter does not
        # leak into a meter opened after it.
        enable()
        with WorkMeter() as outer:
            record_metric(observe, "sc.h", 1000)
            with WorkMeter() as inner:
                record_metric(observe, "sc.h", 4)
        assert inner.metrics["sc.h"]["min"] == 4
        assert inner.metrics["sc.h"]["max"] == 4
        assert outer.metrics["sc.h"]["max"] == 1000

    def test_concurrent_threads_do_not_bleed(self):
        # Meter stacks are thread-local, so a meter opened in one worker
        # never sees another worker's writes to the same key.
        import threading

        enable()
        snaps = {}
        barrier = threading.Barrier(4)

        def worker(wid: int) -> None:
            barrier.wait()
            with WorkMeter() as meter:
                for _ in range(200):
                    record_metric(inc, "sc.shared", 1)
                record_metric(inc, metric_key("sc.mine", {"w": wid}), wid)
            snaps[wid] = meter.metrics

        threads = [threading.Thread(target=worker, args=(w,))
                   for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        for wid in range(4):
            snap = snaps[wid]
            assert snap["sc.shared"]["value"] == 200
            mine = [k for k in snap if k.startswith("sc.mine")]
            assert mine == ([f"sc.mine{{w={wid}}}"] if wid else [])

    def test_overlapping_async_tasks_get_exact_deltas(self):
        # The service execution pattern: concurrent tasks, each running
        # its rounds on its own simulator through asyncio.to_thread.
        import asyncio

        enable()

        async def query(amount: int) -> dict:
            sim = MPCSimulator()
            for _ in range(3):
                await asyncio.to_thread(sim.run_round, "r", _tick_machine,
                                        [amount])
                await asyncio.sleep(0)
            return sim.stats.metrics

        async def main():
            return await asyncio.gather(query(1), query(10), query(100))

        one, ten, hundred = asyncio.run(main())
        assert one["sc.q"]["value"] == 3
        assert ten["sc.q"]["value"] == 30
        assert hundred["sc.q"]["value"] == 300
