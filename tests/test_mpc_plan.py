"""Unit tests for the declarative round-pipeline layer (repro.mpc.plan).

Covers the RoundSpec/Pipeline contract, the shuffle/broadcast ledger
fields, broadcast validation, equality of the broadcast memory charge
with the replicate-into-payload encoding, once-per-round serialisation
of the broadcast blob under a process pool, and drop-mode flow of
``None`` placeholders into collectors.
"""

import pytest

from repro.mpc import (Broadcast, FaultPlan, MPCSimulator, Pipeline,
                       ProcessPoolExecutor, RetryPolicy,
                       RoundProtocolError, RoundSpec,
                       add_work, run_plan, run_stats_from_dict,
                       run_stats_to_dict, sizeof)


def _double(payload):
    return {"v": payload["v"] * 2}


def _sum_with_offset(payload):
    return payload["offset"] + payload["v"]


def _echo(payload):
    return payload


class PickleCounter:
    """Sentinel: counts how often it is serialised (``__reduce__``)."""

    pickles = 0

    def __reduce__(self):
        type(self).pickles += 1
        return (PickleCounter, ())

    def __mpc_size__(self):
        return 1


def _read_sentinel(payload):
    # touching the merged dict proves the broadcast arrived
    assert "sentinel" in payload
    return payload["v"]


class TestPipelineBasics:
    def test_round_partitions_and_collects(self):
        sim = MPCSimulator()
        out = Pipeline(sim).round(RoundSpec(
            "r", _double,
            partitioner=lambda _: [{"v": i} for i in range(4)],
            collector=lambda outs, _: sum(o["v"] for o in outs)))
        assert out == 2 * (0 + 1 + 2 + 3)
        assert sim.stats.rounds[0].machines == 4

    def test_run_threads_state_between_specs(self):
        sim = MPCSimulator()
        final = run_plan(sim, [
            RoundSpec("a", _double,
                      partitioner=lambda _: [{"v": 3}],
                      collector=lambda outs, _: outs[0]["v"]),
            RoundSpec("b", _double,
                      partitioner=lambda v: [{"v": v}],
                      collector=lambda outs, _: outs[0]["v"]),
        ])
        assert final == 12
        assert [r.name for r in sim.stats.rounds] == ["a", "b"]

    def test_no_collector_passes_raw_outputs(self):
        sim = MPCSimulator()
        outs = Pipeline(sim).round(RoundSpec(
            "r", _double, partitioner=lambda _: [{"v": 1}, {"v": 2}]))
        assert outs == [{"v": 2}, {"v": 4}]
        assert sim.stats.rounds[0].shuffle_words == 0

    def test_collector_receives_previous_state(self):
        sim = MPCSimulator()
        got = {}
        Pipeline(sim).round(RoundSpec(
            "r", _double, partitioner=lambda s: [{"v": s}],
            collector=lambda outs, state: got.setdefault("state", state)),
            7)
        assert got["state"] == 7


class TestShuffleAccounting:
    def test_collector_volume_and_work_charged_to_round(self):
        def collector(outs, _):
            add_work(123)
            return [o["v"] for o in outs]

        sim = MPCSimulator()
        state = Pipeline(sim).round(RoundSpec(
            "r", _double,
            partitioner=lambda _: [{"v": i} for i in range(3)],
            collector=collector))
        r = sim.stats.rounds[0]
        assert r.shuffle_words == sizeof(state)
        assert r.shuffle_work == 123
        # collector work stays out of machine-compute totals
        assert sim.stats.shuffle_work == 123
        assert sim.stats.total_work == r.total_work

    def test_summary_gains_communication_block_only_when_active(self):
        sim = MPCSimulator()
        sim.run_round("legacy", _double, [{"v": 1}])
        assert "shuffle_words" not in sim.stats.summary()
        Pipeline(sim).round(RoundSpec(
            "piped", _double, partitioner=lambda _: [{"v": 1}],
            collector=lambda outs, _: outs))
        summary = sim.stats.summary()
        assert summary["shuffle_words"] == sim.stats.shuffle_words > 0

    def test_trace_round_trips_shuffle_fields(self):
        sim = MPCSimulator()
        Pipeline(sim).round(RoundSpec(
            "r", _double,
            partitioner=lambda _: [{"v": 1}],
            broadcast={"offset": 1},
            collector=lambda outs, _: outs))
        loaded = run_stats_from_dict(run_stats_to_dict(sim.stats))
        r0, l0 = sim.stats.rounds[0], loaded.rounds[0]
        assert (l0.shuffle_words, l0.shuffle_work, l0.broadcast_words) == \
            (r0.shuffle_words, r0.shuffle_work, r0.broadcast_words)

    def test_merge_combines_shuffle_and_broadcast(self):
        a, b = MPCSimulator(), MPCSimulator()
        for sim in (a, b):
            Pipeline(sim).round(RoundSpec(
                "r", _double, partitioner=lambda _: [{"v": 1}],
                broadcast={"offset": 2},
                collector=lambda outs, _: outs))
        merged = a.stats.merge(b.stats).rounds[0]
        one = a.stats.rounds[0]
        assert merged.shuffle_words == 2 * one.shuffle_words
        assert merged.broadcast_words == one.broadcast_words  # max, not sum


class TestBroadcast:
    def test_machine_sees_merged_dict(self):
        sim = MPCSimulator()
        outs = Pipeline(sim).round(RoundSpec(
            "r", _sum_with_offset,
            partitioner=lambda _: [{"v": 1}, {"v": 2}],
            broadcast={"offset": 10}))
        assert outs == [11, 12]

    def test_callable_broadcast_receives_state(self):
        sim = MPCSimulator()
        outs = Pipeline(sim).round(RoundSpec(
            "r", _sum_with_offset,
            partitioner=lambda s: [{"v": s}],
            broadcast=lambda s: {"offset": 100 * s}), 2)
        assert outs == [202]

    def test_memory_charge_matches_replicated_encoding(self):
        blob = {"offset": 10, "table": list(range(7))}
        a = MPCSimulator()
        a.run_round("r", _echo, [{"v": 1, **blob}, {"v": 2, **blob}])
        b = MPCSimulator()
        b.run_round("r", _echo, [{"v": 1}, {"v": 2}], broadcast=blob)
        ra, rb = a.stats.rounds[0], b.stats.rounds[0]
        assert (rb.max_input_words, rb.total_input_words) == \
            (ra.max_input_words, ra.total_input_words)
        assert rb.broadcast_words == sizeof(blob) - 1
        assert ra.broadcast_words == 0

    def test_non_dict_broadcast_rejected(self):
        sim = MPCSimulator()
        with pytest.raises(RoundProtocolError, match="must be a dict"):
            sim.run_round("r", _echo, [{"v": 1}], broadcast=[1, 2])

    def test_non_dict_payload_rejected_in_broadcast_round(self):
        sim = MPCSimulator()
        with pytest.raises(RoundProtocolError, match="dict payloads"):
            sim.run_round("r", _echo, [[1]], broadcast={"k": 1})

    def test_key_clash_rejected(self):
        sim = MPCSimulator()
        with pytest.raises(RoundProtocolError, match="shadows"):
            sim.run_round("r", _echo, [{"offset": 1}],
                          broadcast={"offset": 10})

    def test_memory_limit_counts_broadcast(self):
        from repro.mpc import MemoryLimitExceeded
        blob = {"table": list(range(50))}
        sim = MPCSimulator(memory_limit=40)
        with pytest.raises(MemoryLimitExceeded):
            sim.run_round("r", _echo, [{"v": 1}], broadcast=blob)

    def test_serial_executor_never_pickles_blob(self):
        PickleCounter.pickles = 0
        sim = MPCSimulator()
        sim.run_round("r", _read_sentinel,
                      [{"v": i} for i in range(4)],
                      broadcast={"sentinel": PickleCounter()})
        assert PickleCounter.pickles == 0

    def test_process_pool_serialises_blob_once_per_round(self):
        # The counting sentinel's __reduce__ runs exactly once even with
        # more machines than workers: Broadcast.pickled() memoises the
        # bytes and workers receive the same serialisation per batch.
        PickleCounter.pickles = 0
        with ProcessPoolExecutor(max_workers=2) as pool:
            sim = MPCSimulator(executor=pool)
            outs = sim.run_round(
                "r", _read_sentinel, [{"v": i} for i in range(8)],
                broadcast={"sentinel": PickleCounter()})
        assert outs == list(range(8))
        assert PickleCounter.pickles == 1

    def test_broadcast_wrapper_memoises_pickle(self):
        PickleCounter.pickles = 0
        blob = Broadcast({"sentinel": PickleCounter()})
        a = blob.pickled()
        b = blob.pickled()
        assert a is b
        assert PickleCounter.pickles == 1


class TestPipelineUnderChaos:
    def test_drop_placeholders_flow_into_collector(self):
        sim = MPCSimulator(
            fault_plan=FaultPlan(crash=0.5, seed=3),
            retry_policy=RetryPolicy(max_attempts=1, on_exhausted="drop"))
        seen = {}

        def collector(outs, _):
            seen["n_none"] = sum(1 for o in outs if o is None)
            return [o["v"] for o in outs if o is not None]

        state = Pipeline(sim).round(RoundSpec(
            "r", _double,
            partitioner=lambda _: [{"v": i} for i in range(20)],
            collector=collector))
        assert seen["n_none"] > 0
        assert seen["n_none"] == sim.stats.rounds[0].dropped_machines
        assert len(state) == 20 - seen["n_none"]
        assert sim.stats.rounds[0].shuffle_words == sizeof(state)

    def test_broadcast_round_survives_retries(self):
        sim = MPCSimulator(
            fault_plan=FaultPlan(crash=0.3, seed=5),
            retry_policy=RetryPolicy(max_attempts=4))
        outs = Pipeline(sim).round(RoundSpec(
            "r", _sum_with_offset,
            partitioner=lambda _: [{"v": i} for i in range(12)],
            broadcast={"offset": 5}))
        assert outs == [5 + i for i in range(12)]
        assert sim.stats.rounds[0].retried_machines > 0
        assert sim.stats.rounds[0].broadcast_words == sizeof(
            {"offset": 5}) - 1


class TestStatsSnapshot:
    def test_snapshot_detaches_from_simulator(self):
        sim = MPCSimulator()
        sim.run_round("a", _double, [{"v": 1}])
        snap = sim.stats.snapshot()
        sim.run_round("b", _double, [{"v": 1}])
        assert snap.n_rounds == 1
        assert sim.stats.n_rounds == 2
        # deep: mutating the live round must not leak into the snapshot
        sim.stats.rounds[0].total_work += 99
        assert snap.rounds[0].total_work != sim.stats.rounds[0].total_work
