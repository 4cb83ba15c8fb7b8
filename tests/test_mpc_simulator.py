"""Unit tests for the BSP round simulator: memory enforcement, accounting,
round protocol."""

import numpy as np
import pytest

from repro.mpc import (MemoryLimitExceeded, MPCSimulator,
                       RoundProtocolError, WorkMeter, add_work)


def _double(payload):
    return [v * 2 for v in payload]


def _echo_big(payload):
    return np.zeros(payload["out_size"], dtype=np.int64)


def _metered(payload):
    add_work(payload["work"])
    return 0


class TestRoundExecution:
    def test_outputs_in_payload_order(self):
        sim = MPCSimulator()
        outs = sim.run_round("r", _double, [[1], [2], [3]])
        assert outs == [[2], [4], [6]]

    def test_round_count_increments(self):
        sim = MPCSimulator()
        sim.run_round("a", _double, [[1]])
        sim.run_round("b", _double, [[1]])
        assert sim.stats.n_rounds == 2
        assert [r.name for r in sim.stats.rounds] == ["a", "b"]

    def test_machine_count_per_round(self):
        sim = MPCSimulator()
        sim.run_round("a", _double, [[1]] * 5)
        sim.run_round("b", _double, [[1]] * 2)
        assert sim.stats.max_machines == 5
        assert sim.stats.total_machine_invocations == 7

    def test_empty_round_raises_by_default(self):
        sim = MPCSimulator()
        with pytest.raises(RoundProtocolError):
            sim.run_round("empty", _double, [])

    def test_empty_round_allowed_explicitly(self):
        sim = MPCSimulator()
        assert sim.run_round("empty", _double, [], allow_empty=True) == []
        assert sim.stats.n_rounds == 1
        assert sim.stats.rounds[0].machines == 0


class TestMemoryEnforcement:
    def test_input_over_limit_raises(self):
        sim = MPCSimulator(memory_limit=10)
        with pytest.raises(MemoryLimitExceeded) as exc:
            sim.run_round("r", _double, [list(range(50))])
        assert exc.value.direction == "input"
        assert exc.value.limit == 10

    def test_output_over_limit_raises(self):
        sim = MPCSimulator(memory_limit=10)
        with pytest.raises(MemoryLimitExceeded) as exc:
            sim.run_round("r", _echo_big, [{"out_size": 100}])
        assert exc.value.direction == "output"

    def test_within_limit_passes(self):
        sim = MPCSimulator(memory_limit=100)
        sim.run_round("r", _double, [[1, 2, 3]])

    def test_no_limit_accepts_anything(self):
        sim = MPCSimulator(memory_limit=None)
        sim.run_round("r", _double, [list(range(10_000))])

    def test_error_message_names_round_and_machine(self):
        sim = MPCSimulator(memory_limit=5)
        with pytest.raises(MemoryLimitExceeded,
                           match="machine 1 in round 'r'"):
            sim.run_round("r", _double, [[1], list(range(50))])


class TestAccounting:
    def test_work_recorded_per_round(self):
        sim = MPCSimulator()
        sim.run_round("r", _metered, [{"work": 10}, {"work": 30}])
        assert sim.stats.rounds[0].total_work == 40
        assert sim.stats.rounds[0].max_work == 30

    def test_machine_work_propagates_to_enclosing_meter(self):
        sim = MPCSimulator()
        with WorkMeter() as m:
            sim.run_round("r", _metered, [{"work": 25}])
        assert m.total == 25

    def test_memory_stats_reflect_actual_sizes(self):
        sim = MPCSimulator()
        sim.run_round("r", _double, [[1, 2, 3], [1]])
        r = sim.stats.rounds[0]
        assert r.max_input_words == 4   # 3 items + frame
        assert r.max_output_words == 4


class TestSpawnAbsorb:
    def test_spawn_shares_limits_not_stats(self):
        sim = MPCSimulator(memory_limit=123)
        sub = sim.spawn()
        assert sub.memory_limit == 123
        sub.run_round("r", _double, [[1]])
        assert sim.stats.n_rounds == 0
        assert sub.stats.n_rounds == 1

    def test_absorb_merges_rounds(self):
        sim = MPCSimulator()
        sim.run_round("r", _metered, [{"work": 5}])
        sub = sim.spawn()
        sub.run_round("r", _metered, [{"work": 7}])
        sub.run_round("r2", _metered, [{"work": 1}])
        sim.absorb(sub)
        assert sim.stats.n_rounds == 2
        assert sim.stats.total_work == 13

    def test_absorb_models_concurrent_siblings(self):
        # Merged positional rounds behave like machines sharing a
        # barrier: machine counts and totals add, wall time and memory
        # maxima take the max (the rounds ran side by side, not after
        # one another).
        sim = MPCSimulator()
        sim.run_round("r", _metered, [{"work": 5}, {"work": 9}])
        sim.stats.rounds[0].wall_seconds = 2.0
        sub = sim.spawn()
        sub.run_round("r", _metered, [{"work": 30}])
        sub.stats.rounds[0].wall_seconds = 3.0
        sim.absorb(sub)
        r = sim.stats.rounds[0]
        assert r.machines == 3
        assert r.total_work == 44
        assert r.max_work == 30
        assert r.wall_seconds == 3.0    # concurrent: max, not sum
        assert sim.stats.max_machines == 3

    def test_absorb_longer_sub_run_appends_tail_rounds(self):
        sim = MPCSimulator()
        sim.run_round("a", _metered, [{"work": 1}])
        sub = sim.spawn()
        sub.run_round("a", _metered, [{"work": 2}])
        sub.run_round("b", _metered, [{"work": 3}])
        sub.run_round("c", _metered, [{"work": 4}])
        sim.absorb(sub)
        assert [r.name for r in sim.stats.rounds] == ["a", "b", "c"]
        assert sim.stats.total_work == 10
        assert sim.stats.rounds[0].machines == 2
