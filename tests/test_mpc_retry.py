"""Unit tests for RetryPolicy and MPCSimulator recovery under a fault plan."""

import pytest

from repro.mpc import (FaultPlan, MemoryLimitExceeded, MPCSimulator,
                       ProcessPoolExecutor, RetryPolicy, RoundFailedError,
                       RoundProtocolError, Tracer, WorkMeter, add_work)


def _work10(payload):
    add_work(10)
    return payload * 2


def _big(payload):
    return list(range(100))


def _boom(payload):
    raise ValueError("genuine machine bug")


def _ledger_key(stats):
    """The deterministic part of a ledger (everything but wall clocks)."""
    return [(r.name, r.machines, r.attempts, r.retried_machines,
             r.dropped_machines, r.wasted_work, r.total_work,
             r.max_work, r.total_input_words, r.total_output_words)
            for r in stats.rounds]


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-1.0)

    def test_zero_base_never_sleeps(self):
        p = RetryPolicy(backoff_base=0.0)
        assert p.delay("r", 2) == 0.0

    def test_delay_deterministic_and_exponential(self):
        p = RetryPolicy(backoff_base=0.1, backoff_factor=2.0, jitter=0.1)
        d2, d3 = p.delay("r", 2), p.delay("r", 3)
        assert d2 == p.delay("r", 2)
        assert 0.1 <= d2 <= 0.1 * 1.1
        assert 0.2 <= d3 <= 0.2 * 1.1


class TestZeroOverheadPath:
    def test_zero_plan_matches_no_plan(self):
        # An all-zero plan still wraps every task, yet must change
        # nothing observable: outputs, ledger and spans.
        def run(plan):
            sim = MPCSimulator(memory_limit=1000, fault_plan=plan,
                               tracer=Tracer.in_memory())
            outs = sim.run_round("r", _work10, [1, 2, 3])
            spans = [(s.kind, s.name, s.machine, s.attempt, s.work,
                      s.input_words, s.output_words, s.wasted, s.fault)
                     for s in sim.tracer.spans]
            return outs, _ledger_key(sim.stats), spans

        assert run(FaultPlan()) == run(None)

    def test_no_plan_machine_exception_propagates(self):
        sim = MPCSimulator()
        with pytest.raises(ValueError, match="genuine machine bug"):
            sim.run_round("r", _boom, [1, 2])
        assert sim.stats.rounds == []

    def test_no_plan_summary_has_no_recovery_block(self):
        sim = MPCSimulator()
        sim.run_round("r", _work10, [1])
        assert not sim.stats.recovery_active
        assert "retried_machines" not in sim.stats.summary()


class TestRecovery:
    def test_retries_until_success(self):
        plan = FaultPlan(crash=0.3, seed=2)
        sim = MPCSimulator(fault_plan=plan,
                           retry_policy=RetryPolicy(max_attempts=10))
        outs = sim.run_round("r", _work10, list(range(30)))
        assert outs == [i * 2 for i in range(30)]
        r = sim.stats.rounds[0]
        assert r.machines == 30
        assert r.attempts > 1
        assert r.retried_machines > 0
        assert r.wasted_work > 0
        assert r.dropped_machines == 0

    def test_corruption_is_retried(self):
        plan = FaultPlan(corrupt=0.4, seed=3)
        sim = MPCSimulator(fault_plan=plan,
                           retry_policy=RetryPolicy(max_attempts=10))
        outs = sim.run_round("r", _work10, list(range(20)))
        assert outs == [i * 2 for i in range(20)]
        assert sim.stats.rounds[0].retried_machines > 0

    def test_raise_on_exhausted_names_round_and_machines(self):
        plan = FaultPlan(crash=1.0, seed=1)
        sim = MPCSimulator(fault_plan=plan,
                           retry_policy=RetryPolicy(max_attempts=2))
        with pytest.raises(RoundFailedError) as exc:
            sim.run_round("doomed", _work10, [1, 2, 3])
        assert exc.value.round_name == "doomed"
        assert exc.value.failed_machines == [0, 1, 2]
        assert exc.value.attempts == 2

    def test_drop_leaves_aligned_placeholders(self):
        plan = FaultPlan(crash=0.5, seed=4)
        sim = MPCSimulator(fault_plan=plan,
                           retry_policy=RetryPolicy(max_attempts=1,
                                                    on_exhausted="drop"))
        outs = sim.run_round("r", _work10, list(range(40)))
        r = sim.stats.rounds[0]
        assert r.dropped_machines > 0
        # one entry per payload: dropped machines leave None at their own
        # position, so positional consumers never see shifted outputs.
        assert len(outs) == 40
        for i, out in enumerate(outs):
            assert out is None or out == i * 2
        assert sum(out is None for out in outs) == r.dropped_machines

    def test_all_machines_dropped_raises_even_in_drop_mode(self):
        plan = FaultPlan(crash=1.0, seed=1)
        sim = MPCSimulator(fault_plan=plan,
                           retry_policy=RetryPolicy(max_attempts=2,
                                                    on_exhausted="drop"))
        with pytest.raises(RoundFailedError) as exc:
            sim.run_round("r", _work10, [1, 2, 3])
        assert exc.value.failed_machines == [0, 1, 2]

    def test_single_machine_round_dropped_raises(self):
        # Combine-style rounds index run_round(...)[0]; a dropped lone
        # machine must surface as RoundFailedError, never as an empty or
        # all-None output list.
        plan = FaultPlan(crash=1.0, seed=5)
        sim = MPCSimulator(fault_plan=plan,
                           retry_policy=RetryPolicy(max_attempts=2,
                                                    on_exhausted="drop"))
        with pytest.raises(RoundFailedError):
            sim.run_round("combine", _work10, [7])

    def test_retry_budget_caps_re_executions(self):
        plan = FaultPlan(crash=0.5, seed=4)
        sim = MPCSimulator(
            fault_plan=plan,
            retry_policy=RetryPolicy(max_attempts=10, retry_budget=2,
                                     on_exhausted="drop"))
        outs = sim.run_round("r", _work10, list(range(40)))
        # with ~20 failures per wave the budget (2) does not even cover
        # one full retry wave, so the round ends after attempt 1 with the
        # still-failing (but not all) machines dropped.
        r = sim.stats.rounds[0]
        assert r.attempts == 1
        assert 0 < r.dropped_machines < 40
        assert sum(out is None for out in outs) == r.dropped_machines

    def test_wasted_work_charged_to_enclosing_meter(self):
        plan = FaultPlan(crash=0.5, seed=6)
        sim = MPCSimulator(fault_plan=plan,
                           retry_policy=RetryPolicy(max_attempts=10))
        with WorkMeter() as m:
            sim.run_round("r", _work10, list(range(10)))
        r = sim.stats.rounds[0]
        assert m.total == r.total_work + r.wasted_work

    def test_memory_limits_still_enforced_under_chaos(self):
        plan = FaultPlan(crash=0.2, seed=0)
        sim = MPCSimulator(memory_limit=10, fault_plan=plan,
                           retry_policy=RetryPolicy(max_attempts=5))
        with pytest.raises(MemoryLimitExceeded):
            sim.run_round("r", _big, [1])

    def test_empty_round_protocol_preserved(self):
        sim = MPCSimulator(fault_plan=FaultPlan(crash=0.1))
        with pytest.raises(RoundProtocolError):
            sim.run_round("r", _work10, [])
        assert sim.run_round("r", _work10, [], allow_empty=True) == []


class TestDeterminism:
    def _run(self, executor=None):
        plan = FaultPlan.from_spec("crash=0.15,straggle=0.2x4,corrupt=0.05",
                                   seed=42)
        sim = MPCSimulator(executor=executor, fault_plan=plan,
                           retry_policy=RetryPolicy(max_attempts=8))
        sim.run_round("r1", _work10, list(range(20)))
        sim.run_round("r2", _work10, list(range(10)))
        return sim.stats

    def test_same_seed_same_ledger(self):
        assert _ledger_key(self._run()) == _ledger_key(self._run())

    def test_pool_ledger_matches_serial(self):
        serial = self._run()
        with ProcessPoolExecutor(max_workers=2) as pool:
            pooled = self._run(executor=pool)
        assert _ledger_key(serial) == _ledger_key(pooled)

    def test_different_seed_different_failures(self):
        a = self._run()
        plan_b = FaultPlan.from_spec("crash=0.15,straggle=0.2x4,corrupt=0.05",
                                     seed=43)
        sim = MPCSimulator(fault_plan=plan_b,
                           retry_policy=RetryPolicy(max_attempts=8))
        sim.run_round("r1", _work10, list(range(20)))
        sim.run_round("r2", _work10, list(range(10)))
        assert _ledger_key(a) != _ledger_key(sim.stats)


class TestSpawnAbsorb:
    def test_spawn_propagates_plan_and_policy(self):
        plan = FaultPlan(crash=0.3, seed=1)
        policy = RetryPolicy(max_attempts=7, on_exhausted="drop")
        sim = MPCSimulator(memory_limit=5000, fault_plan=plan,
                           retry_policy=policy, realtime=False)
        sub = sim.spawn()
        assert isinstance(sub, MPCSimulator)
        assert sub.fault_plan == plan
        assert sub.retry_policy == policy
        assert sub.retry_policy.on_exhausted == "drop"
        assert sub.memory_limit == 5000

    def test_absorb_folds_recovery_counters(self):
        plan = FaultPlan(crash=0.3, seed=2)
        sim = MPCSimulator(fault_plan=plan,
                           retry_policy=RetryPolicy(max_attempts=10))
        sub = sim.spawn()
        sub.run_round("r", _work10, list(range(30)))
        wasted = sub.stats.wasted_work
        retried = sub.stats.retried_machines
        assert retried > 0
        sim.absorb(sub)
        assert sim.stats.wasted_work == wasted
        assert sim.stats.retried_machines == retried

    def test_invalid_on_exhausted_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(on_exhausted="explode")
