"""Unit tests for fault plans and their injection by the simulator."""

import pytest

from repro.mpc import (CorruptedOutput, Executor, FailedOutput,
                       FaultDecision, FaultPlan, MPCSimulator,
                       ProcessPoolExecutor, RetryPolicy, RoundFailedError,
                       SerialExecutor, WorkMeter, add_work, is_failed)


def _work10(payload):
    add_work(10)
    return payload * 2


def _boom(payload):
    raise ValueError("genuine machine bug")


class TestFaultPlanSpec:
    def test_parse_full_spec(self):
        plan = FaultPlan.from_spec("crash=0.05,straggle=0.1x4,corrupt=0.01",
                                   seed=3)
        assert plan.crash == 0.05
        assert plan.straggle == 0.1
        assert plan.straggle_factor == 4.0
        assert plan.corrupt == 0.01
        assert plan.seed == 3

    def test_parse_straggle_without_factor_keeps_default(self):
        plan = FaultPlan.from_spec("straggle=0.2")
        assert plan.straggle == 0.2
        assert plan.straggle_factor == 4.0

    def test_seed_term_overrides_argument(self):
        assert FaultPlan.from_spec("crash=0.1,seed=9", seed=1).seed == 9

    def test_empty_spec_is_no_faults(self):
        plan = FaultPlan.from_spec("")
        assert plan.expected_failure_rate() == 0.0

    def test_to_spec_round_trips(self):
        plan = FaultPlan.from_spec("crash=0.3,straggle=0.2x8,corrupt=0.1",
                                   seed=42)
        assert FaultPlan.from_spec(plan.to_spec()) == plan

    @pytest.mark.parametrize("bad", ["crash", "explode=0.5", "crash=2.0",
                                     "straggle=0.5x0.5"])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.from_spec(bad)


class TestFaultPlanDecide:
    def test_deterministic_per_key(self):
        plan = FaultPlan(crash=0.3, straggle=0.3, corrupt=0.3, seed=5)
        for attempt in (1, 2, 3):
            a = plan.decide("round", 7, attempt)
            b = plan.decide("round", 7, attempt)
            assert a == b

    def test_varies_across_machines_and_attempts(self):
        plan = FaultPlan(crash=0.5, seed=5)
        fates = {(i, a): plan.decide("r", i, a).crash
                 for i in range(50) for a in (1, 2)}
        assert any(fates.values()) and not all(fates.values())

    def test_different_seeds_differ(self):
        crashes_a = [FaultPlan(crash=0.5, seed=1).decide("r", i).crash
                     for i in range(64)]
        crashes_b = [FaultPlan(crash=0.5, seed=2).decide("r", i).crash
                     for i in range(64)]
        assert crashes_a != crashes_b

    def test_empirical_rate_matches_probability(self):
        plan = FaultPlan(crash=0.25, seed=0)
        hits = sum(plan.decide("r", i).crash for i in range(2000))
        assert 0.20 < hits / 2000 < 0.30

    def test_zero_plan_is_clean_fast_path(self):
        d = FaultPlan().decide("r", 0)
        assert d.clean and d == FaultDecision()

    def test_crash_preempts_corrupt(self):
        plan = FaultPlan(crash=1.0, corrupt=1.0, seed=0)
        d = plan.decide("r", 0)
        assert d.crash and not d.corrupt

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(crash=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(straggle_factor=0.5)


class _Recording(Executor):
    """Pass tasks to *inner* and keep what each wave really returned:
    the raw outputs (sentinels included) and the pre-inflation work and
    wall time, before the simulator folds the results."""

    def __init__(self, inner=None):
        self.inner = inner or SerialExecutor()
        self.waves = []

    def run(self, tasks, broadcast=None):
        results = self.inner.run(tasks, broadcast)
        self.waves.append([(r, r.output, r.work, r.wall_seconds)
                           for r in results])
        return results


class TestFaultInjection:
    """Injection as seen through ``MPCSimulator(fault_plan=...)``: one
    wave, recorded below the simulator."""

    def _run(self, plan, fn=_work10, n=8, inner=None):
        ex = _Recording(inner)
        sim = MPCSimulator(executor=ex, fault_plan=plan,
                           retry_policy=RetryPolicy(max_attempts=1,
                                                    on_exhausted="drop"))
        try:
            outs = sim.run_round("r", fn, list(range(n)))
        except RoundFailedError:
            outs = None
        return outs, ex.waves[0]

    def test_no_plan_passthrough(self):
        outs, wave = self._run(FaultPlan())
        assert outs == [i * 2 for i in range(8)]
        assert [out for _, out, _, _ in wave] == outs
        assert all(r.work == 10 for r, _, _, _ in wave)

    def test_crash_becomes_failed_output(self):
        with WorkMeter() as m:
            outs, wave = self._run(FaultPlan(crash=1.0, seed=0))
        assert outs is None     # every machine lost: the round fails
        for i, (r, out, _, _) in enumerate(wave):
            assert isinstance(out, FailedOutput)
            assert out.kind == "crash"
            assert out.machine_index == i
            assert is_failed(out)
            # the crashed attempt still burned its work
            assert r.work == 10
        assert m.total == 80

    def test_corrupt_becomes_sentinel(self):
        _, wave = self._run(FaultPlan(corrupt=1.0, seed=0))
        for _, out, _, _ in wave:
            assert isinstance(out, CorruptedOutput)
            assert is_failed(out)

    def test_straggle_inflates_work_and_wall(self):
        plan = FaultPlan(straggle=1.0, straggle_factor=8.0, seed=0)
        outs, wave = self._run(plan)
        assert outs == [i * 2 for i in range(8)]
        for i, (r, _, raw_work, raw_wall) in enumerate(wave):
            factor = plan.decide("r", i, 1).straggle_factor
            assert factor > 1.0
            assert r.work == int(raw_work * factor) >= 10
            assert r.wall_seconds == pytest.approx(raw_wall * factor)
        assert sum(r.work for r, _, _, _ in wave) > 80

    def test_machine_exception_captured_not_propagated(self):
        outs, wave = self._run(FaultPlan(), fn=_boom, n=2)
        assert outs is None     # RoundFailedError, not the ValueError
        for _, out, _, _ in wave:
            assert isinstance(out, FailedOutput)
            assert out.kind == "error"
            assert "ValueError" in out.message

    def test_pool_and_serial_inject_identically(self):
        plan = FaultPlan(crash=0.4, corrupt=0.2, seed=9)
        serial_outs, serial = self._run(plan, n=12)
        with ProcessPoolExecutor(max_workers=2) as pool:
            pooled_outs, pooled = self._run(plan, n=12, inner=pool)
        assert serial_outs == pooled_outs
        assert ([is_failed(out) for _, out, _, _ in serial]
                == [is_failed(out) for _, out, _, _ in pooled])
        assert ([type(out).__name__ for _, out, _, _ in serial]
                == [type(out).__name__ for _, out, _, _ in pooled])
