"""Integration tests: the paper's algorithms running under injected chaos.

These are the acceptance criteria of the fault subsystem: under a seeded
``crash=0.1,straggle=0.1x4`` plan with three attempts per machine, both
headline algorithms complete on planted workloads *within their
approximation guarantees*, the ledger prices the recovery, and replays
are byte-identical (up to wall clocks).
"""

import pytest

from repro import mpc_edit_distance, mpc_ulam
from repro.editdistance import EditConfig
from repro.editdistance.large import large_distance_upper_bound
from repro.mpc import (FaultPlan, MPCSimulator, RetryPolicy,
                       RoundFailedError)
from repro.params import EditParams, UlamParams
from repro.strings import levenshtein, ulam_distance
from repro.workloads.permutations import planted_pair as perm_pair
from repro.workloads.strings import block_shuffled_pair
from repro.workloads.strings import planted_pair as str_pair

PLAN_SPEC = "crash=0.1,straggle=0.1x4"


def _ledger_key(stats):
    return [(r.name, r.machines, r.attempts, r.retried_machines,
             r.dropped_machines, r.wasted_work, r.total_work)
            for r in stats.rounds]


def _ulam_sim(n, x, eps, seed=7, **kw):
    kw.setdefault("retry_policy", RetryPolicy(max_attempts=3))
    return MPCSimulator(
        memory_limit=UlamParams(n=n, x=x, eps=eps).memory_limit,
        fault_plan=FaultPlan.from_spec(PLAN_SPEC, seed=seed), **kw)


def _edit_sim(n, x, eps, seed=7, **kw):
    kw.setdefault("retry_policy", RetryPolicy(max_attempts=3))
    return MPCSimulator(
        memory_limit=EditParams(n=n, x=x, eps=eps).memory_limit,
        fault_plan=FaultPlan.from_spec(PLAN_SPEC, seed=seed), **kw)


class TestUlamUnderChaos:
    N, X, EPS = 512, 0.4, 0.5

    def _run(self, seed=7, **kw):
        s, t, _ = perm_pair(self.N, self.N // 16, seed=1, style="mixed")
        sim = _ulam_sim(self.N, self.X, self.EPS, seed=seed, **kw)
        return mpc_ulam(s, t, x=self.X, eps=self.EPS, seed=0,
                        sim=sim), ulam_distance(s, t)

    def test_completes_within_guarantee_and_prices_recovery(self):
        # seed chosen so the plan actually hits machines (verified below)
        res, exact = self._run(seed=11)
        assert exact <= res.distance <= (1 + self.EPS) * exact
        assert res.stats.retried_machines > 0
        assert res.stats.wasted_work > 0
        assert res.stats.dropped_machines == 0

    def test_replay_is_identical(self):
        a, _ = self._run(seed=11)
        b, _ = self._run(seed=11)
        assert a.distance == b.distance
        assert _ledger_key(a.stats) == _ledger_key(b.stats)

    def test_answer_matches_faultfree_run(self):
        res, _ = self._run(seed=11)
        s, t, _ = perm_pair(self.N, self.N // 16, seed=1, style="mixed")
        clean = mpc_ulam(s, t, x=self.X, eps=self.EPS, seed=0)
        assert res.distance == clean.distance


class TestEditUnderChaos:
    N, X, EPS = 256, 0.25, 1.0

    def _run(self, seed=7, **kw):
        s, t, _ = str_pair(self.N, self.N // 16, sigma=4, seed=2)
        sim = _edit_sim(self.N, self.X, self.EPS, seed=seed, **kw)
        return mpc_edit_distance(s, t, x=self.X, eps=self.EPS, seed=0,
                                 sim=sim), levenshtein(s, t)

    def test_completes_within_guarantee_and_prices_recovery(self):
        res, exact = self._run(seed=5)
        assert exact <= res.distance <= (3 + self.EPS) * exact
        assert res.stats.retried_machines > 0
        assert res.stats.wasted_work > 0

    def test_replay_is_identical(self):
        a, _ = self._run(seed=5)
        b, _ = self._run(seed=5)
        assert a.distance == b.distance
        assert _ledger_key(a.stats) == _ledger_key(b.stats)

    def test_answer_matches_faultfree_run(self):
        res, _ = self._run(seed=5)
        s, t, _ = str_pair(self.N, self.N // 16, sigma=4, seed=2)
        clean = mpc_edit_distance(s, t, x=self.X, eps=self.EPS, seed=0)
        assert res.distance == clean.distance


class TestExhaustionModes:
    def test_raise_surfaces_round_and_machines(self):
        s, t, _ = perm_pair(256, 8, seed=1, style="mixed")
        sim = MPCSimulator(
            memory_limit=UlamParams(n=256, x=0.4, eps=0.5).memory_limit,
            fault_plan=FaultPlan(crash=1.0, seed=0),
            retry_policy=RetryPolicy(max_attempts=2))
        with pytest.raises(RoundFailedError) as exc:
            mpc_ulam(s, t, x=0.4, eps=0.5, sim=sim)
        assert exc.value.round_name == "ulam/1-candidates"
        assert len(exc.value.failed_machines) > 0

    def test_drop_still_returns_a_distance(self):
        # Crash only round-1 block machines occasionally; the combiner
        # tolerates a pruned candidate set, so a distance comes back and
        # the drop is visible in the ledger.
        s, t, _ = perm_pair(512, 32, seed=3, style="mixed")
        sim = MPCSimulator(
            memory_limit=UlamParams(n=512, x=0.4, eps=0.5).memory_limit,
            fault_plan=FaultPlan(crash=0.5, seed=9),
            retry_policy=RetryPolicy(max_attempts=1, on_exhausted="drop"))
        res = mpc_ulam(s, t, x=0.4, eps=0.5, sim=sim)
        assert isinstance(res.distance, int)
        assert res.stats.dropped_machines > 0
        assert "dropped_machines" in res.stats.summary()

    def test_drop_of_a_lone_combine_machine_raises(self):
        # When the single round-2 combine machine itself exhausts its
        # retries, drop mode cannot degrade (every machine of the round
        # is gone) and must surface RoundFailedError — never an
        # IndexError from indexing an empty output list.
        s, t, _ = perm_pair(256, 8, seed=1, style="mixed")
        sim = MPCSimulator(
            memory_limit=UlamParams(n=256, x=0.4, eps=0.5).memory_limit,
            fault_plan=FaultPlan(crash=1.0, seed=0),
            retry_policy=RetryPolicy(max_attempts=2, on_exhausted="drop"))
        with pytest.raises(RoundFailedError):
            mpc_ulam(s, t, x=0.4, eps=0.5, sim=sim)


class TestDropAlignment:
    """Dropped machines leave ``None`` placeholders, so drivers that
    pair outputs with payload bookkeeping positionally must stay
    aligned.  A mis-paired output could silently *lower* the returned
    bound below the true distance; pruning alone can only raise it, so
    validity (answer >= exact) under observed drops pins the contract.
    """

    def test_small_regime_drop_stays_valid_upper_bound(self):
        s, t, _ = str_pair(256, 16, sigma=4, seed=2)
        sim = MPCSimulator(
            memory_limit=EditParams(n=256, x=0.25, eps=1.0).memory_limit,
            fault_plan=FaultPlan(crash=0.3, seed=1),
            retry_policy=RetryPolicy(max_attempts=2, on_exhausted="drop"))
        res = mpc_edit_distance(s, t, x=0.25, eps=1.0, seed=0, sim=sim)
        assert res.stats.dropped_machines > 0
        assert res.distance >= levenshtein(s, t)

    def test_large_regime_drop_stays_valid_upper_bound(self):
        s, t = block_shuffled_pair(192, 8, seed=5)
        params = EditParams(n=192, x=0.29, eps=1.0, eps_prime_divisor=4)
        cfg = EditConfig(max_representatives=16,
                         max_low_degree_samples=8,
                         max_extensions_per_pair_source=8)
        exact = levenshtein(s, t)
        clean_sim = MPCSimulator(memory_limit=params.memory_limit)
        clean, _ = large_distance_upper_bound(
            s, t, params, guess=max(exact, 1), sim=clean_sim,
            config=cfg, seed=2)
        sim = MPCSimulator(
            memory_limit=params.memory_limit,
            fault_plan=FaultPlan(crash=0.4, seed=16),
            retry_policy=RetryPolicy(max_attempts=2, on_exhausted="drop"))
        bound, _ = large_distance_upper_bound(
            s, t, params, guess=max(exact, 1), sim=sim, config=cfg,
            seed=2)
        assert sum(r.dropped_machines for r in sim.stats.rounds) > 0
        assert exact <= bound
        assert bound >= clean    # drops only prune candidate tuples
