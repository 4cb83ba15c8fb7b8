"""Failure-injection and robustness tests across the stack."""

import numpy as np
import pytest

from repro import EditConfig, UlamConfig, mpc_edit_distance, mpc_ulam
from repro.mpc import MemoryLimitExceeded, MPCSimulator
from repro.strings import levenshtein, ulam_distance
from repro.workloads.permutations import planted_pair as perm_pair
from repro.workloads.strings import planted_pair as str_pair


class TestMemoryPressure:
    def test_ulam_raises_under_starved_memory(self):
        s, t, _ = perm_pair(128, 8, seed=1)
        sim = MPCSimulator(memory_limit=16)  # absurdly small
        with pytest.raises(MemoryLimitExceeded):
            mpc_ulam(s, t, x=0.4, sim=sim)

    def test_edit_raises_under_starved_memory(self):
        s, t, _ = str_pair(256, 8, sigma=4, seed=1)
        sim = MPCSimulator(memory_limit=16)
        with pytest.raises(MemoryLimitExceeded):
            mpc_edit_distance(s, t, x=0.29, sim=sim)

    def test_violation_carries_actionable_context(self):
        s, t, _ = perm_pair(128, 8, seed=1)
        sim = MPCSimulator(memory_limit=16)
        with pytest.raises(MemoryLimitExceeded) as exc:
            mpc_ulam(s, t, x=0.4, sim=sim)
        err = exc.value
        assert err.size > err.limit
        assert err.direction in ("input", "output")
        assert "ulam" in err.round_name


class TestDegenerateInputs:
    def test_ulam_two_symbols(self):
        assert mpc_ulam([1, 2], [2, 1], x=0.4).distance == 2

    def test_ulam_handles_n_smaller_than_block(self):
        s, t, _ = perm_pair(16, 2, seed=2)
        res = mpc_ulam(s, t, x=0.1)  # block size > n: single block
        assert res.distance >= ulam_distance(s, t)

    def test_edit_single_characters(self):
        assert mpc_edit_distance([3], [3], x=0.25).distance == 0
        assert mpc_edit_distance([3], [4], x=0.25).distance == 1

    def test_edit_one_empty_side(self):
        s = np.arange(64) % 4
        res = mpc_edit_distance(s, [], x=0.25, eps=1.0)
        assert res.distance == 64

    def test_all_same_character(self):
        s = np.zeros(128, dtype=np.int64)
        t = np.zeros(96, dtype=np.int64)
        res = mpc_edit_distance(s, t, x=0.25, eps=1.0)
        exact = levenshtein(s, t)
        assert exact <= res.distance <= 4 * max(exact, 1)


class TestAdversarialConfigs:
    def test_zero_top_k_like_budget_rejected_gracefully(self):
        # top_k = 1 is legal but aggressive: result must stay a valid
        # upper bound even if approximation degrades
        s, t, _ = perm_pair(128, 10, seed=3)
        res = mpc_ulam(s, t, x=0.4, config=UlamConfig(phase2_top_k=1))
        assert res.distance >= ulam_distance(s, t)

    def test_tiny_candidate_cap_still_sound(self):
        s, t, _ = perm_pair(128, 10, seed=3)
        res = mpc_ulam(s, t, x=0.4,
                       config=UlamConfig(max_candidates_per_block=2))
        assert res.distance >= ulam_distance(s, t)

    def test_forced_small_regime_still_sound(self):
        s, t, _ = str_pair(128, 4, sigma=4, seed=5)
        res = mpc_edit_distance(s, t, x=0.29, eps=1.0,
                                config=EditConfig(force_regime="small"))
        assert res.regime in ("small", "none")
        assert res.distance >= levenshtein(s, t)

    def test_unknown_force_regime_rejected(self):
        # A typo must not silently pick a regime.
        with pytest.raises(ValueError, match="EditConfig.force_regime "
                           "must be one of 'auto', 'small', 'large'"):
            EditConfig(force_regime="smal")

    @pytest.mark.parametrize("field, value", [
        ("guess_mode", "doubl"), ("inner", "typo"), ("rep_solver", "row")])
    def test_unknown_enumerated_value_rejected(self, field, value):
        # Raised before any round runs, not from inside a machine.
        with pytest.raises(ValueError,
                           match=f"EditConfig.{field} must be one of"):
            EditConfig(**{field: value})


class TestStatisticsIntegrity:
    def test_work_is_conserved_across_merge(self):
        """Parallel-guess merging must neither lose nor duplicate work."""
        s, t, _ = str_pair(128, 8, sigma=4, seed=6)
        res = mpc_edit_distance(s, t, x=0.29, eps=1.0,
                                config=EditConfig(guess_mode="parallel"))
        per_round = sum(r.total_work for r in res.stats.rounds)
        assert per_round == res.stats.total_work

    def test_parallel_work_never_exceeds_total(self):
        s, t, _ = perm_pair(128, 8, seed=7)
        res = mpc_ulam(s, t, x=0.4)
        assert res.stats.parallel_work <= res.stats.total_work

    def test_communication_positive_when_rounds_ran(self):
        s, t, _ = perm_pair(128, 8, seed=7)
        res = mpc_ulam(s, t, x=0.4)
        assert res.stats.total_communication_words > 0
