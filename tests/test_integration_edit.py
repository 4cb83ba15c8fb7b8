"""Integration tests for the full MPC edit-distance algorithm (Theorem 9)."""

import numpy as np
import pytest

from repro import EditConfig, mpc_edit_distance
from repro.baselines import hss_edit_distance
from repro.mpc import MPCSimulator, ProcessPoolExecutor
from repro.strings import levenshtein
from repro.workloads.strings import (block_shuffled_pair, planted_pair,
                                     random_string)

from .helpers import repetitive_string

N = 256
X = 0.29
EPS = 1.0
FACTOR = 3 + EPS


class TestApproximationGuarantee:
    @pytest.mark.parametrize("budget", [0, 1, 5, 16, 64])
    def test_three_plus_eps_on_planted_pairs(self, budget):
        s, t, _ = planted_pair(N, budget, sigma=4, seed=budget + 11)
        res = mpc_edit_distance(s, t, x=X, eps=EPS, seed=1)
        exact = levenshtein(s, t)
        assert exact <= res.distance <= FACTOR * max(exact, 1)

    def test_small_planted_distances_found_exactly(self):
        # with the exact row inner solver, near pairs come out exact
        s, t, _ = planted_pair(N, 4, sigma=4, seed=3)
        res = mpc_edit_distance(s, t, x=X, eps=EPS, seed=1)
        assert res.distance == levenshtein(s, t)

    def test_equal_strings_zero_rounds(self):
        s = random_string(N, 4, seed=1)
        res = mpc_edit_distance(s, s.copy(), x=X, eps=EPS)
        assert res.distance == 0
        assert res.regime == "equal"
        assert res.stats.n_rounds == 0

    def test_random_vs_random(self):
        s = random_string(N, 4, seed=1)
        t = random_string(N, 4, seed=2)
        res = mpc_edit_distance(s, t, x=X, eps=EPS, seed=1)
        exact = levenshtein(s, t)
        assert exact <= res.distance <= FACTOR * max(exact, 1)

    def test_block_shuffled(self):
        s, t = block_shuffled_pair(N, 8, seed=5)
        res = mpc_edit_distance(s, t, x=X, eps=EPS, seed=1)
        exact = levenshtein(s, t)
        assert exact <= res.distance <= FACTOR * max(exact, 1)

    def test_repetitive_adversary(self):
        s = repetitive_string(N, period=7, sigma=3, seed=1)
        t = repetitive_string(N, period=5, sigma=3, seed=2)
        res = mpc_edit_distance(s, t, x=X, eps=EPS, seed=1)
        exact = levenshtein(s, t)
        assert exact <= res.distance <= FACTOR * max(exact, 1)

    def test_disjoint_alphabets_maximal_distance(self):
        s = random_string(N, 4, seed=1)
        t = random_string(N, 4, seed=2) + 10
        res = mpc_edit_distance(s, t, x=X, eps=EPS, seed=1)
        assert N <= res.distance <= FACTOR * N

    def test_different_lengths(self):
        s = random_string(N, 4, seed=1)
        t = np.concatenate([s[: N // 2],
                            random_string(N // 4, 4, seed=9)])
        res = mpc_edit_distance(s, t, x=X, eps=EPS, seed=1)
        exact = levenshtein(s, t)
        assert exact <= res.distance <= FACTOR * max(exact, 1)

    def test_trivial_inputs(self):
        assert mpc_edit_distance([], [], x=X).distance == 0
        assert mpc_edit_distance([1], [2], x=X).distance == 1
        assert mpc_edit_distance([1], [], x=X).distance == 1


class TestResourceContract:
    def test_small_regime_two_rounds(self):
        s, t, _ = planted_pair(N, 8, sigma=4, seed=7)
        res = mpc_edit_distance(s, t, x=X, eps=EPS, seed=1)
        assert res.regime == "small"
        assert res.stats.n_rounds == 2

    def test_forced_large_regime_four_rounds(self):
        s, t = block_shuffled_pair(N, 8, seed=5)
        cfg = EditConfig(force_regime="large", max_representatives=16,
                         max_low_degree_samples=8,
                         max_extensions_per_pair_source=8)
        res = mpc_edit_distance(s, t, x=X, eps=EPS, seed=1, config=cfg)
        assert res.stats.n_rounds == 4
        exact = levenshtein(s, t)
        assert exact <= res.distance <= FACTOR * max(exact, 1)

    def test_memory_cap_respected(self):
        s, t, _ = planted_pair(N, 20, sigma=4, seed=8)
        res = mpc_edit_distance(s, t, x=X, eps=EPS, seed=1)
        assert res.stats.max_memory_words <= res.params.memory_limit

    def test_guess_schedule_reported(self):
        s, t, _ = planted_pair(N, 16, sigma=4, seed=9)
        res = mpc_edit_distance(s, t, x=X, eps=EPS, seed=1)
        assert res.per_guess
        assert res.accepted_guess is not None
        assert res.per_guess[-1]["accepted"]
        # guesses increase geometrically
        gs = [g["guess"] for g in res.per_guess]
        assert gs == sorted(gs)

    def test_accepted_bound_within_factor_of_guess(self):
        s, t, _ = planted_pair(N, 16, sigma=4, seed=9)
        res = mpc_edit_distance(s, t, x=X, eps=EPS, seed=1)
        last = res.per_guess[-1]
        assert last["bound"] <= (3 + EPS) * last["guess"]

    def test_parallel_guess_mode_same_distance_more_work(self):
        s, t, _ = planted_pair(N, 8, sigma=4, seed=10)
        doubling = mpc_edit_distance(s, t, x=X, eps=EPS, seed=1)
        parallel = mpc_edit_distance(
            s, t, x=X, eps=EPS, seed=1,
            config=EditConfig(guess_mode="parallel"))
        assert parallel.distance <= doubling.distance
        assert parallel.stats.total_work >= doubling.stats.total_work
        assert len(parallel.per_guess) >= len(doubling.per_guess)


class TestInnerSolverAblation:
    @pytest.mark.parametrize("inner", ["row", "banded", "cgks"])
    def test_all_inner_solvers_within_factor(self, inner):
        s, t, _ = planted_pair(128, 6, sigma=4, seed=12)
        cfg = EditConfig(inner=inner)
        res = mpc_edit_distance(s, t, x=X, eps=EPS, seed=1, config=cfg)
        exact = levenshtein(s, t)
        assert exact <= res.distance <= FACTOR * max(exact, 1)

    def test_exact_inners_agree(self):
        s, t, _ = planted_pair(128, 9, sigma=4, seed=13)
        row = mpc_edit_distance(s, t, x=X, eps=EPS, seed=1,
                                config=EditConfig(inner="row"))
        banded = mpc_edit_distance(s, t, x=X, eps=EPS, seed=1,
                                   config=EditConfig(inner="banded"))
        assert row.distance == banded.distance


class TestAgainstHSSBaseline:
    def test_same_answers_on_planted_pairs(self):
        s, t, _ = planted_pair(N, 12, sigma=4, seed=14)
        ours = mpc_edit_distance(s, t, x=X, eps=EPS, seed=1)
        hss = hss_edit_distance(s, t, x=X, eps=EPS)
        exact = levenshtein(s, t)
        assert exact <= ours.distance <= FACTOR * max(exact, 1)
        assert exact <= hss.distance <= (1 + EPS) * max(exact, 1)

    def test_we_use_fewer_machines(self):
        s, t, _ = planted_pair(N, 24, sigma=4, seed=15)
        ours = mpc_edit_distance(s, t, x=X, eps=EPS, seed=1)
        hss = hss_edit_distance(s, t, x=X, eps=EPS)
        assert ours.stats.max_machines < hss.stats.max_machines


class TestDeterminismAndExecutors:
    def test_same_seed_same_answer(self):
        s, t = block_shuffled_pair(N, 4, seed=16)
        a = mpc_edit_distance(s, t, x=X, eps=EPS, seed=2)
        b = mpc_edit_distance(s, t, x=X, eps=EPS, seed=2)
        assert a.distance == b.distance
        assert a.accepted_guess == b.accepted_guess

    @pytest.mark.slow
    def test_process_pool_matches_serial(self):
        s, t, _ = planted_pair(128, 8, sigma=4, seed=17)
        serial = mpc_edit_distance(s, t, x=X, eps=EPS, seed=3)
        with ProcessPoolExecutor(max_workers=2) as pool:
            sim = MPCSimulator(memory_limit=serial.params.memory_limit,
                               executor=pool)
            pooled = mpc_edit_distance(s, t, x=X, eps=EPS, seed=3, sim=sim)
        assert pooled.distance == serial.distance


class TestValidation:
    def test_rejects_bad_x(self):
        with pytest.raises(ValueError):
            mpc_edit_distance([1, 2, 3, 4], [1, 2, 3], x=0.5)

    def test_float_lists_rejected_before_any_round(self):
        sim = MPCSimulator(memory_limit=None)
        with pytest.raises(TypeError):
            mpc_edit_distance([1.5, 1.2], [1.2, 1.5], x=0.25, sim=sim)
        assert sim.stats.n_rounds == 0

    def test_string_inputs_accepted(self):
        res = mpc_edit_distance("elephant" * 8, "relevant" * 8, x=0.25,
                                eps=EPS)
        exact = levenshtein("elephant" * 8, "relevant" * 8)
        assert exact <= res.distance <= FACTOR * max(exact, 1)
