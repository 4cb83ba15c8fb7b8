"""Integration tests for the full 2-round MPC Ulam algorithm (Theorem 4)."""

import hashlib

import numpy as np
import pytest

from repro import UlamConfig, mpc_ulam
from repro.mpc import MPCSimulator, ProcessPoolExecutor
from repro.strings import ulam_distance
from repro.workloads.permutations import (block_shuffled_pair, planted_pair,
                                          random_permutation)

N = 128
X = 0.4
EPS = 0.5
CFG = UlamConfig.default()


class TestApproximationGuarantee:
    @pytest.mark.parametrize("style", ["moves", "swaps", "mixed"])
    @pytest.mark.parametrize("budget", [0, 2, 6, 16])
    def test_one_plus_eps_on_planted_pairs(self, style, budget):
        s, t, _ = planted_pair(N, budget, seed=budget * 7 + 1, style=style)
        res = mpc_ulam(s, t, x=X, eps=EPS, seed=1, config=CFG)
        exact = ulam_distance(s, t)
        assert exact <= res.distance <= (1 + EPS) * max(exact, 1)

    def test_identical_permutations(self):
        s = random_permutation(N, seed=5)
        res = mpc_ulam(s, s.copy(), x=X, eps=EPS, config=CFG)
        assert res.distance == 0

    def test_far_pair_block_shuffle(self):
        s, t = block_shuffled_pair(N, 8, seed=9)
        res = mpc_ulam(s, t, x=X, eps=EPS, seed=1, config=CFG)
        exact = ulam_distance(s, t)
        assert exact <= res.distance <= (1 + EPS) * max(exact, 1)

    def test_completely_unrelated_permutations(self):
        s = random_permutation(N, seed=1)
        t = random_permutation(N, seed=2)
        res = mpc_ulam(s, t, x=X, eps=EPS, seed=1, config=CFG)
        exact = ulam_distance(s, t)
        assert exact <= res.distance <= (1 + EPS) * max(exact, 1)

    def test_disjoint_symbol_sets(self):
        s = np.arange(N, dtype=np.int64)
        t = np.arange(N, dtype=np.int64) + N
        res = mpc_ulam(s, t, x=X, eps=EPS, config=CFG)
        assert res.distance == N  # substitute everything

    def test_different_lengths(self):
        s = random_permutation(N, seed=3)
        t = s[: N // 2]
        res = mpc_ulam(s, t, x=X, eps=EPS, config=CFG)
        exact = ulam_distance(s, t)
        assert exact <= res.distance <= (1 + EPS) * max(exact, 1)

    def test_seed_sweep_high_probability(self):
        """Theorem 4 is w.h.p. over the hitting-set coins: the guarantee
        must hold across many seeds, not for one lucky draw."""
        s, t, _ = planted_pair(N, 12, seed=42, style="mixed")
        exact = ulam_distance(s, t)
        for seed in range(8):
            res = mpc_ulam(s, t, x=X, eps=EPS, seed=seed, config=CFG)
            assert exact <= res.distance <= (1 + EPS) * max(exact, 1)


class TestResourceContract:
    def test_exactly_two_rounds(self):
        s, t, _ = planted_pair(N, 4, seed=1)
        res = mpc_ulam(s, t, x=X, eps=EPS, config=CFG)
        assert res.stats.n_rounds == 2
        names = [r.name for r in res.stats.rounds]
        assert names == ["ulam/1-candidates", "ulam/2-combine"]

    def test_machine_count_is_block_count_in_round_one(self):
        s, t, _ = planted_pair(N, 4, seed=1)
        res = mpc_ulam(s, t, x=X, eps=EPS, config=CFG)
        assert res.stats.rounds[0].machines == res.params.n_blocks

    def test_single_machine_in_round_two(self):
        s, t, _ = planted_pair(N, 4, seed=1)
        res = mpc_ulam(s, t, x=X, eps=EPS, config=CFG)
        assert res.stats.rounds[1].machines == 1

    def test_memory_cap_enforced_not_just_reported(self):
        s, t, _ = planted_pair(N, 4, seed=1)
        res = mpc_ulam(s, t, x=X, eps=EPS, config=CFG)
        assert res.stats.max_memory_words <= res.params.memory_limit

    def test_machines_scale_with_x(self):
        s, t, _ = planted_pair(256, 8, seed=1)
        lo = mpc_ulam(s, t, x=0.25, eps=EPS, config=CFG)
        hi = mpc_ulam(s, t, x=0.45, eps=EPS, config=CFG)
        assert hi.stats.max_machines > lo.stats.max_machines
        assert hi.params.block_size < lo.params.block_size

    def test_summary_contains_headline_fields(self):
        s, t, _ = planted_pair(N, 4, seed=1)
        summary = mpc_ulam(s, t, x=X, eps=EPS, config=CFG).summary()
        for key in ("distance", "rounds", "max_machines",
                    "max_memory_words", "total_work"):
            assert key in summary


class TestDeterminismAndExecutors:
    def test_same_seed_same_answer(self):
        s, t, _ = planted_pair(N, 10, seed=2, style="mixed")
        a = mpc_ulam(s, t, x=X, eps=EPS, seed=3, config=CFG)
        b = mpc_ulam(s, t, x=X, eps=EPS, seed=3, config=CFG)
        assert a.distance == b.distance
        assert a.n_tuples == b.n_tuples

    @pytest.mark.slow
    def test_process_pool_matches_serial(self):
        s, t, _ = planted_pair(N, 8, seed=4)
        serial = mpc_ulam(s, t, x=X, eps=EPS, seed=5, config=CFG)
        with ProcessPoolExecutor(max_workers=2) as pool:
            sim = MPCSimulator(
                memory_limit=serial.params.memory_limit, executor=pool)
            pooled = mpc_ulam(s, t, x=X, eps=EPS, seed=5, sim=sim,
                              config=CFG)
        assert pooled.distance == serial.distance
        assert pooled.stats.total_work == serial.stats.total_work


class TestInputValidation:
    def test_rejects_duplicate_characters(self):
        with pytest.raises(ValueError):
            mpc_ulam([1, 1, 2], [1, 2, 3], x=X)

    def test_rejects_bad_x(self):
        s, t, _ = planted_pair(64, 2, seed=1)
        with pytest.raises(ValueError):
            mpc_ulam(s, t, x=0.6)

    def test_tiny_inputs_solved_without_rounds(self):
        # An s of at most one symbol is solved directly; a longer s with
        # an empty t still runs both rounds.
        for s, t in (("", "abc"), ("a", "a"), ("", ""), ("a", ""),
                     ("b", "abc"), ("z", "abc")):
            res = mpc_ulam(s, t, x=X, eps=EPS)
            assert res.distance == ulam_distance(s, t), (s, t)
            assert res.stats.n_rounds == 0
        assert mpc_ulam("abc", "", x=X).distance == 3
        with pytest.raises(ValueError):
            mpc_ulam("a", "bb", x=X)
        with pytest.raises(ValueError):
            mpc_ulam("", "abc", x=0.6)

    def test_keep_tuples_flag(self):
        s, t, _ = planted_pair(N, 2, seed=1)
        res = mpc_ulam(s, t, x=X, eps=EPS, config=CFG, keep_tuples=True)
        assert res.tuples is not None
        assert len(res.tuples) == res.n_tuples
        res2 = mpc_ulam(s, t, x=X, eps=EPS, config=CFG)
        assert res2.tuples is None
        # The kept rows, in order, as the tuple lists they were before
        # round outputs became tables: (count, sha256 prefix of the
        # list's repr) per preset.
        pinned = {"paper": (1344, "efec2f8ddd3d61b6"),
                  "default": (1344, "efec2f8ddd3d61b6"),
                  "practical": (512, "980c37f38ed2772a")}
        for name, (count, digest) in pinned.items():
            res = mpc_ulam(s, t, x=X, eps=EPS, keep_tuples=True,
                           config=getattr(UlamConfig, name)())
            rows = list(res.tuples)
            assert all(type(v) is int for row in rows for v in row)
            assert (len(rows), hashlib.sha256(
                repr(rows).encode()).hexdigest()[:16]) == (count, digest)


class TestConfigEffects:
    def test_practical_preset_still_accurate_on_planted(self):
        s, t, _ = planted_pair(N, 8, seed=6)
        res = mpc_ulam(s, t, x=X, eps=EPS, seed=1,
                       config=UlamConfig.practical())
        exact = ulam_distance(s, t)
        assert exact <= res.distance <= (1 + EPS) * max(exact, 1)

    def test_paper_preset_needs_more_communication(self):
        s, t, _ = planted_pair(N, 8, seed=6)
        sim = MPCSimulator(memory_limit=None)
        paper = mpc_ulam(s, t, x=X, eps=EPS, seed=1, sim=sim,
                         config=UlamConfig.paper())
        deflt = mpc_ulam(s, t, x=X, eps=EPS, seed=1, config=CFG)
        assert paper.n_tuples >= deflt.n_tuples
