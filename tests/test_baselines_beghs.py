"""Tests for the BEGHS'18-style O(log n)-round baseline."""

import numpy as np
import pytest

from repro.baselines import beghs_edit_distance
from repro.baselines.beghs import _grid_points, _tree_levels, _windows_for
from repro.mpc import MemoryLimitExceeded, MPCSimulator
from repro.strings import levenshtein
from repro.workloads.strings import (block_shuffled_pair, planted_pair,
                                     random_string)

N = 192
BASE_EXP = 0.7  # more tree depth at test scale than the paper's 8/9
EPS = 1.0


class TestTreeLevels:
    def test_base_level_respects_size(self):
        levels = _tree_levels(256, 64)
        assert all(b - a <= 64 for a, b in levels[0])

    def test_levels_partition_range(self):
        levels = _tree_levels(100, 30)
        for level in levels:
            covered = [p for a, b in level for p in range(a, b)]
            assert covered == list(range(100))

    def test_root_is_last(self):
        levels = _tree_levels(100, 30)
        assert levels[-1] == [(0, 100)]

    def test_single_level_when_base_large(self):
        assert _tree_levels(50, 100) == [[(0, 50)]]

    def test_parents_are_child_unions(self):
        levels = _tree_levels(200, 20)
        for li in range(1, len(levels)):
            for a, b in levels[li]:
                mid = (a + b) // 2
                assert (a, mid) in levels[li - 1]
                assert (mid, b) in levels[li - 1]


class TestGridGeometry:
    def test_grid_points_on_grid(self):
        pts = _grid_points(7, 33, 5, 100)
        assert all(p % 5 == 0 for p in pts)
        assert pts == [10, 15, 20, 25, 30]

    def test_grid_includes_text_boundaries(self):
        assert 0 in _grid_points(-5, 10, 7, 100)
        assert 100 in _grid_points(95, 120, 7, 100)

    def test_windows_cover_true_image(self):
        # both endpoints within D of the segment's own position
        wins = set(_windows_for((10, 30), D=6, g=2, n_t=100))
        for st in range(4, 17, 2):
            for en in range(24, 37, 2):
                assert (st, en) in wins


class TestBeghsQuality:
    @pytest.mark.parametrize("budget", [0, 2, 6, 16, 48])
    def test_one_plus_eps_on_planted(self, budget):
        s, t, _ = planted_pair(N, budget, sigma=4, seed=budget + 1)
        res = beghs_edit_distance(s, t, eps=EPS, base_exponent=BASE_EXP)
        exact = levenshtein(s, t)
        assert exact <= res.distance <= (1 + EPS) * max(exact, 1)

    def test_far_pair(self):
        s, t = block_shuffled_pair(N, 8, seed=2)
        res = beghs_edit_distance(s, t, eps=EPS, base_exponent=BASE_EXP)
        exact = levenshtein(s, t)
        assert exact <= res.distance <= (1 + EPS) * max(exact, 1)

    def test_random_pair(self):
        s = random_string(N, 4, seed=1)
        t = random_string(N, 4, seed=2)
        res = beghs_edit_distance(s, t, eps=EPS, base_exponent=BASE_EXP)
        exact = levenshtein(s, t)
        assert exact <= res.distance <= (1 + EPS) * max(exact, 1)

    def test_different_lengths(self):
        s = random_string(N, 4, seed=3)
        t = s[: N - 20]
        res = beghs_edit_distance(s, t, eps=EPS, base_exponent=BASE_EXP)
        exact = levenshtein(s, t)
        assert exact <= res.distance <= (1 + EPS) * max(exact, 1)

    def test_smaller_eps_tightens(self):
        s, t, _ = planted_pair(N, 24, sigma=4, seed=9)
        coarse = beghs_edit_distance(s, t, eps=2.0,
                                     base_exponent=BASE_EXP)
        fine = beghs_edit_distance(s, t, eps=0.5,
                                   base_exponent=BASE_EXP)
        assert fine.distance <= coarse.distance


class TestBeghsResources:
    def test_log_rounds(self):
        s, t, _ = planted_pair(N, 6, sigma=4, seed=4)
        res = beghs_edit_distance(s, t, eps=EPS, base_exponent=BASE_EXP)
        assert res.stats.n_rounds == res.depth + 1
        assert res.depth >= 2  # genuinely multi-level at this base

    def test_more_rounds_than_theorem9(self):
        """The Table 1 story: BEGHS pays O(log n) rounds."""
        from repro.editdistance import mpc_edit_distance
        s, t, _ = planted_pair(N, 6, sigma=4, seed=5)
        beghs = beghs_edit_distance(s, t, eps=EPS, base_exponent=BASE_EXP)
        ours = mpc_edit_distance(s, t, x=0.29, eps=EPS, seed=1)
        assert beghs.stats.n_rounds > ours.stats.n_rounds

    def test_memory_cap_enforced(self):
        s, t, _ = planted_pair(N, 6, sigma=4, seed=6)
        with pytest.raises(MemoryLimitExceeded):
            beghs_edit_distance(s, t, eps=EPS, base_exponent=BASE_EXP,
                                sim=MPCSimulator(memory_limit=32))

    def test_equal_strings_shortcut(self):
        s = random_string(N, 4, seed=7)
        res = beghs_edit_distance(s, s.copy(), eps=EPS)
        assert res.distance == 0 and res.stats.n_rounds == 0

    def test_empty_input(self):
        res = beghs_edit_distance([], [1, 2], eps=EPS)
        assert res.distance == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            beghs_edit_distance([1], [2], eps=0)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_non_finite_eps_rejected_by_engine(self, eps):
        from repro.engines import EngineRequest, get_engine
        with pytest.raises(ValueError, match="finite number > 0"):
            get_engine("beghs").solve(EngineRequest(
                distance="edit", s=[1, 2, 3], t=[1, 3, 2], eps=eps))

    def test_guess_schedule_doubles(self):
        s, t, _ = planted_pair(N, 20, sigma=4, seed=8)
        res = beghs_edit_distance(s, t, eps=EPS, base_exponent=BASE_EXP)
        guesses = [g["guess"] for g in res.per_guess]
        assert all(b == min(2 * a, 2 * N) for a, b in
                   zip(guesses, guesses[1:]))
        assert res.per_guess[-1]["accepted"]
