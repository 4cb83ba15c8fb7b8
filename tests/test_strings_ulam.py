"""Unit tests for the Ulam-distance kernels (dense, sparse, local)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.metrics import enabled as metrics_enabled
from repro.mpc import WorkMeter
from repro.obs import profile as obs_profile
from repro.strings import (check_duplicate_free, is_duplicate_free,
                           local_ulam, local_ulam_from_matches,
                           match_points, ulam_auto, ulam_distance,
                           ulam_from_matches, ulam_indel)
from repro.strings.native import predecessors

from .helpers import (brute_edit_distance, brute_fitting,
                      random_duplicate_free_pair, scan_local_ulam)


class TestDuplicateFreeValidation:
    def test_detects_duplicates(self):
        assert is_duplicate_free([1, 2, 3])
        assert not is_duplicate_free([1, 2, 1])

    def test_check_raises_with_name(self):
        with pytest.raises(ValueError, match="myinput"):
            check_duplicate_free([5, 5], name="myinput")

    def test_ulam_distance_validates_both_sides(self):
        with pytest.raises(ValueError):
            ulam_distance([1, 1], [1, 2])
        with pytest.raises(ValueError):
            ulam_distance([1, 2], [2, 2])


class TestUlamDistance:
    def test_equals_edit_distance_on_duplicate_free(self, rng):
        for _ in range(150):
            a, b = random_duplicate_free_pair(rng)
            assert ulam_distance(a, b) == brute_edit_distance(a, b)

    def test_identity(self, rng):
        p = rng.permutation(12).tolist()
        assert ulam_distance(p, p) == 0

    def test_reverse_permutation(self):
        # reversing [0..n-1]: keep one element, touch the rest
        n = 7
        assert ulam_distance(list(range(n)), list(range(n))[::-1]) == n - 1


class TestUlamIndel:
    def test_sandwiched_by_exact_distance(self, rng):
        for _ in range(100):
            a, b = random_duplicate_free_pair(rng)
            exact = brute_edit_distance(a, b)
            indel = ulam_indel(a, b)
            assert exact <= indel <= 2 * exact or (exact == 0 and indel == 0)

    def test_known_gap(self):
        # swapping two adjacent symbols: 2 substitutions exactly, but
        # indel-only needs delete+insert of one symbol = 2 as well
        assert ulam_indel([1, 2], [2, 1]) == 2
        assert ulam_distance([1, 2], [2, 1]) == 2

    def test_substitution_advantage(self):
        # replace a symbol by a fresh one: 1 substitution vs 2 indels
        assert ulam_distance([1, 2, 3], [1, 9, 3]) == 1
        assert ulam_indel([1, 2, 3], [1, 9, 3]) == 2


class TestSparseMatches:
    def test_match_points_sorted_and_correct(self, rng):
        a, b = random_duplicate_free_pair(rng)
        i_pts, p_pts = match_points(a, b)
        assert list(i_pts) == sorted(i_pts)
        for i, p in zip(i_pts, p_pts):
            assert a[i] == b[p]

    def test_ulam_from_matches_equals_dense(self, rng):
        for _ in range(200):
            a, b = random_duplicate_free_pair(rng)
            i_pts, p_pts = match_points(a, b)
            expected = brute_edit_distance(a, b)
            assert ulam_from_matches(i_pts, p_pts, len(a),
                                     len(b)) == expected

    def test_banded_is_upper_bound_and_exact_when_certified(self, rng):
        for _ in range(150):
            a, b = random_duplicate_free_pair(rng)
            i_pts, p_pts = match_points(a, b)
            exact = brute_edit_distance(a, b)
            for band in (0, 1, 2, 5, 50):
                got = ulam_from_matches(i_pts, p_pts, len(a), len(b),
                                        band=band)
                assert got >= exact
                if got <= band:
                    assert got == exact

    def test_ulam_auto_always_exact(self, rng):
        for _ in range(200):
            a, b = random_duplicate_free_pair(rng)
            i_pts, p_pts = match_points(a, b)
            assert ulam_auto(i_pts, p_pts, len(a),
                             len(b)) == brute_edit_distance(a, b)

    def test_no_matches_gives_max_length(self):
        empty = np.array([], dtype=np.int64)
        assert ulam_from_matches(empty, empty, 4, 7) == 7


class TestLocalUlam:
    def test_matches_brute_fitting(self, rng):
        for _ in range(150):
            a, b = random_duplicate_free_pair(rng, max_len=9)
            g, k, d = local_ulam(a, b)
            assert d == brute_fitting(a, b)[2]
            assert brute_edit_distance(a, list(b)[g:k]) == d

    def test_exact_window_found(self):
        g, k, d = local_ulam([4, 5, 6], [1, 2, 3, 4, 5, 6, 7])
        assert d == 0
        assert (g, k) == (3, 6)

    def test_no_common_characters(self):
        g, k, d = local_ulam([1, 2, 3], [7, 8, 9])
        assert d == 3
        assert g == k  # empty window

    def test_from_matches_empty(self):
        empty = np.array([], dtype=np.int64)
        assert local_ulam_from_matches(empty, empty, 5) == (0, 0, 5)


def _metered(fn):
    """``fn()`` under full metering: its result, work, metrics and
    profile calls/cells."""
    with metrics_enabled(), obs_profile.enabled():
        with WorkMeter() as meter:
            result = fn()
    return (result, meter.total, meter.metrics,
            {k: v[:2] for k, v in meter.kernels.items()})


@st.composite
def _match_point_sets(draw):
    """Match points sorted by strictly increasing ``i``, with distinct
    ``p`` from a small range (so equally cheap parents are common), and
    a pattern length covering every ``i``."""
    p_pts = draw(st.lists(st.integers(0, 14), unique=True, max_size=12))
    steps = draw(st.lists(st.integers(1, 3), min_size=len(p_pts),
                          max_size=len(p_pts)))
    i_pts = np.cumsum(np.array(steps, dtype=np.int64)) - 1
    m = int(i_pts[-1]) + 1 if len(i_pts) else 0
    return i_pts, np.array(p_pts, dtype=np.int64), \
        m + draw(st.integers(0, 3))


class TestLocalUlamParity:
    """The lulam kernel walks the shared predecessor/gap list; the scan
    over every earlier point is its oracle, parents and ties included."""

    @given(case=_match_point_sets())
    # Empty; two equally cheap chains into the last point (the first
    # one must win); points without predecessors.
    @example(case=(np.zeros(0, dtype=np.int64),
                   np.zeros(0, dtype=np.int64), 3))
    @example(case=(np.array([0, 1, 2, 3], dtype=np.int64),
                   np.array([6, 8, 0, 9], dtype=np.int64), 4))
    @example(case=(np.array([0, 1, 2], dtype=np.int64),
                   np.array([9, 5, 2], dtype=np.int64), 3))
    @settings(max_examples=200, deadline=None)
    def test_same_window_and_charge_as_scan(self, case):
        i_pts, p_pts, m = case
        got = _metered(lambda: local_ulam_from_matches(i_pts, p_pts, m))
        assert got[0] == scan_local_ulam(i_pts, p_pts, m)
        # The scan's charge: one ulam_sparse call of c² + 1 cells.
        cells = len(i_pts) ** 2 + 1
        assert got[1] == cells
        assert got[3] == {"ulam_sparse": [1, cells]}
        links = predecessors(i_pts, p_pts)
        assert _metered(lambda: local_ulam_from_matches(
            i_pts, p_pts, m, links)) == got
