"""Property-based tests (hypothesis) for the distance kernels.

These pin down the metric axioms and cross-kernel consistency invariants
that the MPC algorithms silently rely on.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.strings import (cgks_edit_upper_bound, fitting_last_row,
                           levenshtein, levenshtein_banded,
                           levenshtein_doubling, lis_length, local_ulam,
                           match_points, ulam_auto, ulam_distance,
                           ulam_indel)

from .helpers import brute_fitting, brute_lcs_length

short = st.lists(st.integers(0, 5), max_size=14)
tiny = st.lists(st.integers(0, 3), max_size=10)


@st.composite
def duplicate_free(draw, max_len=10, universe=25):
    vals = draw(st.lists(st.integers(0, universe - 1), max_size=max_len,
                         unique=True))
    return vals


class TestMetricAxioms:
    @given(a=short)
    @settings(max_examples=60, deadline=None)
    def test_identity(self, a):
        assert levenshtein(a, a) == 0

    @given(a=short, b=short)
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(a=tiny, b=tiny, c=tiny)
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(a=short, b=short)
    @settings(max_examples=60, deadline=None)
    def test_positivity(self, a, b):
        d = levenshtein(a, b)
        assert d >= 0
        assert (d == 0) == (a == b)

    @given(a=short, b=short)
    @settings(max_examples=60, deadline=None)
    def test_length_difference_lower_bound(self, a, b):
        assert levenshtein(a, b) >= abs(len(a) - len(b))

    @given(a=short, b=short)
    @settings(max_examples=60, deadline=None)
    def test_max_length_upper_bound(self, a, b):
        assert levenshtein(a, b) <= max(len(a), len(b))


class TestCrossKernelConsistency:
    @given(a=short, b=short)
    @settings(max_examples=60, deadline=None)
    def test_banded_doubling_equals_dense(self, a, b):
        assert levenshtein_doubling(a, b) == levenshtein(a, b)

    @given(a=short, b=short, k=st.integers(0, 20))
    @settings(max_examples=60, deadline=None)
    def test_banded_threshold_contract(self, a, b, k):
        d = levenshtein(a, b)
        got = levenshtein_banded(a, b, k)
        assert (got == d) if d <= k else (got is None)

    @given(a=short, b=short)
    @settings(max_examples=60, deadline=None)
    def test_lcs_indel_duality(self, a, b):
        # insertion/deletion-only distance = m + n - 2·LCS ≥ levenshtein
        indel = len(a) + len(b) - 2 * brute_lcs_length(a, b)
        assert levenshtein(a, b) <= indel <= 2 * levenshtein(a, b)

    @given(a=short, b=short)
    @settings(max_examples=60, deadline=None)
    def test_fitting_lower_bounds_global(self, a, b):
        assert fitting_last_row(a, b).min() <= levenshtein(a, b)

    @given(a=short, b=short)
    @settings(max_examples=40, deadline=None)
    def test_cgks_sandwich(self, a, b):
        u = cgks_edit_upper_bound(a, b, eps=0.5)
        assert levenshtein(a, b) <= u <= len(a) + len(b)


class TestUlamProperties:
    @given(a=duplicate_free(), b=duplicate_free())
    @settings(max_examples=80, deadline=None)
    def test_ulam_equals_levenshtein_on_duplicate_free(self, a, b):
        assert ulam_distance(a, b) == levenshtein(a, b)

    @given(a=duplicate_free(), b=duplicate_free())
    @settings(max_examples=80, deadline=None)
    def test_sparse_kernels_agree(self, a, b):
        i_pts, p_pts = match_points(a, b)
        expected = levenshtein(a, b)
        assert ulam_auto(i_pts, p_pts, len(a), len(b)) == expected

    @given(a=duplicate_free(), b=duplicate_free())
    @settings(max_examples=60, deadline=None)
    def test_indel_sandwich(self, a, b):
        exact = ulam_distance(a, b)
        indel = ulam_indel(a, b)
        assert exact <= indel <= 2 * max(exact, 0) + (0 if exact else 0) \
            or indel == exact == 0
        assert indel <= 2 * exact or exact == 0

    @given(a=duplicate_free(max_len=8), b=duplicate_free(max_len=8))
    @settings(max_examples=60, deadline=None)
    def test_local_ulam_window_achieves_distance(self, a, b):
        g, k, d = local_ulam(a, b)
        assert 0 <= g <= k <= len(b)
        assert ulam_distance(a, list(b)[g:k]) == d
        assert d <= len(a)  # empty window is always available

    @given(a=duplicate_free(), b=duplicate_free())
    @settings(max_examples=60, deadline=None)
    def test_local_ulam_is_window_minimum(self, a, b):
        _, _, d = local_ulam(a, b)
        assert d == brute_fitting(a, b)[2]

    @given(seq=st.lists(st.integers(0, 30), max_size=15, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_lis_reversal_antisymmetry(self, seq):
        # LIS(seq) on distinct values == longest decreasing of reversed
        assert lis_length(seq) == lis_length([-v for v in seq[::-1]])


class TestEditOperationsClosure:
    @given(a=short, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_single_edit_changes_distance_by_at_most_one(self, a, data):
        b = list(a)
        op = data.draw(st.sampled_from(["sub", "ins", "del"]))
        if op == "sub" and b:
            i = data.draw(st.integers(0, len(b) - 1))
            b[i] = data.draw(st.integers(0, 5))
        elif op == "ins":
            i = data.draw(st.integers(0, len(b)))
            b.insert(i, data.draw(st.integers(0, 5)))
        elif op == "del" and b:
            i = data.draw(st.integers(0, len(b) - 1))
            del b[i]
        assert levenshtein(a, b) <= 1

    @given(a=short, b=short, c=short)
    @settings(max_examples=40, deadline=None)
    def test_concatenation_subadditivity(self, a, b, c):
        # ed(a+c, b+c) <= ed(a, b)
        assert levenshtein(a + c, b + c) <= levenshtein(a, b)
