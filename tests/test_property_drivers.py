"""Property-based tests for the end-to-end MPC drivers on tiny inputs.

Small ``n`` keeps hypothesis fast while still exercising the full round
structure; the invariants here are the ones no workload file can promise
to cover: arbitrary duplicate-free inputs, arbitrary alphabets, and both
drivers' certified-upper-bound contracts.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import mpc_edit_distance, mpc_ulam
from repro.strings import levenshtein, ulam_distance


@st.composite
def perm_like(draw, min_len=2, max_len=24, universe=40):
    return draw(st.lists(st.integers(0, universe - 1), min_size=min_len,
                         max_size=max_len, unique=True))


short_str = st.lists(st.integers(0, 3), min_size=2, max_size=24)


class TestUlamDriverProperties:
    @given(s=perm_like(), t=perm_like())
    @settings(max_examples=25, deadline=None)
    def test_certified_upper_bound(self, s, t):
        res = mpc_ulam(s, t, x=0.4, eps=1.0, seed=0)
        assert res.distance >= ulam_distance(s, t)

    @given(s=perm_like())
    @settings(max_examples=20, deadline=None)
    def test_identity_is_zero(self, s):
        assert mpc_ulam(s, list(s), x=0.4, eps=1.0).distance == 0

    @given(s=perm_like(), t=perm_like(), seed=st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_never_exceeds_trivial_bound(self, s, t, seed):
        res = mpc_ulam(s, t, x=0.4, eps=1.0, seed=seed)
        assert res.distance <= max(len(s), len(t))

    @given(s=perm_like(), t=perm_like())
    @settings(max_examples=15, deadline=None)
    def test_two_rounds_always(self, s, t):
        assert mpc_ulam(s, t, x=0.4, eps=1.0).stats.n_rounds == 2


class TestEditDriverProperties:
    @given(s=short_str, t=short_str)
    @settings(max_examples=25, deadline=None)
    def test_certified_upper_bound(self, s, t):
        res = mpc_edit_distance(s, t, x=0.25, eps=1.0, seed=0)
        assert res.distance >= levenshtein(s, t)

    @given(s=short_str, t=short_str)
    @settings(max_examples=25, deadline=None)
    def test_never_exceeds_sum_of_lengths(self, s, t):
        res = mpc_edit_distance(s, t, x=0.25, eps=1.0, seed=0)
        assert res.distance <= len(s) + len(t)

    @given(s=short_str)
    @settings(max_examples=15, deadline=None)
    def test_identity_is_zero(self, s):
        assert mpc_edit_distance(s, list(s), x=0.25).distance == 0

    @given(s=short_str, t=short_str)
    @settings(max_examples=15, deadline=None)
    def test_deterministic_under_seed(self, s, t):
        a = mpc_edit_distance(s, t, x=0.25, eps=1.0, seed=5)
        b = mpc_edit_distance(s, t, x=0.25, eps=1.0, seed=5)
        assert a.distance == b.distance
