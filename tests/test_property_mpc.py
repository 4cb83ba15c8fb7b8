"""Property-based tests for the MPC substrate and combining DPs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpc import blocks, sizeof
from repro.ulam import combine_tuples

payload = st.recursive(
    st.one_of(st.integers(-100, 100), st.floats(allow_nan=False,
                                                allow_infinity=False),
              st.text(max_size=6), st.none()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=3), children, max_size=3)),
    max_leaves=12)


class TestSizeofProperties:
    @given(obj=payload)
    @settings(max_examples=80, deadline=None)
    def test_positive(self, obj):
        assert sizeof(obj) >= 1

    @given(obj=payload)
    @settings(max_examples=80, deadline=None)
    def test_wrapping_monotone(self, obj):
        assert sizeof([obj]) == sizeof(obj) + 1

    @given(items=st.lists(payload, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_list_additive(self, items):
        assert sizeof(items) == 1 + sum(sizeof(i) for i in items)


class TestBlocksProperties:
    @given(n=st.integers(0, 500), b=st.integers(1, 60))
    @settings(max_examples=100, deadline=None)
    def test_partition_exact_cover(self, n, b):
        bs = blocks(n, b)
        covered = [p for lo, hi in bs for p in range(lo, hi)]
        assert covered == list(range(n))

    @given(n=st.integers(1, 500), b=st.integers(1, 60))
    @settings(max_examples=100, deadline=None)
    def test_all_blocks_at_most_b(self, n, b):
        assert all(hi - lo <= b for lo, hi in blocks(n, b))

    @given(n=st.integers(1, 500), b=st.integers(1, 60))
    @settings(max_examples=100, deadline=None)
    def test_block_count_formula(self, n, b):
        assert len(blocks(n, b)) == -(-n // b)


tuple_strategy = st.tuples(
    st.integers(0, 10), st.integers(1, 6),   # lo, extent_s
    st.integers(0, 10), st.integers(0, 6),   # sp, extent_t
    st.integers(0, 6))                        # d


def _mk(t):
    lo, ds, sp, dt, d = t
    return (lo, lo + ds, sp, sp + dt, d)


class TestCombineDPProperties:
    @given(ts=st.lists(tuple_strategy, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_ulam_combine_bounded_by_trivial(self, ts):
        tuples = [_mk(t) for t in ts]
        assert combine_tuples(tuples, 16, 16) <= 16

    @given(ts=st.lists(tuple_strategy, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_edit_combine_bounded_by_trivial(self, ts):
        tuples = [_mk(t) for t in ts]
        assert combine_tuples(tuples, 16, 16, mode="sum") <= 32

    @given(ts=st.lists(tuple_strategy, max_size=8),
           extra=tuple_strategy)
    @settings(max_examples=80, deadline=None)
    def test_more_tuples_never_hurt(self, ts, extra):
        tuples = [_mk(t) for t in ts]
        more = tuples + [_mk(extra)]
        assert combine_tuples(more, 16, 16) <= \
            combine_tuples(tuples, 16, 16)
        assert combine_tuples(more, 16, 16, mode="sum") <= \
            combine_tuples(tuples, 16, 16, mode="sum")

    @given(ts=st.lists(tuple_strategy, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_overlap_rule_never_worse(self, ts):
        tuples = [_mk(t) for t in ts]
        assert combine_tuples(tuples, 16, 16, mode="overlap") <= \
            combine_tuples(tuples, 16, 16, mode="sum")

    @given(ts=st.lists(tuple_strategy, max_size=6),
           inflate=st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_tuple_distances(self, ts, inflate):
        tuples = [_mk(t) for t in ts]
        worse = [(lo, hi, sp, ep, d + inflate)
                 for lo, hi, sp, ep, d in tuples]
        assert combine_tuples(tuples, 16, 16) <= \
            combine_tuples(worse, 16, 16)
