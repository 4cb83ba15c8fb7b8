"""The Ulam chain DPs walk diagonal runs; the point-wise loops are the
oracles.

A diagonal run is a maximal stretch of consecutive match points (in
``i`` order) with ``Δi = Δp = 1``.  :func:`~repro.strings.native.
chain_table`, :func:`~repro.strings.native.lis_table`, `lulam` and the
window read-off step once per run instead of once per point; every table,
distance, parent walk and charge must equal the point-wise loops of
:mod:`tests.helpers` exactly.  Point sets mix planted runs, single-point
runs, run-free sets and the empty set, and every text position is a
start, so starts cut runs mid-run.
"""

from __future__ import annotations

import numpy as np
from pytest import MonkeyPatch
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.strings.ulam as ulam_mod
from repro.mpc import WorkMeter
from repro.obs import profile as obs_profile
from repro.strings import (lis_length, local_ulam_from_matches, native,
                           ulam_windows)

from .helpers import (pointwise_chain_table, pointwise_lis_table,
                      pointwise_local_ulam, pointwise_predecessors,
                      pointwise_read_off, scan_local_ulam,
                      two_pass_selection)

_EMPTY = np.zeros(0, dtype=np.int64)


@st.composite
def _point_sets(draw):
    """``(i_pts, p_pts, m, n_t)``: match points sorted by ``i`` on a text
    of ``n_t`` positions and a pattern of ``m`` covering every ``i``.

    ``runs`` plants diagonal runs of up to 5 points, ``singles`` plants
    one-point runs (neighbours may still join), ``run-free`` steps ``i``
    by at least 2 so no two points share a run, ``empty`` has none.  The
    planted runs sit in the text in a random order with random gaps.
    """
    kind = draw(st.sampled_from(["runs", "singles", "run-free", "empty"]))
    if kind == "empty":
        return _EMPTY, _EMPTY, draw(st.integers(0, 3)), \
            draw(st.integers(0, 4))
    length = st.integers(1, 5) if kind == "runs" else st.just(1)
    lengths = draw(st.lists(length, min_size=1, max_size=8))
    R = len(lengths)
    order = draw(st.permutations(range(R)))
    space = draw(st.lists(st.integers(0, 2), min_size=R, max_size=R))
    head_p, pos = [0] * R, 0
    for r, gap in zip(order, space):
        head_p[r] = pos + gap
        pos += gap + lengths[r]
    n_t = pos + draw(st.integers(0, 2))
    step = st.integers(2 if kind == "run-free" else 1, 3)
    i_pts, p_pts, i = [], [], draw(st.integers(0, 2))
    for r, L in enumerate(lengths):
        i_pts += range(i, i + L)
        p_pts += range(head_p[r], head_p[r] + L)
        i += L - 1 + draw(step)
    m = i_pts[-1] + 1 + draw(st.integers(0, 3))
    return (np.array(i_pts, dtype=np.int64),
            np.array(p_pts, dtype=np.int64), m, n_t)


#: One planted run cut by the starts 1..3, a lone point before it, and
#: the run-free anti-diagonal.
_RUN = (np.array([0, 2, 3, 4, 5]), np.array([6, 0, 1, 2, 3]), 7, 8)
_ANTI = (np.array([0, 2, 4]), np.array([5, 3, 1]), 5, 6)


def _metered(fn):
    with obs_profile.enabled():
        with WorkMeter() as meter:
            result = fn()
    return result, meter.total, {k: v[:2] for k, v in meter.kernels.items()}


class TestDiagonalRuns:
    @given(case=_point_sets())
    @settings(max_examples=150, deadline=None)
    def test_runs_are_maximal_diagonal_stretches(self, case):
        i_pts, p_pts, _, _ = case
        bounds = native.diagonal_runs(i_pts, p_pts)
        c = len(i_pts)
        assert bounds[0] == 0 and bounds[-1] == c
        assert np.all(np.diff(bounds) > 0)
        diagonal = (np.diff(i_pts) == 1) & (np.diff(p_pts) == 1)
        cut = np.zeros(max(c - 1, 0), dtype=bool)
        cut[bounds[1:-1] - 1] = True
        np.testing.assert_array_equal(cut, ~diagonal)

    def test_run_free_and_empty_sets(self):
        assert native.diagonal_runs(*_ANTI[:2]).tolist() == [0, 1, 2, 3]
        assert native.diagonal_runs(*_RUN[:2]).tolist() == [0, 1, 5]
        assert native.diagonal_runs(_EMPTY, _EMPTY).tolist() == [0]
        bounds, preds, gaps = native.run_links(_EMPTY, _EMPTY)
        assert (bounds.tolist(), preds, gaps) == ([0], [], [])

    @given(case=_point_sets())
    @example(case=_RUN)
    @settings(max_examples=100, deadline=None)
    def test_links_are_the_heads_predecessors(self, case):
        i_pts, p_pts, _, _ = case
        bounds, preds, gaps = native.run_links(i_pts, p_pts)
        every = pointwise_predecessors(i_pts, p_pts)
        heads = bounds[:-1].tolist()
        assert [pred.tolist() for pred in preds] == [
            every[0][head].tolist() for head in heads]
        assert [gap.tolist() for gap in gaps] == [
            every[1][head].tolist() for head in heads]


class TestRunWalkEqualsPointwise:
    @given(case=_point_sets())
    @example(case=_RUN)
    @example(case=_ANTI)
    @settings(max_examples=150, deadline=None)
    def test_chain_and_lis_tables(self, case):
        i_pts, p_pts, _, n_t = case
        # Every text position is a start, so starts cut every run.
        starts = np.arange(n_t + 1, dtype=np.int64)
        links = native.run_links(i_pts, p_pts)
        D = pointwise_chain_table(i_pts, p_pts, starts)
        L = pointwise_lis_table(i_pts, p_pts, starts)
        for given_links in (None, links):
            np.testing.assert_array_equal(
                native.chain_table(i_pts, p_pts, starts, given_links), D)
            np.testing.assert_array_equal(
                native.lis_table(i_pts, p_pts, starts, given_links), L)
        # Repeated starts in any order read their own rows.
        mixed = starts[::-1].repeat(2)
        np.testing.assert_array_equal(
            native.lis_table(i_pts, p_pts, mixed, links), L[mixed])

    @given(case=_point_sets())
    @example(case=_RUN)
    @example(case=_ANTI)
    @settings(max_examples=150, deadline=None)
    def test_read_off_every_window(self, case):
        i_pts, p_pts, m, n_t = case
        starts = np.arange(n_t + 1, dtype=np.int64)
        bounds = native.diagonal_runs(i_pts, p_pts)
        D = pointwise_chain_table(i_pts, p_pts, starts)
        sp, ep = (a.ravel() for a in np.meshgrid(starts, starts,
                                                 indexing="ij"))
        sp, ep = sp[sp <= ep], ep[sp <= ep]
        np.testing.assert_array_equal(
            ulam_mod._read_off(D, i_pts, p_pts, m, sp, ep, sp,
                               bounds[1:] - 1),
            pointwise_read_off(D, i_pts, p_pts, m, sp, ep, sp))

    @given(case=_point_sets())
    @example(case=_RUN)
    @example(case=_ANTI)
    @settings(max_examples=150, deadline=None)
    def test_local_ulam(self, case):
        i_pts, p_pts, m, _ = case
        want = pointwise_local_ulam(i_pts, p_pts, m)
        assert want == scan_local_ulam(i_pts, p_pts, m)
        cells = len(i_pts) ** 2 + 1
        for links in (None, native.run_links(i_pts, p_pts)):
            assert _metered(lambda: local_ulam_from_matches(
                i_pts, p_pts, m, links)) == (
                want, cells, {"ulam_sparse": [1, cells]})

    @given(case=_point_sets(), data=st.data())
    @example(case=_RUN, data=None)
    @settings(max_examples=100, deadline=None)
    def test_windows_with_and_without_top_k(self, case, data):
        i_pts, p_pts, m, n_t = case
        if data is None:
            sp, ep = np.array([1, 2, 0, 3]), np.array([6, 6, 8, 4])
        else:
            bound = st.integers(0, n_t)
            windows = data.draw(st.lists(st.tuples(bound, bound).map(
                sorted), min_size=1, max_size=12))
            sp, ep = np.array(windows, dtype=np.int64).T
        # Every window's LIS bounds, from an independent LIS.
        lis = np.array([lis_length(p_pts[(p_pts >= a) & (p_pts < b)])
                        for a, b in zip(sp.tolist(), ep.tolist())])
        n, longer = ep - sp, np.maximum(m, ep - sp)
        lower, upper = longer - lis, np.minimum(m + n - 2 * lis, longer)
        all_d = ulam_windows(i_pts, p_pts, m, sp, ep)[1]
        for top_k in (None, 1, 2, len(sp) // 2, len(sp)):
            got = _metered(lambda: ulam_windows(i_pts, p_pts, m, sp, ep,
                                                top_k=top_k))
            # The evaluated windows, in order, are those of the two
            # passes taken by set operations.
            assert got[0][0].tolist() == two_pass_selection(
                lower, upper, all_d, top_k).tolist()
            with MonkeyPatch.context() as patch:
                patch.setattr(native, "chain_table",
                              lambda i, p, s, links: pointwise_chain_table(
                                  i, p, s))
                patch.setattr(native, "lis_table",
                              lambda i, p, s, links: pointwise_lis_table(
                                  i, p, s))
                patch.setattr(ulam_mod, "_read_off",
                              lambda *args: pointwise_read_off(*args[:-1]))
                want = _metered(lambda: ulam_windows(
                    i_pts, p_pts, m, sp, ep, top_k=top_k))
            (index, dists), *meter = got
            (want_index, want_dists), *want_meter = want
            assert index.tolist() == want_index.tolist()
            assert dists.tolist() == want_dists.tolist()
            assert meter == want_meter
