"""Top-k pruning and banded point counts of the Ulam window kernel.

:func:`~repro.strings.ulam.ulam_windows` runs the exact chain DP only on
the windows that can reach the per-block top-k: each window's LIS gives
``max(m, n) - LIS ≤ ulam ≤ min(m + n - 2·LIS, max(m, n))``.  A window
whose lower bound exceeds the ``top_k``-th smallest upper bound, or the
largest exact distance of the ``top_k`` windows with the smallest upper
bounds (the second pass), is strictly worse than ``top_k`` others.
Pruning may only move
wall-clock: the machine's capped tuples (rows and order), the per-window
``ulam_sparse`` charge over every window and the work ledger must equal
those of evaluating every window.

The ledger's banded point counts come from a prefix table; the
``(windows × points)`` mask it replaced is the oracle here
(:func:`reference_kept`).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.strings.ulam as ulam_mod
import repro.ulam.candidates as cand
from repro.chain import TupleTable
from repro.metrics import enabled as metrics_enabled
from repro.mpc import WorkMeter
from repro.obs import profile as obs_profile
from repro.params import UlamParams
from repro.strings import (lis_length, match_points, ulam_distance,
                           ulam_windows)
from repro.ulam.config import UlamConfig
from repro.workloads.permutations import planted_pair as perm_pair


def _metered(fn):
    """``fn()`` under full metering; returns
    ``(result, work, metrics, profile_calls_cells)``."""
    with metrics_enabled(), obs_profile.enabled():
        with WorkMeter() as meter:
            result = fn()
    shape = {k: v[:2] for k, v in meter.kernels.items()}
    return result, meter.total, meter.metrics, shape


def reference_kept(i_pts, p_pts, sp, ep, band):
    """Per window, the match points with ``sp ≤ p < ep`` and
    ``|p - i - sp| ≤ band``, from one ``(windows × points)`` mask."""
    s = sp[:, None]
    inside = (p_pts >= s) & (p_pts < ep[:, None]) \
        & (np.abs(p_pts - i_pts - s) <= band[:, None])
    return inside.sum(axis=1)


def _bounds(pattern, text, sp, ep):
    """``(lower, upper)`` of the Ulam distance from *pattern* to
    ``text[sp:ep]``, from an independent LIS of the window's points."""
    _, p_w = match_points(pattern, text[sp:ep])
    lis = lis_length(p_w)
    m, n = len(pattern), ep - sp
    return max(m, n) - lis, min(m + n - 2 * lis, max(m, n))


@st.composite
def _pattern_text_windows(draw):
    """A duplicate-free text, a duplicate-free pattern mixing text
    symbols (in any order) with absent ones, and windows of the text
    including the empty window, ``sp == ep`` and ``ep == n_t``."""
    n_t = draw(st.integers(0, 16))
    text = np.array(draw(st.permutations(range(n_t))), dtype=np.int64)
    shared = draw(st.lists(st.sampled_from(range(n_t)), unique=True,
                           max_size=n_t)) if n_t else []
    absent = list(range(100, 100 + draw(st.integers(0, 3))))
    pattern = np.array(draw(st.permutations(shared + absent)),
                       dtype=np.int64)
    bound = st.integers(0, n_t)
    windows = draw(st.lists(st.tuples(bound, bound).map(
        lambda w: tuple(sorted(w))), max_size=12))
    windows += [(0, n_t), (n_t, n_t), (0, 0)]
    sp = np.array([w[0] for w in windows], dtype=np.int64)
    ep = np.array([w[1] for w in windows], dtype=np.int64)
    return pattern, text, sp, ep


def _capped(m, sp, ep, index, dists, top_k):
    return TupleTable.from_columns(0, m, sp[index], ep[index],
                                   dists).capped(top_k).rows


#: ``top_k`` as a function of the window count ``W``: the smallest caps
#: and the caps around ``W``.
_TOP_K = {"1": lambda W: 1, "2": lambda W: 2, "W-2": lambda W: W - 2,
          "W-1": lambda W: W - 1, "W": lambda W: W, "W+1": lambda W: W + 1}


class TestDistanceBounds:
    @given(case=_pattern_text_windows())
    @settings(max_examples=80, deadline=None)
    def test_lis_bounds_hold(self, case):
        pattern, text, sp, ep = case
        for w_sp, w_ep in zip(sp.tolist(), ep.tolist()):
            lower, upper = _bounds(pattern, text, w_sp, w_ep)
            d = ulam_distance(pattern, text[w_sp:w_ep])
            assert lower <= d <= upper, (w_sp, w_ep, lower, d, upper)


class TestTopKPruning:
    @given(case=_pattern_text_windows(),
           pick=st.sampled_from(sorted(_TOP_K)))
    @settings(max_examples=120, deadline=None)
    def test_capped_tuples_and_charge_match_all_windows(self, case, pick):
        pattern, text, sp, ep = case
        i_pts, p_pts = match_points(pattern, text)
        m, W = len(pattern), len(sp)
        top_k = max(1, _TOP_K[pick](W))
        (all_index, all_d), *all_meter = _metered(
            lambda: ulam_windows(i_pts, p_pts, m, sp, ep))
        assert all_index.tolist() == list(range(W))
        (index, dists), *meter = _metered(
            lambda: ulam_windows(i_pts, p_pts, m, sp, ep, top_k=top_k))
        # Same work, metrics and per-window ulam_sparse charge.
        assert meter == all_meter
        # Evaluated windows keep input order and get exact distances.
        assert np.all(np.diff(index) > 0)
        assert dists.tolist() == all_d[index].tolist()
        # Either nothing is pruned or more than top_k windows survive.
        assert len(index) == W or len(index) > top_k
        np.testing.assert_array_equal(
            _capped(m, sp, ep, index, dists, top_k),
            _capped(m, sp, ep, all_index, all_d, top_k))
        # Every pruned window is provably worse than top_k evaluated
        # ones.
        pruned = np.setdiff1d(np.arange(W), index)
        if len(pruned):
            kth = sorted(dists.tolist())[top_k - 1]
            for w in pruned.tolist():
                lower = _bounds(pattern, text, int(sp[w]), int(ep[w]))[0]
                assert lower > kth

    def test_exactly_top_k_survivors_evaluates_every_window(self):
        # One exact copy (upper bound 0) and two windows of lower bound
        # 4: with top_k = 1 exactly one window survives, so none may be
        # pruned (capped leaves a one-row table unsorted) ...
        pattern = np.arange(8, dtype=np.int64)
        text = pattern.copy()
        i_pts, p_pts = match_points(pattern, text)
        sp = np.array([0, 2, 0], dtype=np.int64)
        ep = np.array([4, 6, 8], dtype=np.int64)
        index, dists = ulam_windows(i_pts, p_pts, 8, sp, ep, top_k=1)
        assert index.tolist() == [0, 1, 2]
        assert dists.tolist() == [4, 4, 0]
        # ... while a second exact copy leaves two survivors, and the
        # windows of lower bound 4 are dropped.
        sp = np.array([0, 0, 2, 0], dtype=np.int64)
        ep = np.array([4, 8, 6, 8], dtype=np.int64)
        index, dists = ulam_windows(i_pts, p_pts, 8, sp, ep, top_k=1)
        assert index.tolist() == [1, 3]
        assert dists.tolist() == [0, 0]

    def test_second_pass_prunes_or_reads_every_survivor(self):
        # [0, 4) holds 0 _ 2 3 (distance 1, bounds 1..2), [2, 6) holds
        # 2 3 _ _ (distance 4, bounds 2..4), [4, 8) no match (bounds
        # 4..4).  With top_k = 1, tau_1 = 2 keeps the first two, and
        # tau_2 = 1, the first one's distance, would leave exactly one
        # window: so both survivors are read off ...
        pattern = np.arange(4, dtype=np.int64)
        text = np.array([0, 9, 2, 3, 8, 7, 6, 5], dtype=np.int64)
        i_pts, p_pts = match_points(pattern, text)
        sp = np.array([0, 2, 4], dtype=np.int64)
        ep = np.array([4, 6, 8], dtype=np.int64)
        index, dists = ulam_windows(i_pts, p_pts, 4, sp, ep, top_k=1)
        assert index.tolist() == [0, 1]
        assert dists.tolist() == [1, 4]
        # ... while a second copy of [0, 4) (lower bound 1 <= tau_2)
        # leaves two windows, and [2, 6) is dropped.
        sp = np.array([0, 2, 4, 0], dtype=np.int64)
        ep = np.array([4, 6, 8, 4], dtype=np.int64)
        index, dists = ulam_windows(i_pts, p_pts, 4, sp, ep, top_k=1)
        assert index.tolist() == [0, 3]
        assert dists.tolist() == [1, 1]

    def test_no_top_k_or_few_windows_evaluates_every_window(self):
        pattern = np.array([3, 1, 2, 0], dtype=np.int64)
        text = np.arange(6, dtype=np.int64)
        i_pts, p_pts = match_points(pattern, text)
        sp = np.array([0, 1, 2], dtype=np.int64)
        ep = np.array([6, 5, 4], dtype=np.int64)
        for top_k in (None, 3, 5):
            index, _ = ulam_windows(i_pts, p_pts, 4, sp, ep, top_k=top_k)
            assert index.tolist() == [0, 1, 2]


def _n512_block_payload():
    """The round-1 payload of the first block of a ``perm_pair(512, 64,
    "mixed")`` query, as the default-config driver builds it."""
    s, t, _ = perm_pair(512, 64, seed=1, style="mixed")
    params = UlamParams(n=512, x=0.25, eps=0.5)
    pos_t = {v: p for p, v in enumerate(t.tolist())}
    lo, hi = 0, params.block_size
    positions = np.array([pos_t.get(v, -1) for v in s[lo:hi].tolist()],
                         dtype=np.int64)
    return cand.make_block_payload(
        lo, hi, positions, n_t=len(t), eps_prime=params.eps_prime,
        u_guesses=params.u_guesses(), theta=params.hitting_rate, seed=0,
        config=UlamConfig.default())


def _first_pass_survivors(i_pts, p_pts, m, sp, ep, top_k):
    """Windows whose LIS lower bound is at most the top_k-th smallest
    upper bound, from an independent LIS per window."""
    lower, upper = [], []
    for w_sp, w_ep in zip(sp.tolist(), ep.tolist()):
        lis = lis_length(p_pts[(p_pts >= w_sp) & (p_pts < w_ep)])
        n = w_ep - w_sp
        lower.append(max(m, n) - lis)
        upper.append(min(m + n - 2 * lis, max(m, n)))
    tau = sorted(upper)[top_k - 1]
    return sum(low <= tau for low in lower)


class TestBlockMachinePruning:
    def test_n512_machine_skips_most_windows(self, monkeypatch):
        payload = _n512_block_payload()
        real_windows = cand.ulam_windows
        real_read = ulam_mod._read_off
        calls, read = [], []

        def all_windows(*args, top_k=None, links=None):
            return real_windows(*args, links=links)

        def count_windows(*args, **kwargs):
            calls.append(args)
            return real_windows(*args, **kwargs)

        def spy_read(D, i_pts, p_pts, m, sp, ep, row, tails):
            read.append(len(sp))
            return real_read(D, i_pts, p_pts, m, sp, ep, row, tails)

        with monkeypatch.context() as patch:
            patch.setattr(cand, "ulam_windows", all_windows)
            reference = _metered(
                lambda: cand.run_block_machine(dict(payload)))
        monkeypatch.setattr(cand, "ulam_windows", count_windows)
        monkeypatch.setattr(ulam_mod, "_read_off", spy_read)
        tuples, *meter = _metered(
            lambda: cand.run_block_machine(dict(payload)))
        windows = len(calls[0][3])
        assert payload["top_k"] == 256 and windows > 256
        # The second pass reads off fewer windows than the first keeps.
        assert 2 * sum(read) <= windows, (read, windows)
        assert sum(read) < _first_pass_survivors(*calls[0], 256), read
        np.testing.assert_array_equal(tuples.rows, reference[0].rows)
        assert meter == list(reference[1:])


class TestBandCounts:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_prefix_table_equals_mask(self, data):
        n_t = data.draw(st.integers(0, 20))
        p_pts = np.array(data.draw(st.lists(
            st.integers(0, max(n_t - 1, 0)), unique=True, max_size=n_t))
            if n_t else [], dtype=np.int64)
        # Points sorted by strictly increasing i; text-sorted points with
        # unit i steps share a diagonal, so ties are common.
        if data.draw(st.booleans()):
            p_pts = np.sort(p_pts)
        steps = data.draw(st.lists(st.integers(1, 3), min_size=len(p_pts),
                                   max_size=len(p_pts)))
        i_pts = np.cumsum(np.array(steps, dtype=np.int64)) - 1
        bound = st.integers(0, n_t)
        windows = data.draw(st.lists(st.tuples(bound, bound).map(
            lambda w: tuple(sorted(w))), min_size=1, max_size=10))
        sp = np.array([w[0] for w in windows], dtype=np.int64)
        ep = np.array([w[1] for w in windows], dtype=np.int64)
        # Bands from 0 (only the exact diagonal) to beyond every offset.
        band = np.array(data.draw(st.lists(
            st.integers(0, 2 * n_t + 60), min_size=len(sp),
            max_size=len(sp))), dtype=np.int64)
        np.testing.assert_array_equal(
            ulam_mod._band_counts(i_pts, p_pts, sp, ep, band),
            reference_kept(i_pts, p_pts, sp, ep, band))

    def test_boundary_cases(self):
        empty = np.zeros(0, dtype=np.int64)
        one = np.ones(1, dtype=np.int64)
        # No points at all.
        assert ulam_mod._band_counts(empty, empty, one, 3 * one,
                                     one).tolist() == [0]
        # Every point on one diagonal (all tied); empty windows, windows
        # holding no points, and bands below and above the offsets.
        i_pts = np.arange(6, dtype=np.int64)
        p_pts = i_pts + 4
        sp = np.array([0, 3, 4, 0, 0, 10, 4, 7], dtype=np.int64)
        ep = np.array([0, 3, 10, 4, 10, 10, 10, 9], dtype=np.int64)
        for b in (0, 1, 3, 4, 5, 100):
            band = np.full(len(sp), b, dtype=np.int64)
            got = ulam_mod._band_counts(i_pts, p_pts, sp, ep, band)
            np.testing.assert_array_equal(
                got, reference_kept(i_pts, p_pts, sp, ep, band))
        assert ulam_mod._band_counts(
            i_pts, p_pts, np.array([4, 0]), np.array([10, 10]),
            np.array([0, 3])).tolist() == [6, 0]
        assert ulam_mod._band_counts(
            i_pts, p_pts, np.array([4, 0]), np.array([10, 10]),
            np.array([4, 4])).tolist() == [6, 6]
