"""Batch ≡ list of scalar calls for the batched string kernels, and
one charge per kernel call for every kernel.

The banded kernels take their jobs as batches; each scalar entry point
is a batch of one, and :mod:`repro.strings.native` runs one job on the
scalar NumPy kernel and two or more on the padded batch kernel.  The
sparse Ulam kernel takes many windows of one text:
:func:`~repro.strings.ulam.ulam_windows` shares one chain-DP row per
window start, and :func:`~repro.strings.ulam.ulam_auto` is one window.
Batching may only move wall-clock: distances, abstract work,
``strings.*`` metric counts and kernel-profile call/cell attribution
must equal those of the same inputs issued one scalar call at a time.  These tests compare both on random
and boundary inputs, and check the answers against the independent
exact kernels (``levenshtein``, ``ulam_distance``, a brute-force DP).

Every kernel entry point reports through one
:class:`~repro.mpc.accounting.charge` bracket, so its metric counters
and its profile rows must agree call for call and cell for cell, while
the work ledger keeps its pinned totals (:class:`TestOneChargePerCall`).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ulam.candidates as cand
from repro.metrics import enabled as metrics_enabled
from repro.mpc import WorkMeter
from repro.obs import profile as obs_profile
from repro.strings import (fitting_last_row, hamming, levenshtein,
                           levenshtein_doubling, levenshtein_doubling_batch,
                           levenshtein_script, lis_length,
                           local_ulam_from_matches, match_points,
                           ulam_auto, ulam_distance, ulam_from_matches,
                           ulam_windows, within_threshold,
                           within_threshold_batch)
from repro.strings import native
from repro.strings.types import INF
from repro.ulam.config import UlamConfig
from repro.strings.bitparallel import myers_levenshtein

from .helpers import brute_edit_distance


def _metered(fn):
    """``fn()`` under full metering; returns
    ``(result, work, metrics, profile_calls_cells)``."""
    with metrics_enabled(), obs_profile.enabled():
        with WorkMeter() as meter:
            result = fn()
    shape = {k: v[:2] for k, v in meter.kernels.items()}
    return result, meter.total, meter.metrics, shape


def _assert_batch_matches_scalars(batch, scalar, items):
    """``batch(items)`` against ``[scalar(*x) for x in items]``: same
    results, work, metrics and profile calls/cells."""
    res_b, work_b, met_b, prof_b = _metered(lambda: batch(items))
    res_s, work_s, met_s, prof_s = _metered(
        lambda: [scalar(*x) for x in items])
    assert list(res_b) == res_s
    assert work_b == work_s
    assert met_b == met_s
    assert prof_b == prof_s
    return list(res_b)


def _threshold(tau):
    return (lambda items: within_threshold_batch(items, tau),
            lambda a, b: within_threshold(a, b, tau))


def _doubling():
    return levenshtein_doubling_batch, levenshtein_doubling


def _random_pairs(rng, n_pairs=40, max_len=24, sigma=4):
    pairs = []
    for _ in range(n_pairs):
        m, n = rng.integers(0, max_len, 2)
        pairs.append((rng.integers(0, sigma, m).astype(np.int64),
                      rng.integers(0, sigma, n).astype(np.int64)))
    return pairs


class TestThresholdBatchEquivalence:
    def test_matches_scalar_and_brute_force(self, rng):
        pairs = _random_pairs(rng)
        for tau in (0, 1, 3, 8):
            batch = _assert_batch_matches_scalars(*_threshold(tau), pairs)
            for (a, b), got in zip(pairs, batch):
                assert got == (brute_edit_distance(a.tolist(),
                                                   b.tolist()) <= tau)

    def test_boundary_pairs(self):
        empty = np.zeros(0, dtype=np.int64)
        a = np.array([1, 2, 3], dtype=np.int64)
        far = np.arange(10, dtype=np.int64)
        pairs = [(empty, empty), (empty, a), (a, empty), (a, a),
                 (far, far[:2]),       # length gap > tau: shortcut path
                 (a, a + 1)]
        for tau in (0, 2, 5):
            batch = _assert_batch_matches_scalars(*_threshold(tau), pairs)
            assert batch == [levenshtein(x, y) <= tau for x, y in pairs]

    def test_tau_at_exact_distance_boundary(self, rng):
        for _ in range(25):
            m, n = rng.integers(1, 16, 2)
            a = rng.integers(0, 3, m).astype(np.int64)
            b = rng.integers(0, 3, n).astype(np.int64)
            d = brute_edit_distance(a.tolist(), b.tolist())
            for tau in (max(d - 1, 0), d, d + 1):
                got = _assert_batch_matches_scalars(
                    *_threshold(tau), [(a, b), (b, a)])
                assert got == [d <= tau, d <= tau]


class TestDoublingBatchEquivalence:
    def test_matches_scalar_and_brute_force(self, rng):
        pairs = _random_pairs(rng, n_pairs=30, max_len=18, sigma=3)
        batch = _assert_batch_matches_scalars(*_doubling(), pairs)
        for (a, b), got in zip(pairs, batch):
            assert got == brute_edit_distance(a.tolist(), b.tolist())

    def test_empty_and_identical(self):
        empty = np.zeros(0, dtype=np.int64)
        a = np.arange(6, dtype=np.int64)
        pairs = [(empty, empty), (empty, a), (a, a), (a, a[::-1].copy())]
        batch = _assert_batch_matches_scalars(*_doubling(), pairs)
        assert batch == [0, 6, 0, levenshtein(a, a[::-1])]


class TestDoublingLowerBoundReuse:
    """The doubling loop reuses each band's value as a lower *and*
    upper bound: ``value <= k+1`` certifies immediately, and ``k``
    jumps straight to ``min(2k, value)``."""

    def test_transposition_resolved_in_one_band(self):
        # d("ab","ba") = 2: the k=1 band returns 2 = k+1, which the
        # bound argument certifies without a second, wider band.
        _, _, _, prof = _metered(lambda: levenshtein_doubling("ab", "ba"))
        assert prof["banded"][0] == 1  # exactly one banded call

    def test_disjoint_strings_jump_to_bound(self):
        # d = 40 (disjoint alphabets): successive bands learn d > k and
        # jump k to the band value instead of plain doubling, so the
        # call count stays logarithmic and the cell total is pinned.
        a = np.zeros(40, dtype=np.int64)
        b = np.ones(40, dtype=np.int64)
        d, _, _, prof = _metered(lambda: levenshtein_doubling(a, b))
        assert d == 40
        assert prof["banded"] == [7, 8807]


def _strings_for_matches(i_pts, p_pts, m, n):
    """Duplicate-free ``(pattern, text)`` whose match points are exactly
    ``(i_pts, p_pts)``: pattern ``0..m-1``, unmatched text slots get
    symbols no pattern position uses."""
    pattern = np.arange(m, dtype=np.int64)
    text = np.arange(m, m + n, dtype=np.int64)
    text[p_pts] = i_pts
    return pattern, text


def _window_points(i_pts, p_pts, sp, ep):
    """The match points of window ``[sp, ep)``, re-based to ``sp``."""
    inside = (p_pts >= sp) & (p_pts < ep)
    return i_pts[inside], p_pts[inside] - sp


def _windows_batch(i_pts, p_pts, m):
    """``(batch, scalar)`` over ``(sp, ep)`` windows of one text: the
    window kernel against one :func:`ulam_auto` call per window."""
    def batch(windows):
        return ulam_windows(i_pts, p_pts, m, [w[0] for w in windows],
                            [w[1] for w in windows])[1].tolist()

    def scalar(sp, ep):
        return ulam_auto(*_window_points(i_pts, p_pts, sp, ep), m, ep - sp)
    return batch, scalar


def _random_block(rng, m, n_t, absent=0.2):
    """Match points of a duplicate-free block of length *m* against a
    text of length *n_t*; about *absent* of the block is missing."""
    slots = rng.permutation(n_t)[:m]
    positions = np.full(m, -1, dtype=np.int64)
    keep = rng.random(len(slots)) >= absent
    positions[:len(slots)][keep] = slots[keep]
    i_pts = np.flatnonzero(positions >= 0).astype(np.int64)
    return i_pts, positions[i_pts]


def _check_windows(i_pts, p_pts, m, n_t, windows):
    """Window kernel ≡ per-window ``ulam_auto`` (answers, work, metric
    counts, profile) ≡ per-window ``ulam_distance``, charged as one
    certified banded pass per window."""
    batch, scalar = _windows_batch(i_pts, p_pts, m)
    got = _assert_batch_matches_scalars(batch, scalar, windows)
    pattern, text = _strings_for_matches(i_pts, p_pts, m, n_t)
    assert got == [ulam_distance(pattern, text[sp:ep])
                   for sp, ep in windows]
    # The charge, from an independent LIS: c_w prologue work plus
    # c_f² + 1 cells for the c_f points inside the band.
    prologue = cells = 0
    for sp, ep in windows:
        i_w, p_w = _window_points(i_pts, p_pts, sp, ep)
        n = ep - sp
        band = max(m + n - 2 * lis_length(p_w), abs(m - n), 1)
        c_f = int((np.abs(i_w - p_w) <= band).sum())
        prologue += len(i_w)
        cells += c_f * c_f + 1
    _, work, _, prof = _metered(lambda: batch(windows))
    assert work == prologue + cells
    assert prof.get("ulam_sparse", [0, 0]) == [len(windows), cells]
    return cells


class TestUlamBatchEquivalence:
    def test_matches_scalar(self, rng):
        for m, n_t in ((12, 30), (20, 20), (7, 40)):
            i_pts, p_pts = _random_block(rng, m, n_t)
            windows = [tuple(sorted(rng.integers(0, n_t + 1, 2)))
                       for _ in range(40)]
            _check_windows(i_pts, p_pts, m, n_t, windows)

    def test_band_filters_far_points(self, rng):
        # A near-identity block with a few long moves: the certified band
        # is narrow, so the moved points fall outside it and the charged
        # cells depend on each window's own LIS.
        m, n_t = 40, 48
        positions = np.arange(m, dtype=np.int64) + 4
        positions[[0, 7, 21]] = [46, 1, 44]
        positions[12] = -1
        i_pts = np.flatnonzero(positions >= 0).astype(np.int64)
        p_pts = positions[i_pts]
        windows = [(0, n_t), (4, 44), (2, 47), (6, 40), (0, 30), (5, 45),
                   (10, 48), (16, 40), (20, 48), (24, 46)]
        windows += [tuple(sorted(rng.integers(0, n_t + 1, 2)))
                    for _ in range(20)]
        cells = _check_windows(i_pts, p_pts, m, n_t, windows)
        unbanded = sum(len(_window_points(i_pts, p_pts, sp, ep)[0]) ** 2
                       + 1 for sp, ep in windows)
        assert cells < unbanded

    def test_empty_jobs(self):
        empty = np.zeros(0, dtype=np.int64)
        # No match points, an empty pattern, sp == ep, ep == n_t.
        _check_windows(empty, empty, 3, 5, [(0, 0), (0, 5), (2, 5)])
        _check_windows(empty, empty, 0, 4, [(0, 0), (1, 4)])
        i_pts = np.array([0, 2], dtype=np.int64)
        p_pts = np.array([4, 1], dtype=np.int64)
        _check_windows(i_pts, p_pts, 3, 5, [(0, 0), (5, 5), (0, 5),
                                            (2, 5), (0, 2), (1, 2)])


@st.composite
def _blocks_and_windows(draw):
    """A block with absent (``-1``) positions, a text and windows that
    include the empty window, ``sp == ep`` and ``ep == n_t``."""
    n_t = draw(st.integers(0, 18))
    m = draw(st.integers(0, 14))
    slots = draw(st.permutations(range(n_t)))
    present = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    positions = np.full(m, -1, dtype=np.int64)
    for i, (here, slot) in enumerate(zip(present, slots)):
        if here:
            positions[i] = slot
    bound = st.integers(0, n_t)
    windows = draw(st.lists(st.tuples(bound, bound).map(
        lambda w: tuple(sorted(w))), max_size=10))
    windows += [(0, n_t), (n_t, n_t), (0, 0)]
    i_pts = np.flatnonzero(positions >= 0).astype(np.int64)
    return i_pts, positions[i_pts], m, n_t, windows


class TestUlamWindowsProperty:
    @given(case=_blocks_and_windows())
    @settings(max_examples=60, deadline=None)
    def test_window_kernel_equals_per_window_calls(self, case):
        _check_windows(*case)


_BATCHES = {
    "threshold": _threshold(2),
    "doubling": _doubling(),
    "ulam_auto": _windows_batch(np.zeros(0, dtype=np.int64),
                                np.zeros(0, dtype=np.int64), 4),
}


class TestBatchSizes:
    """The size-based scalar/batch choice at its two small ends."""

    @pytest.mark.parametrize("name", sorted(_BATCHES))
    def test_empty_batch_charges_nothing(self, name):
        batch, _ = _BATCHES[name]
        assert _metered(lambda: batch([])) == ([], 0, {}, {})

    @pytest.mark.parametrize("k", [0, 1, 3, 8])
    def test_banded_batch_of_one_closed_form_cells(self, rng, k):
        a = rng.integers(0, 4, 12).astype(np.int64)
        b = rng.integers(0, 4, 12 + min(k, 2)).astype(np.int64)
        cells = (2 * k + 1) * len(a) + len(b) + 1
        got, work, met, prof = _metered(
            lambda: within_threshold_batch([(a, b)], k))
        assert got == [levenshtein(a, b) <= k]
        assert work == cells
        assert prof == {"banded": [1, cells]}
        assert {key: v["value"] for key, v in met.items()
                if "banded" in key} == {
            'strings.dp_cells{kernel=banded}': cells,
            'strings.kernel_calls{kernel=banded}': 1}

    @pytest.mark.parametrize("c", [0, 1, 5, 40, 120])
    def test_sparse_batch_of_one_closed_form_cells(self, rng, c):
        m = n = c + 7
        i_pts = np.sort(rng.choice(m, size=c, replace=False))
        p_pts = np.sort(rng.choice(n, size=c, replace=False))
        got, work, met, prof = _metered(
            lambda: ulam_from_matches(i_pts, p_pts, m, n))
        assert got == ulam_distance(*_strings_for_matches(i_pts, p_pts,
                                                          m, n))
        assert work == c * c + 1
        assert prof == {"ulam_sparse": [1, c * c + 1]}
        assert {key: v["value"] for key, v in met.items()
                if "ulam_sparse" in key} == {
            'strings.dp_cells{kernel=ulam_sparse}': c * c + 1,
            'strings.kernel_calls{kernel=ulam_sparse}': 1}


def _per_window_ulam(i_pts, p_pts, m, sp, ep, top_k=None, links=None):
    """Stand-in for ``ulam_windows`` in the block machine: one
    :func:`ulam_auto` call per window, on the window's match points
    re-based to its start.  Ignores *top_k*, so every window is
    evaluated and the machine's cap runs on the full table, and the
    machine's *links*, so each window's predecessors are its own."""
    out = []
    for w_sp, w_ep in zip(sp.tolist(), ep.tolist()):
        inside = (p_pts >= w_sp) & (p_pts < w_ep)
        out.append(ulam_auto(i_pts[inside], p_pts[inside] - w_sp, m,
                             w_ep - w_sp))
    return np.arange(len(sp)), np.array(out, dtype=np.int64)


def _block_payload(config, n=64, seed=11):
    rng = np.random.default_rng(3)
    positions = rng.permutation(n).astype(np.int64)
    positions[rng.choice(n, size=8, replace=False)] = -1
    payload = cand.make_block_payload(
        0, n, positions, n_t=n, eps_prime=0.25,
        u_guesses=[2, 8, 32], theta=0.3, seed=seed, config=config)
    return payload, positions


class TestBlockMachineMetering:
    """The block machine's batched window evaluation keeps work and
    metering equal to those of per-window scalar calls."""

    def test_per_window_path_matches(self, monkeypatch):
        payload, _ = _block_payload(UlamConfig.practical())
        res_b = _metered(lambda: cand.run_block_machine(dict(payload)))
        monkeypatch.setattr(cand, "ulam_windows", _per_window_ulam)
        assert _metered(
            lambda: cand.run_block_machine(dict(payload))) == res_b


class TestBlockMachineEquivalence:
    def test_run_block_machine_identical(self, monkeypatch):
        n = 64
        for config in (UlamConfig.paper(), UlamConfig.default(),
                       UlamConfig.practical()):
            payload, positions = _block_payload(config, n=n)
            with monkeypatch.context() as patch:
                patch.setattr(cand, "ulam_windows", _per_window_ulam)
                reference = _metered(
                    lambda: cand.run_block_machine(dict(payload)))
            tuples_b, work_b, met_b, prof_b = _metered(
                lambda: cand.run_block_machine(dict(payload)))
            assert (tuples_b, work_b, met_b, prof_b) == reference
            # Every candidate distance is the exact Ulam distance between
            # the block s[lo:hi) and its window of the target.
            s = np.arange(n, dtype=np.int64)
            t = np.arange(n, 2 * n, dtype=np.int64)
            present = positions >= 0
            t[positions[present]] = s[present]
            assert tuples_b
            for lo, hi, sp, ep, d in tuples_b:
                assert d == ulam_distance(s[lo:hi], t[sp:ep])


class TestMyersMultiWord:
    def test_distance_at_word_boundaries(self, rng):
        from repro.strings.bitparallel import myers_levenshtein
        for m in (63, 64, 65, 128, 129):
            a = rng.integers(0, 4, m).astype(np.int64)
            b = a.copy()
            b[m // 2] = 7
            assert myers_levenshtein(a, b) == \
                brute_edit_distance(a.tolist(), b.tolist())


short = st.lists(st.integers(0, 3), min_size=0, max_size=16)


class TestBackendProperties:
    @given(a=short, b=short, tau=st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_threshold_batch_property(self, a, b, tau):
        aa = np.array(a, dtype=np.int64)
        bb = np.array(b, dtype=np.int64)
        got = _assert_batch_matches_scalars(*_threshold(tau),
                                            [(aa, bb), (bb, aa)])
        d = brute_edit_distance(a, b)
        assert got == [d <= tau, d <= tau]

    @given(a=short, b=short)
    @settings(max_examples=40, deadline=None)
    def test_doubling_batch_property(self, a, b):
        aa = np.array(a, dtype=np.int64)
        bb = np.array(b, dtype=np.int64)
        got = _assert_batch_matches_scalars(*_doubling(),
                                            [(aa, bb), (bb, aa)])
        assert got == [brute_edit_distance(a, b)] * 2


class TestNumPyKernelPrimitives:
    """The scalar and padded batch kernels behind both entry points."""

    def test_banded_values_batch_matches_scalar(self, rng):
        pairs = []
        for _ in range(30):
            m = int(rng.integers(1, 20))
            n = int(np.clip(m + rng.integers(-4, 5), 1, None))
            pairs.append((rng.integers(0, 4, m).astype(np.int64),
                          rng.integers(0, 4, n).astype(np.int64)))
        for k in (4, 7, 21):
            good = [(a, b) for a, b in pairs if abs(len(a) - len(b)) <= k]
            vals = native.banded_values_batch(good, k)
            for (a, b), v in zip(good, vals):
                assert v == native.np_banded_value(a, b, k)
                assert native.banded_values_batch([(a, b)], k) == [v]

    def test_chain_tables_match_scalar(self, rng):
        for _ in range(20):
            m, n_t = int(rng.integers(1, 16)), int(rng.integers(1, 24))
            i_pts, p_pts = _random_block(rng, m, n_t)
            starts = np.arange(n_t + 1, dtype=np.int64)
            D = native.chain_table(i_pts, p_pts, starts)
            L = native.lis_table(i_pts, p_pts, starts)
            # The predecessor/gap list against the brute formula, and a
            # supplied list gives the same tables.
            links = native.predecessors(i_pts, p_pts)
            preds, gaps = links
            assert [pred.tolist() for pred in preds] == [
                [k for k in range(j) if p_pts[k] < p_pts[j]]
                for j in range(len(p_pts))]
            assert [gap.tolist() for gap in gaps] == [
                [max(i_pts[j] - i_pts[k], p_pts[j] - p_pts[k]) - 1
                 for k in pred.tolist()] for j, pred in enumerate(preds)]
            np.testing.assert_array_equal(
                native.chain_table(i_pts, p_pts, starts, links), D)
            np.testing.assert_array_equal(
                native.lis_table(i_pts, p_pts, starts, links), L)
            # LIS rows are shared per point set: starts repeated and in
            # any order still read their own rows.
            mixed = rng.integers(0, n_t + 1, 12)
            np.testing.assert_array_equal(
                native.lis_table(i_pts, p_pts, mixed), L[mixed])
            for sp in starts.tolist():
                # Python double loop over the point set {p >= sp}.
                for j, (ij, pj) in enumerate(zip(i_pts, p_pts)):
                    if pj < sp:
                        assert (D[sp, j], L[sp, j]) == (INF, 0)
                        continue
                    preds = [k for k in range(j) if sp <= p_pts[k] < pj]
                    assert D[sp, j] == min(
                        [max(ij, pj - sp)]
                        + [D[sp, k] + max(ij - i_pts[k] - 1,
                                          pj - p_pts[k] - 1)
                           for k in preds])
                    assert L[sp, j] == 1 + max([L[sp, k] for k in preds],
                                               default=0)
                # A window [sp, ep) reads row sp: its exact distance is
                # the cheapest chain plus boundary cost.
                pattern, text = _strings_for_matches(i_pts, p_pts, m, n_t)
                for ep in range(sp, n_t + 1):
                    inside = (p_pts >= sp) & (p_pts < ep)
                    tails = np.maximum(m - 1 - i_pts, ep - 1 - p_pts)
                    best = min([max(m, ep - sp)]
                               + (D[sp] + tails)[inside].tolist())
                    assert best == ulam_distance(pattern, text[sp:ep])
        # No points: empty lists and one empty row per start.
        empty = np.zeros(0, dtype=np.int64)
        assert native.predecessors(empty, empty) == ([], [])
        assert native.lis_table(empty, empty, starts).shape == \
            (len(starts), 0)


def _word(n, seed):
    return np.random.default_rng(seed).integers(0, 4, n).astype(np.int64)


_PERM = np.random.default_rng(7).permutation(40).astype(np.int64)
_I_PTS, _P_PTS = match_points(np.arange(40, dtype=np.int64), _PERM)
_EMPTY = np.zeros(0, dtype=np.int64)

#: Every DP kernel entry point, with the work it charged to a
#: ``WorkMeter`` before charging went through one bracket: ledgers are
#: paper-facing and must not move.  The ``levenshtein`` and
#: ``fitting_last_row`` cases straddle the 96-symbol pattern length from
#: which the ledger charges the full table plus the Myers scan;
#: ``myers_levenshtein`` charges the same as ``levenshtein``.
_KERNEL_CALLS = {
    "within_threshold": (
        lambda: within_threshold(_word(30, 1), _word(32, 2), 6), 423),
    "ulam_auto": (lambda: ulam_auto(_I_PTS, _P_PTS, 40, 40), 1641),
    "local_ulam_matches": (
        lambda: local_ulam_from_matches(_I_PTS, _P_PTS, 40), 1601),
    "local_ulam_no_matches": (
        lambda: local_ulam_from_matches(_EMPTY, _EMPTY, 5), 1),
    "lis_length": (lambda: lis_length(_PERM), 240),
    "levenshtein_short": (
        lambda: levenshtein(_word(40, 3), _word(50, 4)), 2000),
    "levenshtein_myers": (
        lambda: levenshtein(_word(120, 5), _word(130, 6)), 15860),
    "levenshtein_empty": (lambda: levenshtein(_EMPTY, _word(9, 7)), 9),
    "fitting_short": (
        lambda: fitting_last_row(_word(20, 8), _word(60, 9)), 1200),
    "fitting_myers": (
        lambda: fitting_last_row(_word(100, 10), _word(150, 11)), 15300),
    "fitting_empty": (lambda: fitting_last_row(_EMPTY, _word(9, 12)), 9),
    "myers_levenshtein": (
        lambda: myers_levenshtein(_word(70, 13), _word(80, 14)), 5600),
    "levenshtein_script": (
        lambda: levenshtein_script(_word(12, 15), _word(14, 16)), 168),
    "hamming": (lambda: hamming(_word(25, 17), _word(25, 18)), 25),
}


class TestOneChargePerCall:
    """The registry and the profile are two views of one charge."""

    @pytest.mark.parametrize("name", sorted(_KERNEL_CALLS))
    def test_registry_profile_and_ledger_agree(self, name):
        fn, ledger_work = _KERNEL_CALLS[name]
        _, work, met, prof = _metered(fn)
        registry = {}
        for key, val in met.items():
            metric, kernel = key[:-1].split("{kernel=")
            slot = 0 if metric == "strings.kernel_calls" else 1
            registry.setdefault(kernel, [0, 0])[slot] += val["value"]
        assert registry == prof
        assert work == ledger_work
