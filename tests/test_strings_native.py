"""Batch ≡ list of scalar calls for the batched string kernels, and
one charge per kernel call for every kernel.

The sparse Ulam and banded kernels take their jobs as batches; each
scalar entry point is a batch of one, and
:mod:`repro.strings.native` runs one job on the scalar NumPy kernel and
two or more on the padded batch kernel.  Batching may only move
wall-clock: distances, abstract work, ``strings.*`` metric deltas,
kernel-profile call/cell attribution and distance-cache hit/miss
counters must equal those of the same inputs issued one scalar call at
a time.  These tests compare both on random and boundary inputs, and
check the answers against the independent exact kernels
(``levenshtein``, ``ulam_distance``, a brute-force DP).

Every kernel entry point reports through one
:class:`~repro.mpc.accounting.charge` bracket, so its registry deltas
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
from repro.metrics import scoped_snapshot
from repro.mpc import WorkMeter
from repro.mpc.distcache import DistanceCache
from repro.obs import profile as obs_profile
from repro.strings import (fitting_last_row, hamming, levenshtein,
                           levenshtein_doubling, levenshtein_doubling_batch,
                           levenshtein_script, lis_indices, lis_length,
                           local_ulam_from_matches, match_points,
                           ulam_auto, ulam_auto_batch, ulam_distance,
                           ulam_from_matches, within_threshold,
                           within_threshold_batch)
from repro.strings import native
from repro.strings.bitparallel import myers_levenshtein

from .helpers import brute_edit_distance


def _metered(fn):
    """``fn()`` under full metering; returns
    ``(result, work, metrics_delta, profile_calls_cells)``."""
    with metrics_enabled(), obs_profile.enabled():
        with scoped_snapshot() as scope, WorkMeter() as meter:
            result = fn()
    shape = {k: v[:2] for k, v in meter.kernels.items()}
    return result, meter.total, scope.delta(), shape


def _assert_batch_matches_scalars(batch, scalar, items):
    """``batch(items)`` against ``[scalar(*x) for x in items]``: same
    results, work, metric delta and profile calls/cells."""
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


def _synthetic_ulam_jobs(rng, n_jobs=25, max_pts=20):
    jobs = []
    for _ in range(n_jobs):
        c = int(rng.integers(0, max_pts))
        m = int(rng.integers(c, c + 8))
        n = int(rng.integers(c, c + 8))
        i_pts = np.sort(rng.choice(max(m, 1), size=min(c, max(m, 1)),
                                   replace=False)).astype(np.int64)
        p_pts = rng.permutation(
            np.sort(rng.choice(max(n, 1), size=len(i_pts),
                               replace=False))).astype(np.int64)
        jobs.append((i_pts, p_pts, m, n))
    return jobs


def _strings_for_matches(i_pts, p_pts, m, n):
    """Duplicate-free ``(pattern, text)`` whose match points are exactly
    ``(i_pts, p_pts)``: pattern ``0..m-1``, unmatched text slots get
    symbols no pattern position uses."""
    pattern = np.arange(m, dtype=np.int64)
    text = np.arange(m, m + n, dtype=np.int64)
    text[p_pts] = i_pts
    return pattern, text


class TestUlamBatchEquivalence:
    def test_matches_scalar(self, rng):
        jobs = _synthetic_ulam_jobs(rng)
        batch = _assert_batch_matches_scalars(ulam_auto_batch, ulam_auto,
                                              jobs)
        for job, got in zip(jobs, batch):
            assert got == ulam_distance(*_strings_for_matches(*job))

    def test_empty_jobs(self):
        empty = np.zeros(0, dtype=np.int64)
        jobs = [(empty, empty, 0, 0), (empty, empty, 3, 5)]
        batch = _assert_batch_matches_scalars(ulam_auto_batch, ulam_auto,
                                              jobs)
        assert batch == [0, 5]


_BATCHES = {
    "threshold": _threshold(2),
    "doubling": _doubling(),
    "ulam_auto": (ulam_auto_batch, ulam_auto),
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


def _cached_scalar_windows(windows, B, cache):
    """The per-window reference: one cached :func:`ulam_auto` call each."""
    out = []
    for sp, ep, i_sel, p_rel in windows:
        if cache is None:
            out.append(ulam_auto(i_sel, p_rel, B, ep - sp))
            continue
        key = ("ulam", i_sel.tobytes(), p_rel.tobytes(), B, ep - sp)
        d = cache.lookup(key)
        if d is None:
            d = ulam_auto(i_sel, p_rel, B, ep - sp)
            cache.store(key, d)
        out.append(int(d))
    return out


class TestCacheFolding:
    """Intra-batch dedupe keeps cache hit/miss counters equal to those
    of per-window cached scalar calls."""

    def _windows(self, rng):
        windows = []
        for _ in range(6):
            c = int(rng.integers(2, 10))
            i_sel = np.sort(rng.choice(16, size=c,
                                       replace=False)).astype(np.int64)
            p_rel = rng.permutation(c).astype(np.int64)
            windows.append((0, 16, i_sel, p_rel))
        # Duplicate content: repeats must be cache hits.
        windows += [windows[0], windows[2], windows[0]]
        return windows

    def _check_exact(self, windows, dists):
        for (sp, ep, i_sel, p_rel), d in zip(windows, dists):
            assert d == ulam_distance(
                *_strings_for_matches(i_sel, p_rel, 16, ep - sp))

    def test_hit_miss_counters_match(self, rng):
        windows = self._windows(rng)
        cache_s = DistanceCache()
        res_s = _metered(
            lambda: _cached_scalar_windows(windows, 16, cache_s))
        cache_b = DistanceCache()
        res_b = _metered(
            lambda: cand._window_distances(windows, 16, cache_b))
        assert res_b == res_s
        assert (cache_b.hits, cache_b.misses) == \
            (cache_s.hits, cache_s.misses)
        assert cache_b.hits == 3
        self._check_exact(windows, res_b[0])

    def test_uncached_path_matches(self, rng):
        windows = self._windows(rng)
        res_b = _metered(lambda: cand._window_distances(windows, 16, None))
        assert res_b == _metered(
            lambda: _cached_scalar_windows(windows, 16, None))
        self._check_exact(windows, res_b[0])


class TestBlockMachineEquivalence:
    def test_run_block_machine_identical(self, monkeypatch):
        from repro.ulam.config import UlamConfig
        rng = np.random.default_rng(3)
        n = 64
        positions = rng.permutation(n).astype(np.int64)
        positions[rng.choice(n, size=8, replace=False)] = -1
        payload = cand.make_block_payload(
            0, n, positions, n_t=n, eps_prime=0.25,
            u_guesses=[2, 8, 32], theta=0.3, seed=11,
            config=UlamConfig.practical())
        tuples_b, work_b, met_b, prof_b = _metered(
            lambda: cand.run_block_machine(dict(payload)))
        monkeypatch.setattr(cand, "ulam_auto_batch",
                            lambda jobs: [ulam_auto(*job) for job in jobs])
        assert _metered(lambda: cand.run_block_machine(dict(payload))) == \
            (tuples_b, work_b, met_b, prof_b)
        # Every candidate distance is the exact Ulam distance between the
        # block s[lo:hi) and its window of the target.
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

    def test_chain_dp_batch_matches_scalar(self, rng):
        jobs = _synthetic_ulam_jobs(rng, n_jobs=30)
        vals = native.chain_dp_batch(jobs)
        for job, v in zip(jobs, vals):
            # Both scalar sub-paths: Python lists and NumPy slices.
            assert v == native.np_chain_dp(*job)
            assert v == native.np_chain_dp(*job, py_cutoff=0)
            assert native.chain_dp_batch([job]) == [v]


def _word(n, seed):
    return np.random.default_rng(seed).integers(0, 4, n).astype(np.int64)


_PERM = np.random.default_rng(7).permutation(40).astype(np.int64)
_I_PTS, _P_PTS = match_points(np.arange(40, dtype=np.int64), _PERM)
_EMPTY = np.zeros(0, dtype=np.int64)

#: Every DP kernel entry point, with the work it charged to a
#: ``WorkMeter`` before charging went through one bracket: ledgers are
#: paper-facing and must not move.  The ``levenshtein`` and
#: ``fitting_last_row`` cases straddle the 96-symbol Myers cutoff, where
#: the ledger charges the full table plus the Myers scan.
_KERNEL_CALLS = {
    "within_threshold": (
        lambda: within_threshold(_word(30, 1), _word(32, 2), 6), 423),
    "ulam_auto": (lambda: ulam_auto(_I_PTS, _P_PTS, 40, 40), 1641),
    "local_ulam_matches": (
        lambda: local_ulam_from_matches(_I_PTS, _P_PTS, 40), 1601),
    "local_ulam_no_matches": (
        lambda: local_ulam_from_matches(_EMPTY, _EMPTY, 5), 1),
    "lis_length": (lambda: lis_length(_PERM), 240),
    "lis_indices": (lambda: lis_indices(_PERM), 240),
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
        lambda: myers_levenshtein(_word(70, 13), _word(80, 14)), 160),
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
