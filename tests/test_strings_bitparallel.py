"""Tests for Myers' lane-packed bit-parallel last-row kernel."""

import numpy as np
import pytest

from repro.strings import (fitting_last_row, levenshtein,
                           levenshtein_last_row, myers_last_rows,
                           myers_levenshtein)
from repro.strings.edit_distance import _wf_table

from .helpers import brute_edit_distance
from .test_strings_native import _metered


def _free_start_row(p, t):
    """Pure-Python fitting DP: ``D[0][j] = 0``, last row returned."""
    row = [0] * (len(t) + 1)
    for i, pc in enumerate(p, start=1):
        cur = [i]
        for j, tc in enumerate(t, start=1):
            cur.append(min(row[j - 1] + (pc != tc), row[j] + 1,
                           cur[j - 1] + 1))
        row = cur
    return row


def _ragged_texts(rng, K, max_len=60):
    """K texts over {0..5} (the patterns use {0..3}, so 4 and 5 occur
    in no pattern), about one in six of them empty."""
    return [rng.integers(0, 6, 0 if rng.random() < 1 / 6
                         else int(rng.integers(1, max_len)))
            for _ in range(K)]


#: Pattern lengths: empty, sub-byte, byte and 64-bit word edges, the
#: former 96-symbol NumPy/Myers cutoff, and a long pattern.
_M = (0, 1, 2, 7, 8, 9, 31, 63, 64, 65, 95, 96, 97, 128, 200)


class TestLanePackedKernel:
    @pytest.mark.parametrize("m", _M)
    def test_global_rows_match_script_table(self, m):
        rng = np.random.default_rng(m)
        for K in (1, 2, int(rng.integers(3, 41)), 40):
            p = rng.integers(0, 4, m)
            texts = _ragged_texts(rng, K)
            rows = myers_last_rows(p, texts)
            assert len(rows) == K
            for t, row in zip(texts, rows):
                assert row.tolist() == _wf_table(p, t)[-1].tolist()

    @pytest.mark.parametrize("m", _M)
    def test_fitting_rows_match_free_start_dp(self, m):
        rng = np.random.default_rng(1000 + m)
        for K in (1, int(rng.integers(2, 41))):
            p = rng.integers(0, 4, m)
            texts = _ragged_texts(rng, K, max_len=40)
            rows = myers_last_rows(p, texts, fitting=True)
            for t, row in zip(texts, rows):
                assert row.tolist() == _free_start_row(p.tolist(),
                                                       t.tolist())

    def test_no_text_symbol_in_pattern(self):
        p = np.array([1, 2, 3, 1, 2], dtype=np.int64)
        texts = [np.full(n, 9, dtype=np.int64) for n in (0, 3, 5, 8)]
        for row, t in zip(myers_last_rows(p, texts), texts):
            assert row.tolist() == [max(5, j) for j in range(len(t) + 1)]
        for row, t in zip(myers_last_rows(p, texts, fitting=True), texts):
            assert row.tolist() == [5] * (len(t) + 1)

    def test_empty_batch(self):
        assert myers_last_rows([1, 2, 3], []) == []

    @pytest.mark.parametrize("fitting", [False, True])
    @pytest.mark.parametrize("m", (0, 38, 95, 96, 97, 181))
    def test_metering_is_the_per_lane_sum(self, m, fitting):
        """One batch charges what its lanes charge as batches of one:
        ledger, ``strings.dp_cells`` / ``strings.kernel_calls`` and the
        profile."""
        rng = np.random.default_rng(m)
        p = rng.integers(0, 4, m)
        texts = _ragged_texts(rng, 33, max_len=200)
        rows_b, work_b, met_b, prof_b = _metered(
            lambda: myers_last_rows(p, texts, fitting=fitting))
        rows_s, work_s, met_s, prof_s = _metered(
            lambda: [myers_last_rows(p, [t], fitting=fitting)[0]
                     for t in texts])
        assert [r.tolist() for r in rows_b] == [r.tolist() for r in rows_s]
        assert (work_b, met_b, prof_b) == (work_s, met_s, prof_s)
        assert set(prof_b) == {"bitparallel"}
        assert prof_b["bitparallel"][0] == 33

    @pytest.mark.parametrize("m, n, cells", [
        (0, 9, 9), (9, 0, 9), (0, 0, 1), (38, 40, 1520), (95, 100, 9500),
        (96, 100, 9600 + 200), (96, 7, 672), (181, 196, 35476 + 588)])
    def test_ledger_cells(self, m, n, cells):
        """The full table, plus the Myers scan at m >= 96, n >= 8."""
        _, work, _, prof = _metered(
            lambda: levenshtein_last_row(np.zeros(m, np.int64),
                                         np.ones(n, np.int64)))
        assert work == cells
        assert prof == {"bitparallel": [1, cells]}


#: Longest text of a batch at the lane-width edges: a lane is
#: ``W = 8·(n//8 + 1)`` bits, so 7/8/9 and 15/16 straddle a byte and
#: 63–65 and 127–129 a 64-bit word.
_N = (0, 1, 7, 8, 9, 15, 16, 63, 64, 65, 127, 128, 129)


def _assert_lanes(p, texts, fitting):
    rows = myers_last_rows(p, texts, fitting=fitting)
    assert len(rows) == len(texts)
    for t, row in zip(texts, rows):
        want = (_free_start_row(p.tolist(), t.tolist()) if fitting
                else _wf_table(p, t)[-1].tolist())
        assert row.tolist() == want, (len(p), len(t))


@pytest.mark.parametrize("fitting", [False, True])
@pytest.mark.parametrize("n", _N)
class TestLaneWidthEdges:
    def test_ragged_lanes_over_small_alphabets(self, n, fitting):
        """Lanes of every length up to *n*, one of them exactly *n* and
        one empty; alphabets of 1, 2, 4 and 26 symbols, texts also
        drawing two symbols no pattern has; patterns from empty to
        longer than every text."""
        rng = np.random.default_rng(n)
        for sigma in (1, 2, 4, 26):
            for m in sorted({0, 1, n // 2 + 1, n + 5}):
                p = rng.integers(0, sigma, m)
                lens = [n, 0] + rng.integers(
                    0, n + 1, int(rng.integers(0, 5))).tolist()
                texts = [rng.integers(0, sigma + 2, k)
                         for k in rng.permutation(lens).tolist()]
                _assert_lanes(p, texts, fitting)

    def test_permutations(self, n, fitting):
        """All-distinct alphabets: one Eq word per pattern symbol, each
        with at most one bit per lane."""
        rng = np.random.default_rng(100 + n)
        for m in sorted({1, n // 2 + 1, n, n + 3}):
            p = rng.permutation(n + 3)[:m]
            texts = [rng.permutation(n + 3)[:k]
                     for k in (n, 0, n // 2, max(n - 1, 0))]
            _assert_lanes(p, texts, fitting)

    def test_pattern_symbols_in_no_text(self, n, fitting):
        """Half the pattern's symbols occur in no text: their Eq words
        are zero in every lane."""
        rng = np.random.default_rng(200 + n)
        p = rng.integers(0, 4, n + 2)
        p[::2] = 1000 + np.arange(len(p[::2]))
        texts = [rng.integers(0, 4, k) for k in (n, n // 3, 0)]
        _assert_lanes(p, texts, fitting)

    def test_pattern_longer_than_every_text(self, n, fitting):
        rng = np.random.default_rng(300 + n)
        p = rng.integers(0, 3, 2 * n + 7)
        texts = [rng.integers(0, 3, k) for k in (n, max(n - 8, 0), 1)]
        _assert_lanes(p, texts, fitting)


class TestMyersLevenshtein:
    def test_against_brute_force(self, rng):
        for _ in range(150):
            m, n = rng.integers(0, 20, 2)
            a = rng.integers(0, 5, m).tolist()
            b = rng.integers(0, 5, n).tolist()
            assert myers_levenshtein(a, b) == brute_edit_distance(a, b)

    def test_paper_example(self):
        assert myers_levenshtein("elephant", "relevant") == 3

    def test_empty_sides(self):
        assert myers_levenshtein([], [1, 2]) == 2
        assert myers_levenshtein([1, 2], []) == 2
        assert myers_levenshtein([], []) == 0

    def test_crosses_word_boundary(self, rng):
        # patterns longer than 64 exercise the multi-word bigint path
        for m in (63, 64, 65, 130, 257):
            a = rng.integers(0, 4, m).tolist()
            b = rng.integers(0, 4, m + 7).tolist()
            assert myers_levenshtein(a, b) == levenshtein(a, b)

    def test_unicode(self):
        assert myers_levenshtein("naïve", "naive") == 1

    @pytest.mark.parametrize("m, n", [(0, 5), (70, 80), (120, 130)])
    def test_meters_like_levenshtein(self, m, n):
        rng = np.random.default_rng(m)
        a, b = rng.integers(0, 4, m), rng.integers(0, 4, n)
        _, work_m, met_m, prof_m = _metered(lambda: myers_levenshtein(a, b))
        _, work_l, met_l, prof_l = _metered(lambda: levenshtein(a, b))
        assert work_m == work_l == max(m, 1) * n + (
            n * (1 + m // 64) if m >= 96 else 0)
        assert met_m == met_l
        assert prof_m == prof_l


class TestMyersRows:
    def test_last_row_matches_reference(self, rng):
        for _ in range(80):
            a = rng.integers(0, 4, int(rng.integers(0, 15))).tolist()
            b = rng.integers(0, 4, int(rng.integers(0, 15))).tolist()
            assert levenshtein_last_row(a, b).tolist() == \
                [brute_edit_distance(a, b[:j]) for j in range(len(b) + 1)]

    def test_fitting_row_matches_reference(self, rng):
        for _ in range(80):
            a = rng.integers(0, 4, int(rng.integers(0, 15))).tolist()
            b = rng.integers(0, 4, int(rng.integers(0, 15))).tolist()
            assert fitting_last_row(a, b).tolist() == _free_start_row(a, b)

    def test_long_pattern_rows(self, rng):
        a = rng.integers(0, 4, 150)
        b = rng.integers(0, 4, 200)
        assert np.array_equal(levenshtein_last_row(a, b),
                              _wf_table(a, b)[-1])
        assert fitting_last_row(a, b).tolist() == _free_start_row(a, b)
