"""Tests for Myers' lane-packed bit-parallel last-row kernel."""

import numpy as np
import pytest

from repro.strings import (fitting_last_row, levenshtein,
                           levenshtein_last_row, myers_fitting_row,
                           myers_last_row, myers_last_rows,
                           myers_levenshtein)
from repro.strings.bitparallel import _eq_words
from repro.strings.edit_distance import _wf_table

from .helpers import brute_edit_distance, joined_bytes_eq_words
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

    @pytest.mark.parametrize("m", [m for m in _M if m])
    def test_eq_table_matches_joined_bytes_builder(self, m):
        rng = np.random.default_rng(2000 + m)
        for K, lo, hi in ((2, 0, 4), (int(rng.integers(3, 41)), 0, 4),
                          (7, -3, 50)):
            p = rng.integers(lo, hi, m)
            texts = [t + lo for t in _ragged_texts(rng, K)]
            ncols, nbytes = max(len(t) for t in texts), m // 8 + 1
            assert (list(_eq_words(p, texts, ncols, nbytes))
                    == joined_bytes_eq_words(p, texts, ncols, nbytes))

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
            assert myers_last_row(a, b).tolist() == \
                [brute_edit_distance(a, b[:j]) for j in range(len(b) + 1)]

    def test_fitting_row_matches_reference(self, rng):
        for _ in range(80):
            a = rng.integers(0, 4, int(rng.integers(0, 15))).tolist()
            b = rng.integers(0, 4, int(rng.integers(0, 15))).tolist()
            assert myers_fitting_row(a, b).tolist() == _free_start_row(a, b)

    def test_long_pattern_rows(self, rng):
        a = rng.integers(0, 4, 150)
        b = rng.integers(0, 4, 200)
        assert np.array_equal(myers_last_row(a, b),
                              levenshtein_last_row(a, b))
        assert np.array_equal(myers_last_row(a, b), _wf_table(a, b)[-1])
        assert np.array_equal(myers_fitting_row(a, b),
                              fitting_last_row(a, b))
