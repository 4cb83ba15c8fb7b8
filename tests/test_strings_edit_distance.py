"""Unit tests for the exact edit-distance kernels."""

import numpy as np
import pytest

from repro.strings import (levenshtein, levenshtein_last_row,
                           levenshtein_script)
from repro.mpc import WorkMeter

from .helpers import brute_edit_distance


class TestKnownValues:
    def test_paper_example(self):
        # §2 of the paper: ed("elephant", "relevant") = 3
        assert levenshtein("elephant", "relevant") == 3

    def test_identity(self):
        assert levenshtein("kitten", "kitten") == 0

    def test_classic_kitten_sitting(self):
        assert levenshtein("kitten", "sitting") == 3

    def test_empty_vs_empty(self):
        assert levenshtein("", "") == 0

    def test_empty_vs_nonempty(self):
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "") == 3

    def test_single_substitution(self):
        assert levenshtein([1, 2, 3], [1, 9, 3]) == 1

    def test_disjoint_alphabets(self):
        assert levenshtein([1, 2, 3], [4, 5, 6]) == 3


class TestAgainstBruteForce:
    def test_random_small_strings(self, rng):
        for _ in range(150):
            m, n = rng.integers(0, 11, 2)
            a = rng.integers(0, 4, m).tolist()
            b = rng.integers(0, 4, n).tolist()
            assert levenshtein(a, b) == brute_edit_distance(a, b)

    def test_binary_alphabet(self, rng):
        for _ in range(50):
            a = rng.integers(0, 2, 9).tolist()
            b = rng.integers(0, 2, 9).tolist()
            assert levenshtein(a, b) == brute_edit_distance(a, b)


class TestLastRow:
    def test_row_entries_are_prefix_distances(self, rng):
        a = rng.integers(0, 3, 6).tolist()
        b = rng.integers(0, 3, 8).tolist()
        row = levenshtein_last_row(a, b)
        for j in range(len(b) + 1):
            assert row[j] == brute_edit_distance(a, b[:j])

    def test_empty_pattern_row(self):
        row = levenshtein_last_row([], [1, 2, 3])
        assert row.tolist() == [0, 1, 2, 3]


class TestScript:
    def test_script_length_equals_distance(self, rng):
        for _ in range(30):
            a = rng.integers(0, 4, int(rng.integers(0, 9))).tolist()
            b = rng.integers(0, 4, int(rng.integers(0, 9))).tolist()
            d, ops = levenshtein_script(a, b)
            assert d == brute_edit_distance(a, b)
            assert len(ops) == d

    def test_script_replays_to_target(self, rng):
        for _ in range(30):
            a = rng.integers(0, 4, int(rng.integers(0, 9))).tolist()
            b = rng.integers(0, 4, int(rng.integers(0, 9))).tolist()
            _, ops = levenshtein_script(a, b)
            out = list(a)
            shift = 0  # tracks index displacement caused by indels
            for kind, i, j in ops:
                if kind == "substitute":
                    out[i + shift] = b[j]
                elif kind == "delete":
                    del out[i + shift]
                    shift -= 1
                else:  # insert
                    out.insert(i + shift, b[j])
                    shift += 1
            assert out == list(b)


class TestHamming:
    def test_upper_bounds_levenshtein(self, rng):
        for _ in range(30):
            a = rng.integers(0, 3, 8).tolist()
            b = rng.integers(0, 3, 8).tolist()
            assert levenshtein(a, b) <= sum(x != y for x, y in zip(a, b))


class TestWorkAccounting:
    def test_levenshtein_charges_quadratic_work(self):
        with WorkMeter() as m:
            levenshtein(list(range(10)), list(range(20)))
        assert m.total >= 200


class TestInputValidation:
    def test_rejects_2d_arrays(self):
        with pytest.raises(ValueError):
            levenshtein(np.zeros((2, 2), dtype=np.int64), [1])

    def test_rejects_float_arrays(self):
        # Floats and digit strings are not truncated or parsed: a list
        # goes through the same dtype check as an array.
        for bad in (np.array([1.5]), [1.5], ["1", "2"]):
            with pytest.raises(TypeError):
                levenshtein(bad, [1])

    def test_unicode_round_trip(self):
        assert levenshtein("naïve", "naive") == 1
