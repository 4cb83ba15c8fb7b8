"""Unit tests for LIS and LCS kernels."""

import numpy as np
import pytest

from repro.strings import lcs_length_duplicate_free, lis_length, position_map

from .helpers import brute_lcs_length, brute_lis_length


class TestLisLength:
    def test_known_case(self):
        assert lis_length([3, 1, 4, 1, 5, 9, 2, 6]) == 4

    def test_sorted_sequence(self):
        assert lis_length(list(range(10))) == 10

    def test_reversed_sequence(self):
        assert lis_length(list(range(10))[::-1]) == 1

    def test_empty(self):
        assert lis_length([]) == 0

    def test_strict_vs_nonstrict_on_ties(self):
        assert lis_length([2, 2, 2], strict=True) == 1
        assert lis_length([2, 2, 2], strict=False) == 3

    def test_against_brute_force(self, rng):
        for _ in range(100):
            n = int(rng.integers(0, 15))
            seq = rng.integers(0, 10, n).tolist()
            assert lis_length(seq) == brute_lis_length(seq)


class TestLcsDuplicateFree:
    def test_matches_general_lcs_on_permutations(self, rng):
        for _ in range(80):
            m = int(rng.integers(0, 12))
            n = int(rng.integers(0, 12))
            a = rng.permutation(20)[:m].tolist()
            b = rng.permutation(20)[:n].tolist()
            assert lcs_length_duplicate_free(a, b) == brute_lcs_length(a, b)

    def test_rejects_duplicates_in_first_arg(self):
        with pytest.raises(ValueError):
            lcs_length_duplicate_free([1, 1], [1, 2])

    def test_rejects_duplicates_in_second_arg(self):
        with pytest.raises(ValueError):
            lcs_length_duplicate_free([1, 2], [3, 3])


class TestPositionMap:
    def test_maps_symbols_to_positions(self):
        assert position_map([7, 3, 9]) == {7: 0, 3: 1, 9: 2}

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="repeats"):
            position_map([1, 2, 1])

    def test_empty(self):
        assert position_map(np.array([], dtype=np.int64)) == {}
