"""Unit tests for partitioning helpers."""

import pytest

from repro.mpc import blocks, chunk


class TestBlocks:
    def test_exact_division(self):
        assert blocks(8, 4) == [(0, 4), (4, 8)]

    def test_remainder_absorbed_by_last_block(self):
        assert blocks(10, 4) == [(0, 4), (4, 8), (8, 10)]

    def test_single_block(self):
        assert blocks(3, 10) == [(0, 3)]

    def test_empty(self):
        assert blocks(0, 4) == []

    def test_covers_range_without_overlap(self):
        bs = blocks(97, 13)
        assert bs[0][0] == 0 and bs[-1][1] == 97
        for (a, b), (c, d) in zip(bs, bs[1:]):
            assert b == c and a < b

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            blocks(-1, 4)
        with pytest.raises(ValueError):
            blocks(4, 0)


class TestChunk:
    def test_chunks(self):
        assert list(chunk([1, 2, 3, 4, 5], 2)) == [[1, 2], [3, 4], [5]]

    def test_empty(self):
        assert list(chunk([], 3)) == []

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            list(chunk([1], 0))
