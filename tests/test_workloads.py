"""Unit tests for the workload generators."""

import numpy as np
import pytest

from repro.strings import is_duplicate_free, levenshtein, ulam_distance
from repro.workloads import genome, permutations, strings

from .helpers import repetitive_string


class TestPermutations:
    def test_random_permutation_is_permutation(self):
        p = permutations.random_permutation(50, seed=1)
        assert sorted(p.tolist()) == list(range(50))

    def test_deterministic_under_seed(self):
        a = permutations.random_permutation(20, seed=7)
        b = permutations.random_permutation(20, seed=7)
        assert np.array_equal(a, b)

    def test_moves_preserve_symbol_set(self):
        p = permutations.random_permutation(30, seed=2)
        q = permutations.apply_moves(p, 5, seed=3)
        assert sorted(q.tolist()) == sorted(p.tolist())

    def test_moves_respect_budget(self):
        p = permutations.random_permutation(40, seed=2)
        q = permutations.apply_moves(p, 4, seed=3)
        assert ulam_distance(p, q) <= 8  # each move costs at most 2

    def test_swaps_respect_budget(self):
        p = permutations.random_permutation(40, seed=2)
        q = permutations.apply_value_swaps(p, 4, seed=3)
        assert ulam_distance(p, q) <= 8

    def test_planted_pair_distance_bound(self):
        for style in ("moves", "swaps", "mixed"):
            s, t, ub = permutations.planted_pair(64, 6, seed=5, style=style)
            assert is_duplicate_free(s) and is_duplicate_free(t)
            assert ulam_distance(s, t) <= ub

    def test_planted_pair_zero_budget(self):
        s, t, ub = permutations.planted_pair(32, 0, seed=5)
        assert np.array_equal(s, t) and ub == 0

    def test_unknown_style_raises(self):
        with pytest.raises(ValueError):
            permutations.planted_pair(32, 2, style="nope")

    def test_block_shuffled_pair_is_permutation_pair(self):
        s, t = permutations.block_shuffled_pair(60, 6, seed=1)
        assert sorted(s.tolist()) == sorted(t.tolist())
        assert is_duplicate_free(t)


class TestStrings:
    def test_random_string_alphabet(self):
        s = strings.random_string(100, sigma=3, seed=1)
        assert s.min() >= 0 and s.max() < 3

    def test_mutate_respects_budget(self):
        s = strings.random_string(80, sigma=4, seed=1)
        t = strings.mutate(s, 7, seed=2)
        assert levenshtein(s, t) <= 7

    def test_planted_pair(self):
        s, t, ub = strings.planted_pair(100, 9, sigma=4, seed=3)
        assert levenshtein(s, t) <= ub == 9

    def test_repetitive_string_periodicity(self):
        s = repetitive_string(20, period=4, seed=1)
        assert np.array_equal(s[:4], s[4:8])
        assert len(s) == 20

    def test_repetitive_invalid_period(self):
        with pytest.raises(ValueError):
            repetitive_string(10, period=0)

    def test_block_shuffled_preserves_multiset(self):
        s, t = strings.block_shuffled_pair(64, 8, sigma=4, seed=2)
        assert sorted(s.tolist()) == sorted(t.tolist())

    def test_invalid_alphabet(self):
        with pytest.raises(ValueError):
            strings.random_string(10, sigma=0)


class TestGenome:
    def test_alphabet_is_dna(self):
        g = genome.random_genome(200, seed=1)
        assert g.min() >= 0 and g.max() <= 3

    def test_gc_content_roughly_respected(self):
        g = genome.random_genome(20_000, gc_content=0.6, seed=1)
        gc = np.isin(g, [1, 2]).mean()
        assert 0.55 < gc < 0.65

    def test_gc_content_validated(self):
        with pytest.raises(ValueError):
            genome.random_genome(10, gc_content=1.5)

    def test_evolve_budget_bounds_distance(self):
        s = genome.random_genome(500, seed=2)
        t, budget = genome.evolve(s, sub_rate=0.05, indel_rate=0.01, seed=3)
        assert levenshtein(s, t) <= budget

    def test_evolve_zero_rates_is_identity(self):
        s = genome.random_genome(100, seed=2)
        t, budget = genome.evolve(s, sub_rate=0.0, indel_rate=0.0, seed=3)
        assert np.array_equal(s, t) and budget == 0

    def test_diverged_pair(self):
        s, t, budget = genome.diverged_pair(400, divergence=0.05, seed=4)
        assert levenshtein(s, t) <= budget

    def test_dna_round_trip(self):
        s = genome.random_genome(50, seed=5)
        decoded = [genome.ALPHABET.index(c) for c in genome.to_dna(s)]
        assert np.array_equal(decoded, s)
