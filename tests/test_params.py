"""Unit tests for the paper's parameter schedule."""

import math

import pytest

from repro.params import EditParams, UlamParams, geometric_guesses


class TestGeometricGuesses:
    def test_starts_at_one_and_covers_2n(self):
        g = geometric_guesses(100, 0.5)
        assert g[0] == 1
        assert g[-1] == 200

    def test_strictly_increasing(self):
        g = geometric_guesses(1000, 0.3)
        assert all(a < b for a, b in zip(g, g[1:]))

    def test_gap_ratio_bounded(self):
        g = geometric_guesses(10 ** 5, 0.5)
        for a, b in zip(g, g[1:]):
            assert b <= math.ceil(a * 1.5) + 1 or b == 2 * 10 ** 5

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            geometric_guesses(10, 0)


class TestUlamParams:
    def test_block_size_formula(self):
        p = UlamParams(n=1024, x=0.4)
        assert p.block_size == round(1024 ** 0.6)

    def test_block_count_covers_input(self):
        p = UlamParams(n=1000, x=0.3)
        assert p.n_blocks * p.block_size >= 1000

    def test_eps_prime_is_half_eps(self):
        assert UlamParams(n=100, x=0.3, eps=0.5).eps_prime == 0.25

    def test_hitting_rate_is_probability(self):
        for n in (64, 1024, 10 ** 6):
            for x in (0.1, 0.3, 0.45):
                theta = UlamParams(n=n, x=x).hitting_rate
                assert 0 < theta <= 1

    def test_hitting_rate_decreases_with_block_size(self):
        small_b = UlamParams(n=10 ** 6, x=0.45)   # small blocks
        large_b = UlamParams(n=10 ** 6, x=0.10)   # large blocks
        assert large_b.hitting_rate <= small_b.hitting_rate

    def test_gap_floor_is_one(self):
        p = UlamParams(n=100, x=0.3, eps=0.5)
        assert p.gap(0) == 1
        assert p.gap(1) == 1
        assert p.gap(100) == int(p.eps_prime * 100)

    def test_u_guesses_start_with_zero_and_cover_cap(self):
        p = UlamParams(n=4096, x=0.4)
        guesses = p.u_guesses()
        assert guesses[0] == 0
        cap = p.block_size * (1 + 1 / p.eps_prime)
        assert max(guesses) <= cap * (1 + p.eps_prime) + 1
        # geometric density: consecutive guesses within (1+ε')·a + 1
        # (the +1 absorbs the ceil of integer rounding)
        nonzero = [g for g in guesses if g > 0]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b <= a * (1 + p.eps_prime) + 1

    def test_memory_limit_superlinear_in_block(self):
        p = UlamParams(n=4096, x=0.4)
        assert p.memory_limit > p.block_size

    def test_x_range_enforced(self):
        with pytest.raises(ValueError):
            UlamParams(n=100, x=0.5)
        with pytest.raises(ValueError):
            UlamParams(n=100, x=0.0)

    def test_n_range_enforced(self):
        with pytest.raises(ValueError):
            UlamParams(n=1, x=0.3)

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
    def test_eps_must_be_finite_and_positive(self, eps):
        with pytest.raises(ValueError, match="eps must be a finite"):
            UlamParams(n=100, x=0.3, eps=eps)


class TestEditParams:
    def test_x_range_enforced(self):
        EditParams(n=100, x=5 / 17)  # boundary allowed
        with pytest.raises(ValueError):
            EditParams(n=100, x=0.35)

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
    def test_eps_must_be_finite_and_positive(self, eps):
        with pytest.raises(ValueError, match="eps must be a finite"):
            EditParams(n=100, x=0.2, eps=eps)

    def test_eps_prime_divisor(self):
        assert EditParams(n=100, x=0.2, eps=1.0).eps_prime == 1 / 22
        assert EditParams(n=100, x=0.2, eps=1.0,
                          eps_prime_divisor=4).eps_prime == 0.25
        with pytest.raises(ValueError):
            EditParams(n=100, x=0.2, eps_prime_divisor=0.5)

    def test_regime_boundary(self):
        p = EditParams(n=1024, x=0.25)
        b = p.distance_boundary
        assert p.is_small_regime(b)
        assert not p.is_small_regime(b + 1)
        assert abs(b - 1024 ** (1 - 0.25 / 5)) <= 1

    def test_section_5_3_exponents(self):
        p = EditParams(n=1024, x=0.25)
        assert p.alpha == pytest.approx(0.15)
        assert p.y_large == pytest.approx(0.30)
        assert p.y_prime == pytest.approx(0.20)

    def test_large_blocks_smaller_than_small_regime_blocks(self):
        p = EditParams(n=4096, x=0.25)
        # y = 1.2x > x so large-regime blocks are shorter
        assert p.block_size_large < p.block_size_small

    def test_larger_block_contains_several_blocks(self):
        p = EditParams(n=4096, x=0.25)
        assert p.larger_block_size > p.block_size_large

    def test_gap_scales_with_guess(self):
        p = EditParams(n=4096, x=0.25, eps=1.0, eps_prime_divisor=4)
        B = p.block_size_small
        assert p.gap(1, B) == 1
        assert p.gap(4096, B) > p.gap(64, B)

    def test_max_candidate_length(self):
        p = EditParams(n=4096, x=0.25, eps=1.0, eps_prime_divisor=4)
        assert p.max_candidate_length(100) == 400

    def test_thresholds_include_zero(self):
        p = EditParams(n=64, x=0.25)
        taus = p.thresholds()
        assert taus[0] == 0
        assert max(taus) >= 64
