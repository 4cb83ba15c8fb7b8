"""Unit tests for the edit-distance candidate geometry (Figs. 4–5)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.editdistance import candidate_windows, length_offsets, start_grid
from repro.editdistance.candidates import candidate_grid
from repro.params import EditParams

from .helpers import per_start_candidate_windows


class TestStartGrid:
    def test_grid_points_divisible_by_gap(self):
        pts = start_grid(block_lo=50, distance_guess=20, gap=4, n_t=100)
        assert all(p % 4 == 0 for p in pts)

    def test_grid_covers_guess_radius(self):
        pts = start_grid(block_lo=50, distance_guess=20, gap=4, n_t=100)
        assert min(pts) >= 30 and max(pts) <= 70
        # the grid must reach within one gap of both interval ends
        assert min(pts) <= 30 + 4 and max(pts) >= 70 - 4

    def test_grid_density_guarantee(self):
        # Lemma 5 needs a start in [alpha, alpha + G] for any alpha in
        # the radius: consecutive grid points differ by exactly G
        pts = start_grid(40, 15, 3, 200)
        assert all(b - a == 3 for a, b in zip(pts, pts[1:]))

    def test_clipped_to_text(self):
        pts = start_grid(block_lo=2, distance_guess=50, gap=5, n_t=30)
        assert min(pts) >= 0 and max(pts) <= 30

    def test_gap_one_enumerates_everything(self):
        pts = start_grid(5, 2, 1, 10)
        assert pts == [3, 4, 5, 6, 7]

    def test_never_empty_within_text(self):
        assert start_grid(0, 0, 7, 100) != []


class TestLengthOffsets:
    def test_zero_always_included(self):
        assert 0 in length_offsets(100, 50, 0.25)

    def test_symmetric(self):
        offs = length_offsets(100, 50, 0.25)
        assert sorted(-o for o in offs) == offs

    def test_capped_by_guess(self):
        offs = length_offsets(1000, 5, 0.25)
        assert max(offs) <= 5

    def test_capped_by_length_budget(self):
        offs = length_offsets(10, 10 ** 6, 0.5)
        assert max(offs) <= 20  # B / eps' = 10 / 0.5

    def test_geometric_count(self):
        offs = length_offsets(1000, 10 ** 6, 0.25)
        assert len(offs) < 90


class TestCandidateWindows:
    def test_windows_well_formed(self):
        offs = length_offsets(8, 100, 0.5)
        wins = candidate_windows(10, 8, offs, 0.5, n_t=50)
        assert wins
        for st, en in wins:
            assert st == 10 and 10 <= en <= 50
            assert en - st <= 16  # B / eps'

    def test_base_length_present(self):
        wins = candidate_windows(10, 8, length_offsets(8, 100, 0.5), 0.5, 50)
        assert (10, 18) in wins

    def test_clipped_at_text_end(self):
        wins = candidate_windows(48, 8, length_offsets(8, 100, 0.5), 0.5, 50)
        assert all(en <= 50 for _, en in wins)

    def test_no_duplicate_windows(self):
        wins = candidate_windows(45, 8, length_offsets(8, 100, 0.5), 0.5, 50)
        assert len(wins) == len(set(wins))

    def test_length_coverage_for_lemma5(self):
        # any plausible window length L (|L - B| <= d) must be within a
        # (1+eps') factor of some candidate length
        B, eps_p, guess, n_t = 32, 0.25, 16, 10 ** 4
        offs = length_offsets(B, guess, eps_p)
        wins = candidate_windows(100, B, offs, eps_p, n_t)
        lengths = sorted(en - st for st, en in wins)
        # interior of the feasible range; the extreme |L-B| = guess case
        # is absorbed by Lemma 5's ±ε'·ed slack
        radius = int(guess / (1 + eps_p))
        for L in range(B - radius, B + radius + 1):
            # nearest candidate length not longer than L
            below = [c for c in lengths if c <= L]
            assert below, L
            gap = L - max(below)
            allowed = eps_p * max(abs(L - B), 1) + 1
            assert gap <= allowed, (L, max(below))


@st.composite
def _grids(draw):
    """``(starts, B, offsets, ε', n_t)``: distinct starts in any order,
    mostly in ``[0, n_t]`` (a start past the text has no windows), and
    ascending offsets (repeats allowed) that may put ``B + off`` below 0
    or above ``B/ε'``."""
    n_t = draw(st.integers(0, 120))
    B = draw(st.integers(1, 24))
    eps_prime = draw(st.sampled_from([1.0, 0.5, 1 / 3, 0.25, 0.125]))
    offsets = sorted(draw(st.lists(st.integers(-40, 200), max_size=16)))
    starts = draw(st.lists(st.integers(0, n_t + 4), unique=True,
                           min_size=1, max_size=12))
    return starts, B, offsets, eps_prime, n_t


class TestCandidateGrid:
    """One grid over a batch of starts equals the per-start windows,
    concatenated in start order."""

    @given(case=_grids())
    # Starts within B/ε' of n_t (clipped ends merge), a start equal to
    # n_t, offsets outside [-B, B/ε' - B], and a single start.
    @example(case=([40, 44, 48, 50], 8, length_offsets(8, 100, 0.5), 0.5,
                   50))
    @example(case=([50], 8, [-9, -8, -3, 0, 5, 8, 9, 40], 0.5, 50))
    @example(case=([3, 0], 4, [-20, -5, -4, 0, 12, 13, 30], 0.25, 90))
    @example(case=([17], 6, length_offsets(6, 40, 0.25), 0.25, 200))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_start_oracle(self, case):
        starts, B, offsets, eps_prime, n_t = case
        st_, en, lane = candidate_grid(starts, B, offsets, eps_prime, n_t)
        want = [(k, win) for k, sp in enumerate(starts)
                for win in per_start_candidate_windows(sp, B, offsets,
                                                       eps_prime, n_t)]
        assert (list(zip(lane.tolist(), zip(st_.tolist(), en.tolist())))
                == want)
        for sp in starts:
            assert (candidate_windows(sp, B, offsets, eps_prime, n_t)
                    == per_start_candidate_windows(sp, B, offsets,
                                                   eps_prime, n_t))

    def test_empty_batch(self):
        st_, en, lane = candidate_grid([], 8, [0, 1], 0.5, 50)
        assert len(st_) == len(en) == len(lane) == 0


class TestRegimeBoundaryInteraction:
    def test_small_regime_candidates_fit_machine_memory(self):
        p = EditParams(n=4096, x=0.25, eps=1.0, eps_prime_divisor=4)
        B = p.block_size_small
        assert int(B / p.eps_prime) < p.memory_limit
