"""Unit tests for fitting (substring) alignment."""

from repro.strings import fitting_alignment, fitting_last_row, levenshtein

from .helpers import brute_edit_distance, brute_fitting


def fitting_distance(pattern, text) -> int:
    """``min over substrings w of text of ed(pattern, w)``."""
    return int(fitting_last_row(pattern, text).min())


class TestFittingDistance:
    def test_exact_substring_costs_zero(self):
        assert fitting_distance("ell", "hello") == 0

    def test_empty_pattern(self):
        assert fitting_distance("", "hello") == 0

    def test_empty_text(self):
        assert fitting_distance("abc", "") == 3

    def test_no_overlap_costs_pattern_length(self):
        assert fitting_distance([1, 2, 3], [7, 8, 9, 10]) == 3

    def test_against_brute_force(self, rng):
        for _ in range(120):
            m = int(rng.integers(0, 8))
            n = int(rng.integers(0, 10))
            p = rng.integers(0, 3, m).tolist()
            t = rng.integers(0, 3, n).tolist()
            assert fitting_distance(p, t) == brute_fitting(p, t)[2]

    def test_never_exceeds_global_distance(self, rng):
        for _ in range(40):
            p = rng.integers(0, 4, 7).tolist()
            t = rng.integers(0, 4, 12).tolist()
            assert fitting_distance(p, t) <= levenshtein(p, t)


class TestFittingAlignment:
    def test_window_achieves_reported_distance(self, rng):
        for _ in range(120):
            m = int(rng.integers(0, 8))
            n = int(rng.integers(0, 10))
            p = rng.integers(0, 3, m).tolist()
            t = rng.integers(0, 3, n).tolist()
            g, k, d = fitting_alignment(p, t)
            assert 0 <= g <= k <= n
            assert brute_edit_distance(p, t[g:k]) == d
            assert d == brute_fitting(p, t)[2]

    def test_exact_occurrence_located(self):
        g, k, d = fitting_alignment([5, 6], [1, 2, 5, 6, 3])
        assert d == 0
        assert [1, 2, 5, 6, 3][g:k] == [5, 6]

    def test_empty_pattern_alignment(self):
        assert fitting_alignment([], [1, 2]) == (0, 0, 0)

    def test_empty_text_alignment(self):
        assert fitting_alignment([1, 2], []) == (0, 0, 2)


class TestFittingLastRow:
    def test_entries_are_window_minima_ending_at_j(self, rng):
        p = rng.integers(0, 3, 5).tolist()
        t = rng.integers(0, 3, 7).tolist()
        row = fitting_last_row(p, t)
        for j in range(len(t) + 1):
            expected = min(brute_edit_distance(p, t[g:j])
                           for g in range(j + 1))
            assert row[j] == expected

    def test_monotone_under_pattern_growth(self, rng):
        # a longer pattern can only be harder to fit
        t = rng.integers(0, 3, 10).tolist()
        p = rng.integers(0, 3, 6).tolist()
        assert fitting_distance(p, t) <= fitting_distance(p + [9], t) + 1
