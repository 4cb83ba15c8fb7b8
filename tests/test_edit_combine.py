"""Unit tests for the edit-distance combining DP (Algorithm 4 + §5.2.3
overlap rule)."""

import itertools

from repro.chain import combine_tuples


class TestBasics:
    def test_empty_chain_costs_both_lengths(self):
        assert combine_tuples([], 5, 7, mode="sum") == 12

    def test_perfect_cover(self):
        assert combine_tuples([(0, 6, 0, 6, 0)], 6, 6, mode="sum") == 0

    def test_head_and_tail_are_sums(self):
        # head: delete 2 + insert 1; tail: delete 1 + insert 2
        assert combine_tuples([(2, 5, 1, 4, 0)], 6, 6, mode="sum") == 3 + 3

    def test_gap_costs_are_sums(self):
        tuples = [(0, 2, 0, 2, 0), (4, 6, 5, 7, 0)]
        assert combine_tuples(tuples, 6, 7, mode="sum") == 2 + 3

    def test_distance_contributes(self):
        assert combine_tuples([(0, 6, 0, 6, 4)], 6, 6, mode="sum") == 4


class TestOverlapRule:
    def test_overlap_forbidden_by_default(self):
        # second window starts inside the first
        tuples = [(0, 3, 0, 5, 0), (3, 6, 4, 8, 0)]
        strict = combine_tuples(tuples, 6, 8, mode="sum")
        # cannot chain: best single tuple + tails
        assert strict == min(0 + 3 + 3,      # first + tail (3 del, 3 ins)
                             3 + 4 + 0)      # head + second

    def test_overlap_allowed_pays_removal(self):
        tuples = [(0, 3, 0, 5, 0), (3, 6, 4, 8, 0)]
        loose = combine_tuples(tuples, 6, 8, mode="overlap")
        # chain with overlap 1: cost = 0 + (gap_s 0 + overlap 1) + 0
        assert loose == 1

    def test_overlap_never_beats_disjoint_chains(self, rng):
        for _ in range(30):
            tuples = []
            for _ in range(int(rng.integers(1, 5))):
                lo = int(rng.integers(0, 8))
                hi = int(rng.integers(lo + 1, 10))
                sp = int(rng.integers(0, 8))
                ep = int(rng.integers(sp, 10))
                tuples.append((lo, hi, sp, ep, int(rng.integers(0, 4))))
            strict = combine_tuples(tuples, 10, 10, mode="sum")
            loose = combine_tuples(tuples, 10, 10, mode="overlap")
            assert loose <= strict  # extra transitions can only help

    def test_window_order_still_required_with_overlap(self):
        # second tuple's window starts before the first's: not chainable
        tuples = [(0, 3, 5, 8, 0), (3, 6, 0, 3, 0)]
        loose = combine_tuples(tuples, 6, 8, mode="overlap")
        # best: single tuple usage
        assert loose == min(0 + 5 + (3 + 0),   # first: head 0+5, tail 3 del,0 ins... see below
                            3 + 0 + 0 + (0 + 5),
                            14)


class TestAgainstExhaustiveChaining:
    def _brute(self, tuples, n_s, n_t, allow_overlap):
        """Try every chain: tuples ordered by block, windows ordered by
        end-before-start (by start under the overlap rule)."""
        best = n_s + n_t
        idx = sorted(range(len(tuples)), key=lambda a: tuples[a][0])
        for r in range(1, len(tuples) + 1):
            for combo in itertools.combinations(idx, r):
                ls = [tuples[a] for a in combo]
                if not all(p[1] <= q[0]
                           and (p[2] <= q[2] if allow_overlap
                                else p[3] <= q[2])
                           for p, q in zip(ls, ls[1:])):
                    continue
                cost = ls[0][0] + ls[0][2] + ls[0][4]
                for p, q in zip(ls, ls[1:]):
                    cost += (q[0] - p[1]) + abs(q[2] - p[3]) + q[4]
                cost += (n_s - ls[-1][1]) + max(n_t - ls[-1][3], 0)
                best = min(best, cost)
        return best

    def test_matches_exhaustive(self, rng):
        for _ in range(40):
            tuples = []
            for _ in range(int(rng.integers(0, 6))):
                lo = int(rng.integers(0, 10))
                hi = int(rng.integers(lo + 1, 12))
                sp = int(rng.integers(0, 10))
                ep = int(rng.integers(sp, 12))
                tuples.append((lo, hi, sp, ep, int(rng.integers(0, 5))))
            for allow_overlap in (False, True):
                mode = "overlap" if allow_overlap else "sum"
                assert combine_tuples(tuples, 12, 12, mode=mode) == \
                    self._brute(tuples, 12, 12, allow_overlap), \
                    (tuples, mode)


class TestUpperBoundValidity:
    def test_always_upper_bounds_true_distance(self, rng):
        """With true tuple distances, any DP value must be achievable."""
        from repro.strings import levenshtein
        for trial in range(10):
            s = rng.integers(0, 4, 24).tolist()
            t = rng.integers(0, 4, 24).tolist()
            exact = levenshtein(s, t)
            tuples = []
            for lo in range(0, 24, 8):
                for sp in range(max(0, lo - 4), min(24, lo + 4) + 1, 2):
                    ep = min(sp + 8, 24)
                    tuples.append((lo, lo + 8, sp, ep,
                                   levenshtein(s[lo:lo + 8], t[sp:ep])))
            for mode in ("sum", "overlap"):
                assert combine_tuples(tuples, 24, 24, mode=mode) >= exact
