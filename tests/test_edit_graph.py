"""Unit tests for the threshold-graph machinery (G_tau, Lemma 7)."""

import numpy as np
import pytest

from repro.editdistance import (RepDistances, build_candidate_nodes,
                                node_string)
from repro.editdistance.large import group_candidates_by_start
from repro.editdistance.candidates import length_offsets
from repro.strings import levenshtein

from .helpers import per_start_candidate_windows


class TestBuildCandidateNodes:
    def test_starts_on_gap_grid(self):
        nodes = build_candidate_nodes(n_t=100, block_size=10, gap=5,
                                      distance_guess=50, eps_prime=0.5)
        assert all(st % 5 == 0 for _, st, _ in nodes)

    def test_no_duplicates(self):
        nodes = build_candidate_nodes(80, 8, 4, 40, 0.5)
        assert len(nodes) == len(set(nodes))

    def test_length_cap(self):
        nodes = build_candidate_nodes(200, 10, 5, 100, 0.5)
        assert all(en - st <= 20 for _, st, en in nodes)

    @pytest.mark.parametrize("n_t, B, gap, guess, eps_prime", [
        (100, 10, 5, 50, 0.5), (80, 8, 4, 40, 0.5), (57, 5, 3, 9, 0.5),
        (300, 16, 7, 300, 0.125), (1024, 181, 16, 64, 0.25),
        (40, 12, 1, 6, 0.25)])
    def test_one_node_per_per_start_window(self, n_t, B, gap, guess,
                                           eps_prime):
        # Every window starts at its own grid start and the per-start
        # windows have distinct ends, so no window repeats across
        # starts: the nodes are the per-start windows, concatenated.
        offsets = length_offsets(B, guess, eps_prime)
        want = [("c", st, en) for sp in range(0, n_t + 1, gap)
                for st, en in per_start_candidate_windows(
                    sp, B, offsets, eps_prime, n_t)]
        assert build_candidate_nodes(n_t, B, gap, guess, eps_prime) == want
        assert len(set(want)) == len(want)

    def test_node_count_scales_inversely_with_gap(self):
        dense = build_candidate_nodes(200, 10, 1, 100, 0.5)
        sparse = build_candidate_nodes(200, 10, 10, 100, 0.5)
        assert len(dense) > len(sparse)


class TestNodeString:
    def test_block_nodes_read_s(self):
        S = np.arange(10)
        T = np.arange(10) + 100
        assert node_string(("b", 2, 5), S, T).tolist() == [2, 3, 4]

    def test_candidate_nodes_read_t(self):
        S = np.arange(10)
        T = np.arange(10) + 100
        assert node_string(("c", 0, 2), S, T).tolist() == [100, 101]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            node_string(("x", 0, 1), np.arange(2), np.arange(2))


class TestGroupCandidatesByStart:
    def test_groups_sorted_and_complete(self):
        nodes = [("c", 5, 8), ("c", 0, 4), ("c", 5, 10), ("c", 0, 2)]
        groups = group_candidates_by_start(nodes)
        assert groups == [(0, [2, 4]), (5, [8, 10])]


class TestRepDistances:
    def test_nearest_rep_distance(self):
        rd = RepDistances()
        rd.add(("b", 0, 4), rep_index=0, distance=7)
        rd.add(("b", 0, 4), rep_index=1, distance=3)
        assert rd.nearest_rep_distance(("b", 0, 4)) == 3
        assert rd.nearest_rep_distance(("b", 4, 8)) is None

    def test_triangle_edges_weight_is_min_over_reps(self):
        rd = RepDistances()
        b = ("b", 0, 4)
        u = ("c", 0, 4)
        rd.add(b, 0, 5)
        rd.add(u, 0, 4)
        rd.add(b, 1, 1)
        rd.add(u, 1, 2)
        edges = rd.triangle_edges([b], [u])
        assert edges == {(b, u): 3}

    def test_triangle_edges_respect_max_weight(self):
        rd = RepDistances()
        b, u = ("b", 0, 4), ("c", 0, 4)
        rd.add(b, 0, 5)
        rd.add(u, 0, 5)
        assert rd.triangle_edges([b], [u], max_weight=9) == {}
        assert rd.triangle_edges([b], [u], max_weight=10) == {(b, u): 10}

    def test_no_shared_rep_means_no_edge(self):
        rd = RepDistances()
        b, u = ("b", 0, 4), ("c", 0, 4)
        rd.add(b, 0, 1)
        rd.add(u, 1, 1)
        assert rd.triangle_edges([b], [u]) == {}

    def test_edge_weights_upper_bound_true_distance(self, rng):
        """Triangle-inequality edges must never under-report a distance."""
        S = rng.integers(0, 4, 40)
        T = rng.integers(0, 4, 40)
        blocks = [("b", 0, 10), ("b", 10, 20)]
        cands = [("c", st, st + 10) for st in range(0, 31, 10)]
        reps = blocks[:1] + cands[:1]
        rd = RepDistances()
        for ri, rep in enumerate(reps):
            for node in blocks + cands:
                rd.add(node, ri, levenshtein(node_string(rep, S, T),
                                             node_string(node, S, T)))
        for (b, u), w in rd.triangle_edges(blocks, cands).items():
            true = levenshtein(node_string(b, S, T), node_string(u, S, T))
            assert w >= true

    def test_lemma7_stretch_bound(self, rng):
        """An edge generated through a representative at threshold tau has
        weight at most 3·tau where tau = max(d(b,z), d(z,u)/2)."""
        S = rng.integers(0, 3, 30)
        T = rng.integers(0, 3, 30)
        b = ("b", 0, 10)
        u = ("c", 5, 15)
        z = ("c", 2, 12)
        rd = RepDistances()
        dbz = levenshtein(node_string(b, S, T), node_string(z, S, T))
        dzu = levenshtein(node_string(z, S, T), node_string(u, S, T))
        rd.add(b, 0, dbz)
        rd.add(u, 0, dzu)
        edges = rd.triangle_edges([b], [u])
        tau = max(dbz, dzu / 2)
        assert edges[(b, u)] <= 3 * tau
