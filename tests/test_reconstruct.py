"""Tests for edit-script recovery from MPC runs."""

import numpy as np
import pytest

from repro import UlamConfig, mpc_ulam
from repro.reconstruct import chain_script, chain_tuples, ulam_script
from repro.strings import levenshtein, ulam_distance
from repro.strings.transform import apply_script, gap_script
from repro.ulam import combine_tuples
from repro.workloads.permutations import planted_pair


def _sum_script(s, t, tuples):
    """``(cost, ops)`` of small-regime tuples: Algorithm 4's sum-mode
    chain, stitched into a script."""
    _, chain = chain_tuples(tuples, len(s), len(t), mode="sum")
    ops = chain_script(s, t, chain, mode="sum")
    return len(ops), ops


class TestGapScript:
    def test_max_mode_cost(self):
        ops = gap_script(0, 3, 0, 5, mode="max")
        assert len(ops) == 5

    def test_sum_mode_cost(self):
        ops = gap_script(0, 3, 0, 5, mode="sum")
        assert len(ops) == 8

    def test_replay_max_mode(self, rng):
        s = rng.integers(0, 5, 7).tolist()
        t = rng.integers(0, 5, 4).tolist()
        ops = gap_script(0, len(s), 0, len(t), mode="max")
        assert apply_script(s, t, ops).tolist() == t

    def test_replay_sum_mode(self, rng):
        s = rng.integers(0, 5, 3).tolist()
        t = rng.integers(0, 5, 6).tolist()
        ops = gap_script(0, len(s), 0, len(t), mode="sum")
        assert apply_script(s, t, ops).tolist() == t

    def test_empty_gap(self):
        assert gap_script(2, 2, 3, 3) == []

    def test_invalid(self):
        with pytest.raises(ValueError):
            gap_script(3, 2, 0, 0)
        with pytest.raises(ValueError):
            gap_script(0, 1, 0, 1, mode="avg")


class TestApplyScript:
    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            apply_script([1], [2], [("swap", 0, 0)])

    def test_identity(self):
        s = [1, 2, 3]
        assert apply_script(s, s, []).tolist() == s


class TestChainTuples:
    def test_cost_matches_combine_max(self, rng):
        for _ in range(30):
            tuples = []
            for _ in range(int(rng.integers(0, 6))):
                lo = int(rng.integers(0, 10))
                hi = int(rng.integers(lo + 1, 12))
                sp = int(rng.integers(0, 10))
                ep = int(rng.integers(sp, 12))
                tuples.append((lo, hi, sp, ep, int(rng.integers(0, 5))))
            cost, chain = chain_tuples(tuples, 12, 12, mode="max")
            assert cost == combine_tuples(tuples, 12, 12, mode="max")

    def test_cost_matches_combine_sum(self, rng):
        for _ in range(30):
            tuples = []
            for _ in range(int(rng.integers(0, 6))):
                lo = int(rng.integers(0, 10))
                hi = int(rng.integers(lo + 1, 12))
                sp = int(rng.integers(0, 10))
                ep = int(rng.integers(sp, 12))
                tuples.append((lo, hi, sp, ep, int(rng.integers(0, 5))))
            cost, chain = chain_tuples(tuples, 12, 12, mode="sum")
            assert cost == combine_tuples(tuples, 12, 12, mode="sum")

    def test_chain_is_monotone(self, rng):
        tuples = [(0, 3, 0, 3, 1), (3, 6, 3, 6, 1), (6, 9, 6, 9, 1)]
        cost, chain = chain_tuples(tuples, 9, 9)
        assert chain == tuples
        assert cost == 3

    def test_empty_chain_when_tuples_hurt(self):
        cost, chain = chain_tuples([(0, 3, 0, 3, 100)], 4, 4)
        assert cost == 4 and chain == []

    def test_chain_cost_reconstructable(self, rng):
        """The chain's recomputed cost must equal the DP value."""
        for _ in range(20):
            tuples = []
            for _ in range(int(rng.integers(1, 6))):
                lo = int(rng.integers(0, 10))
                hi = int(rng.integers(lo + 1, 12))
                sp = int(rng.integers(0, 10))
                ep = int(rng.integers(sp, 12))
                tuples.append((lo, hi, sp, ep, int(rng.integers(0, 5))))
            cost, chain = chain_tuples(tuples, 12, 12, mode="max")
            if not chain:
                assert cost == 12
                continue
            recost = max(chain[0][0], chain[0][2]) + chain[0][4]
            for p, q in zip(chain, chain[1:]):
                recost += max(q[0] - p[1], q[2] - p[3]) + q[4]
            recost += max(12 - chain[-1][1], 12 - chain[-1][3])
            assert recost == cost


class TestMalformedTuples:
    """Caller-supplied tuples must be a block of ``s``, a window of ``t``
    and a non-negative distance; anything else is rejected before the DP
    could report a cost that is not an upper bound."""

    def test_block_end_before_start(self):
        with pytest.raises(ValueError, match="not"):
            chain_tuples([(3, 2, 0, 4, 0)], 4, 4, mode="sum")

    def test_negative_distance(self):
        with pytest.raises(ValueError, match="d ≥ 0"):
            chain_tuples([(0, 4, 0, 4, -5)], 4, 4, mode="sum")

    @pytest.mark.parametrize("bad", [(-1, 2, 0, 2, 0), (0, 5, 0, 2, 0),
                                     (0, 2, -1, 2, 0), (0, 2, 3, 2, 0),
                                     (0, 2, 0, 5, 0)])
    def test_out_of_range_coordinates(self, bad):
        with pytest.raises(ValueError):
            chain_tuples([(0, 1, 0, 1, 0), bad], 4, 4)
        with pytest.raises(ValueError):
            combine_tuples([bad], 4, 4)

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            chain_tuples([(0, 1, 0, 1)] * 5, 4, 4)

    def test_ulam_script_checks_result_tuples(self):
        from types import SimpleNamespace
        s = t = np.arange(4)
        with pytest.raises(ValueError):
            ulam_script(s, t, SimpleNamespace(tuples=[(0, 9, 0, 4, 0)]))

    def test_boundary_tuples_accepted(self):
        cost, chain = chain_tuples([(0, 0, 0, 0, 0), (0, 4, 0, 4, 0),
                                    (4, 4, 4, 4, 0)], 4, 4, mode="sum")
        assert cost == 0 and (0, 4, 0, 4, 0) in chain
        assert _sum_script("abcd", "abxd", [(0, 4, 0, 4, 1)]) \
            == (1, [("substitute", 2, 2)])


class TestEndToEndScripts:
    @pytest.mark.parametrize("budget", [0, 3, 10])
    def test_ulam_script_replays_and_certifies(self, budget):
        s, t, _ = planted_pair(128, budget, seed=budget + 3, style="mixed")
        res = mpc_ulam(s, t, x=0.4, eps=0.5, seed=1, keep_tuples=True,
                       config=UlamConfig.default())
        cost, ops = ulam_script(s, t, res)
        # the script is an explicit transformation ...
        assert apply_script(s, t, ops).tolist() == t.tolist()
        # ... whose cost certifies the reported distance
        assert ulam_distance(s, t) <= cost <= res.distance

    def test_ulam_script_requires_tuples(self):
        s, t, _ = planted_pair(64, 2, seed=1)
        res = mpc_ulam(s, t, x=0.4, eps=0.5)
        with pytest.raises(ValueError, match="keep_tuples"):
            ulam_script(s, t, res)

    def test_chain_script_rejects_overlap(self):
        s = np.arange(10)
        t = np.arange(10)
        with pytest.raises(ValueError, match="monotone"):
            chain_script(s, t, [(0, 5, 0, 6, 0), (5, 10, 4, 10, 0)])

    def test_edit_script_from_small_regime_tuples(self):
        """Full pipeline: small-regime tuples -> sum-mode script."""
        from repro.editdistance import EditConfig
        from repro.editdistance.small import small_distance_upper_bound
        from repro.mpc import MPCSimulator
        from repro.params import EditParams
        from repro.workloads.strings import planted_pair
        from repro.strings import levenshtein

        s, t, _ = planted_pair(96, 6, sigma=4, seed=2)
        params = EditParams(n=96, x=0.29, eps=1.0, eps_prime_divisor=4)
        sim = MPCSimulator(memory_limit=params.memory_limit)
        # re-collect the tuples the driver would ship to phase 2
        from repro.editdistance.candidates import (length_offsets,
                                                   start_grid)
        from repro.editdistance.small import run_small_block_machine
        B = params.block_size_small
        guess = 16
        gap = params.gap(guess, B)
        offsets = length_offsets(B, guess, params.eps_prime)
        tuples = []
        for lo in range(0, 96, B):
            hi = min(lo + B, 96)
            for sp in start_grid(lo, guess, gap, len(t)):
                text_end = min(sp + int(B / params.eps_prime), len(t))
                tuples.extend(run_small_block_machine({
                    "lo": lo, "hi": hi, "block": s[lo:hi],
                    "text": t[sp:text_end], "text_off": sp,
                    "starts": [sp], "offsets": offsets,
                    "eps_prime": params.eps_prime, "n_t": len(t),
                    "inner": "row", "eps_inner": 0.5, "top_k": 16}))
        cost, ops = _sum_script(s, t, tuples)
        assert cost == len(ops)
        assert apply_script(s, t, ops).tolist() == t.tolist()
        assert cost >= levenshtein(s, t)

    def test_manual_chain_script_cost(self, rng):
        s = rng.permutation(20)
        t = s.copy()
        chain = [(0, 10, 0, 10, 0), (10, 20, 10, 20, 0)]
        ops = chain_script(s, t, chain, mode="max")
        assert ops == []
