"""Unit tests for the edit-distance machine functions (round level)."""

import numpy as np
import pytest

from repro.editdistance.candidates import candidate_windows, length_offsets
from repro.editdistance.large import (group_candidates_by_start,
                                      run_block_vs_groups_machine,
                                      run_pair_distance_machine,
                                      run_rep_distance_machine)
import repro.editdistance.small as small
from repro import mpc_edit_distance
from repro.chain import TupleTable
from repro.editdistance.small import run_small_block_machine
from repro.metrics import enabled as metrics_enabled
from repro.mpc import WorkMeter
from repro.strings import levenshtein, levenshtein_last_row
from repro.workloads.strings import planted_pair

from .helpers import per_start_candidate_windows


@pytest.fixture
def instance(rng):
    s, t, _ = planted_pair(96, 10, sigma=4, seed=5)
    return s, t


def _small_payload(s, t, inner, starts, top_k=None):
    B = 24
    offsets = length_offsets(B, 32, 0.25)
    lo_text = min(starts)
    hi_text = min(max(starts) + int(B / 0.25), len(t))
    return {
        "lo": 0, "hi": B, "block": s[:B],
        "text": t[lo_text:hi_text], "text_off": lo_text,
        "starts": starts, "offsets": offsets,
        "eps_prime": 0.25, "n_t": len(t),
        "inner": inner, "eps_inner": 0.5, "top_k": top_k,
    }


class TestSmallBlockMachine:
    def test_row_mode_distances_exact(self, instance):
        s, t = instance
        out = run_small_block_machine(_small_payload(s, t, "row", [0, 8]))
        assert out
        for lo, hi, st, en, d in out:
            assert d == levenshtein(s[lo:hi], t[st:en])

    def test_row_matches_per_pair_exact(self, instance):
        s, t = instance
        row = run_small_block_machine(_small_payload(s, t, "row", [0, 8]))
        exact = run_small_block_machine(
            _small_payload(s, t, "exact", [0, 8]))
        assert sorted(row) == sorted(exact)

    def test_cgks_upper_bounds_row(self, instance):
        s, t = instance
        row = {(st, en): d for _, _, st, en, d in
               run_small_block_machine(_small_payload(s, t, "row", [0]))}
        cgks = {(st, en): d for _, _, st, en, d in
                run_small_block_machine(_small_payload(s, t, "cgks", [0]))}
        assert set(row) == set(cgks)
        for key in row:
            assert cgks[key] >= row[key]

    def test_top_k_truncates_to_best(self, instance):
        s, t = instance
        full = run_small_block_machine(_small_payload(s, t, "row", [0, 8]))
        capped = run_small_block_machine(
            _small_payload(s, t, "row", [0, 8], top_k=3))
        assert len(capped) == 3
        assert sorted(d for *_, d in capped) == \
            sorted(d for *_, d in full)[:3]

    def test_windows_match_candidate_geometry(self, instance):
        s, t = instance
        payload = _small_payload(s, t, "row", [8])
        out = run_small_block_machine(payload)
        expected = set(candidate_windows(8, 24, payload["offsets"],
                                         0.25, len(t)))
        assert {(st, en) for _, _, st, en, _ in out} == expected


def _captured_payloads(n, budget):
    """Every small-regime block-machine payload of one real edit run."""
    payloads = []
    real = small.run_small_block_machine

    def record(payload):
        payloads.append(dict(payload))
        return real(payload)

    s, t, _ = planted_pair(n, budget, sigma=4,
                           seed=np.random.default_rng([1, 0]))
    small.run_small_block_machine = record
    try:
        mpc_edit_distance(s, t, x=0.25, eps=1.0, seed=0, data_plane=False)
    finally:
        small.run_small_block_machine = real
    return payloads


def _per_start_machine(payload):
    """Reference Algorithm 3 machine: one last-row DP per start.  Returns
    its tuples and its candidate-window count."""
    lo, hi = payload["lo"], payload["hi"]
    block, text, off = payload["block"], payload["text"], payload["text_off"]
    out = []
    for sp in payload["starts"]:
        wins = per_start_candidate_windows(sp, hi - lo, payload["offsets"],
                                           payload["eps_prime"],
                                           payload["n_t"])
        if not wins:
            continue
        end = max(en for _, en in wins)
        row = levenshtein_last_row(block, text[sp - off:end - off])
        out.extend((lo, hi, st, en, row[en - sp]) for st, en in wins)
    return TupleTable(out).capped(payload["top_k"]), len(out)


_COUNTS = ("edit.candidate_windows{regime=small}",
           "edit.candidate_tuples{regime=small}")


class TestSmallMachineOneSweep:
    """One lane-packed sweep over one window grid per machine equals one
    DP per start over its own windows."""

    @pytest.mark.parametrize("n, budget", [(128, 8), (1024, 64)])
    def test_matches_per_start_reference(self, n, budget):
        payloads = _captured_payloads(n, budget)
        assert max(len(p["starts"]) for p in payloads) > 1
        with metrics_enabled(), WorkMeter() as meter:
            got = [run_small_block_machine(dict(p)) for p in payloads]
        with WorkMeter() as ref_meter:
            ref = [_per_start_machine(dict(p)) for p in payloads]
        assert ([t.rows.tolist() for t in got]
                == [t.rows.tolist() for t, _ in ref])
        assert meter.total == ref_meter.total
        assert [meter.metrics[k]["value"] for k in _COUNTS] == [
            sum(w for _, w in ref), sum(len(t) for t, _ in ref)]


class TestRepDistanceMachine:
    def test_layout_contract(self, instance):
        s, t = instance
        groups = [(0, t[0:30], [10, 20, 30]), (16, t[16:40], [28, 40])]
        blocks = [(("b", 0, 24), s[0:24])]
        reps = [(0, s[0:24]), (1, t[8:32])]
        out = run_rep_distance_machine({
            "reps": reps, "blocks": blocks, "cs_groups": groups,
            "solver": "banded", "eps_inner": 0.5})
        # layout: per rep: blocks, then group endpoints in order
        per_rep = 1 + 3 + 2
        assert len(out) == 2 * per_rep
        k = 0
        for rep_idx, rep_arr in reps:
            assert out[k] == levenshtein(rep_arr, s[0:24])
            k += 1
            for st, seg, ens in groups:
                for en in ens:
                    assert out[k] == levenshtein(rep_arr, t[st:en])
                    k += 1

    def test_returns_int64_array(self, instance):
        s, t = instance
        out = run_rep_distance_machine({
            "reps": [(0, s[:10])], "blocks": [],
            "cs_groups": [(0, t[:10], [5, 10])],
            "solver": "exact", "eps_inner": 0.5})
        assert isinstance(out, np.ndarray) and out.dtype == np.int64


class TestBlockVsGroupsMachine:
    def test_distances_exact_in_group_order(self, instance):
        s, t = instance
        groups = [(4, t[4:40], [12, 20, 36]), (40, t[40:70], [52, 64])]
        out = run_block_vs_groups_machine({
            "lo": 0, "hi": 24, "block": s[:24], "cs_groups": groups})
        k = 0
        for st, seg, ens in groups:
            for en in ens:
                assert out[k] == levenshtein(s[:24], t[st:en])
                k += 1
        assert k == len(out)


class TestPairDistanceMachine:
    def test_item_order_and_exactness(self, instance):
        s, t = instance
        items = [(0, 24, s[0:24], 4, 30, t[4:30]),
                 (24, 48, s[24:48], 20, 44, t[20:44])]
        out = run_pair_distance_machine({
            "items": items, "solver": "banded", "eps_inner": 0.5})
        assert out.tolist() == [levenshtein(s[0:24], t[4:30]),
                                levenshtein(s[24:48], t[20:44])]


class TestGroupCandidates:
    def test_rejects_non_candidate_nodes(self):
        with pytest.raises(ValueError):
            group_candidates_by_start([("b", 0, 4)])
