"""Tests for the post-run guarantee monitor (repro.analysis.guarantees)."""

from types import SimpleNamespace

import numpy as np

from repro.analysis import (check_edit_guarantees, check_ulam_guarantees,
                            format_guarantees, machine_budget,
                            reference_distance)
from repro.editdistance import mpc_edit_distance
from repro.mpc import RoundStats, RunStats
from repro.params import UlamParams
from repro.strings import levenshtein, levenshtein_banded
from repro.ulam import mpc_ulam
from repro.workloads.permutations import planted_pair as perm_pair
from repro.workloads.strings import planted_pair as str_pair


class TestReferenceDistance:
    def test_exact_mode(self):
        s, t = "kitten", "sitting"
        ref = reference_distance(s, t, upper_bound=5, factor=2.0)
        assert ref["mode"] == "exact"
        assert ref["distance"] == 3
        assert ref["valid_upper_bound"]

    def test_refutes_overclaimed_upper_bound(self):
        # The claimed "upper bound" 1 is below the true distance 3: the
        # banded DP certifies that, which means a driver bug upstream.
        ref = reference_distance("kitten", "sitting", upper_bound=1,
                                 factor=2.0)
        assert ref["valid_upper_bound"] is False

    def test_refutes_bound_below_length_difference(self):
        ref = reference_distance("aaaa", "aaaaaaaaaa", upper_bound=2,
                                 factor=2.0)
        assert ref["valid_upper_bound"] is False

    def test_lower_bound_mode(self):
        s, t, _ = str_pair(2000, 200, sigma=4, seed=0)
        d = levenshtein(s, t)
        ub = d  # a tight, valid upper bound
        # Cap the work so the exact band (ub+1)*n is unaffordable but
        # the k0 band of factor 4 still fits.
        cap = (d // 2) * 2000
        ref = reference_distance(s, t, upper_bound=ub, factor=4.0,
                                 work_cap=cap)
        assert ref["mode"] == "lower-bound"
        assert ref["valid_upper_bound"]
        # The certificate is d >= lower_bound >= ub/factor.
        assert ref["lower_bound"] <= d
        assert ref["lower_bound"] >= ub / 4.0

    def test_lower_bound_band_may_find_exact(self):
        # If the true distance fits inside the k0 band, the "lower
        # bound" run is actually exact and is reported as such.
        s, t = "abcdef" * 300, "abcdef" * 300
        ref = reference_distance(s, t, upper_bound=1200, factor=4.0,
                                 work_cap=400 * 1800)
        assert ref["mode"] == "exact" and ref["distance"] == 0

    def test_skipped_beyond_work_cap(self):
        s, t, _ = str_pair(1000, 100, sigma=4, seed=1)
        ref = reference_distance(s, t, upper_bound=500, factor=1.5,
                                 work_cap=10)
        assert ref["mode"] == "skipped"
        assert ref["valid_upper_bound"]


def _banded_reference(s, t, upper_bound, factor, work_cap):
    """The exact mode taken by the row-by-row banded DP with band ``ub``;
    the other modes are :func:`reference_distance`'s own."""
    n, ub = max(len(s), len(t), 1), int(upper_bound)
    if ub >= abs(len(s) - len(t)) and (ub + 1) * n <= work_cap:
        d = levenshtein_banded(s, t, ub)
        return {"mode": "exact", "distance": d,
                "valid_upper_bound": d is not None}
    return reference_distance(s, t, upper_bound, factor, work_cap=work_cap)


class TestReferenceDistanceMatchesBanded:
    """Exact mode reads Myers' distance; every report dict equals the
    banded DP's, for either argument order, far-apart lengths and
    refuted upper bounds."""

    def test_random_pairs(self, rng):
        shapes = [(int(rng.integers(0, 40)), int(rng.integers(0, 40)))
                  for _ in range(40)]
        shapes += [(300, 3), (2, 250), (200, 0), (0, 5), (0, 0)]
        for m, n in shapes:
            sigma = int(rng.integers(2, 5))
            a = rng.integers(0, sigma, m).tolist()
            b = rng.integers(0, sigma, n).tolist()
            d = levenshtein(a, b)
            # Tight, loose and refuted bounds, and one below the length
            # difference.
            for ub in {d, d + 3, max(d - 1, 0), max(d - 5, 0),
                       max(abs(m - n) - 1, 0)}:
                for cap, factor in ((50_000_000, 1.5), (4 * max(m, n), 4.0)):
                    for s, t in ((a, b), (b, a)):
                        assert reference_distance(
                            s, t, ub, factor, work_cap=cap) == \
                            _banded_reference(s, t, ub, factor, cap), \
                            (m, n, ub, cap)


class TestMachineBudget:
    def test_polylog_headroom(self):
        # 2 * n^x * log2(n) at n=1024, x=0.5: 2 * 32 * 10 = 640.
        assert machine_budget(1024, 0.5) == 640

    def test_monotone_in_n_and_exponent(self):
        assert machine_budget(4096, 0.4) > machine_budget(1024, 0.4)
        assert machine_budget(1024, 0.6) > machine_budget(1024, 0.4)

    def test_tiny_n_floor(self):
        assert machine_budget(1, 0.5) >= 1


def _ulam_run(n=256, budget=8, x=0.4, eps=0.5, seed=0):
    s, t, _ = perm_pair(n, budget, seed=seed, style="mixed")
    return s, t, mpc_ulam(s, t, x=x, eps=eps, seed=seed)


def _edit_run(n=128, budget=4, x=0.25, eps=1.0, seed=0):
    s, t, _ = str_pair(n, budget, sigma=4, seed=seed)
    return s, t, mpc_edit_distance(s, t, x=x, eps=eps, seed=seed)


class TestUlamGuarantees:
    def test_real_run_passes(self):
        s, t, res = _ulam_run()
        report = check_ulam_guarantees(s, t, res)
        assert report.passed, format_guarantees(report)
        assert {c.name for c in report.checks} == {
            "approximation_ratio", "machine_memory", "machine_count",
            "round_count"}
        assert not any(c.skipped for c in report.checks)

    def test_misparameterised_distance_fails_ratio(self):
        # A run that returns far more than (1+eps) * d — e.g. a chaos
        # run that dropped machines — must fail the ratio check.
        s, t, res = _ulam_run()
        bogus = SimpleNamespace(distance=res.distance * 4,
                                params=res.params, stats=res.stats)
        report = check_ulam_guarantees(s, t, bogus)
        assert not report.passed
        assert [c.name for c in report.failures] == ["approximation_ratio"]

    def test_misparameterised_fleet_fails_machine_count(self):
        # A fleet wider than O~(n^x) — what a wrong partition exponent
        # would produce — must fail the machine-count check.
        s, t, res = _ulam_run()
        budget = machine_budget(res.params.n, res.params.x)
        wide = RoundStats(name="ulam/1-candidates")
        for _ in range(budget + 1):
            wide.observe_machine(input_words=1, output_words=1, work=1)
        bogus = SimpleNamespace(
            distance=res.distance, params=res.params,
            stats=RunStats(rounds=[wide] + list(res.stats.rounds[1:])))
        report = check_ulam_guarantees(s, t, bogus)
        assert [c.name for c in report.failures] == ["machine_count"]

    def test_memory_overrun_fails(self):
        s, t, res = _ulam_run()
        fat = RoundStats(name="ulam/1-candidates")
        fat.observe_machine(input_words=res.params.memory_limit + 1,
                            output_words=1, work=1)
        bogus = SimpleNamespace(
            distance=res.distance, params=res.params,
            stats=RunStats(rounds=[fat]))
        report = check_ulam_guarantees(s, t, bogus)
        assert "machine_memory" in [c.name for c in report.failures]

    def test_extra_round_fails_round_count(self):
        s, t, res = _ulam_run()
        extra = RoundStats(name="ulam/3-oops")
        extra.observe_machine(input_words=1, output_words=1, work=1)
        bogus = SimpleNamespace(
            distance=res.distance, params=res.params,
            stats=RunStats(rounds=list(res.stats.rounds) + [extra]))
        report = check_ulam_guarantees(s, t, bogus)
        assert [c.name for c in report.failures] == ["round_count"]

    def test_work_cap_skips_instead_of_guessing(self):
        s, t, res = _ulam_run()
        report = check_ulam_guarantees(s, t, res, work_cap=1)
        ratio = next(c for c in report.checks
                     if c.name == "approximation_ratio")
        assert ratio.skipped and ratio.passed and ratio.measured is None
        assert report.passed  # skipped is not a failure...

    def test_report_serialises(self):
        s, t, res = _ulam_run()
        doc = check_ulam_guarantees(s, t, res).to_dict()
        assert doc["algorithm"] == "ulam" and doc["passed"] is True
        assert all({"name", "passed", "measured", "bound", "detail",
                    "skipped"} == set(c) for c in doc["checks"])


class TestEditGuarantees:
    def test_real_run_passes(self):
        s, t, res = _edit_run()
        report = check_edit_guarantees(s, t, res)
        assert report.passed, format_guarantees(report)

    def test_ratio_uses_3_plus_eps(self):
        s, t, res = _edit_run(eps=1.0)
        ratio = next(c for c in check_edit_guarantees(s, t, res).checks
                     if c.name == "approximation_ratio")
        assert ratio.bound == 4.0

    def test_misparameterised_distance_fails(self):
        s, t, res = _edit_run()
        exact = levenshtein(s, t)
        bogus = SimpleNamespace(distance=exact * 5, params=res.params,
                                stats=res.stats)
        report = check_edit_guarantees(s, t, bogus)
        assert [c.name for c in report.failures] == ["approximation_ratio"]

    def test_equality_prefix_round_extends_round_budget(self):
        # Identical inputs exercise the ed/0-equality sequential prefix;
        # the round bound is 4 + 1 in that case and the check passes.
        s = np.asarray(str_pair(128, 4, sigma=4, seed=0)[0])
        res = mpc_edit_distance(s, s, x=0.25, eps=1.0, seed=0)
        assert res.distance == 0
        report = check_edit_guarantees(s, s, res)
        rounds = next(c for c in report.checks if c.name == "round_count")
        assert rounds.passed
        if any(r.name == "ed/0-equality" for r in res.stats.rounds):
            assert rounds.bound == 5


class TestFormatGuarantees:
    def test_verdict_lines(self):
        s, t, res = _ulam_run(n=128, budget=4)
        text = format_guarantees(check_ulam_guarantees(s, t, res))
        assert text.startswith("guarantees[ulam]: PASS")
        assert "approximation_ratio" in text
        assert "[  ok]" in text

    def test_failure_marked(self):
        s, t, res = _ulam_run(n=128, budget=4)
        bogus = SimpleNamespace(distance=res.distance * 4,
                                params=res.params, stats=res.stats)
        text = format_guarantees(check_ulam_guarantees(s, t, bogus))
        assert "guarantees[ulam]: FAIL" in text
        assert "[FAIL]" in text


class TestRatioEdgeCases:
    def test_zero_distance_exact_match(self):
        s = np.arange(64)
        res = mpc_ulam(s, s.copy(), x=0.4, eps=0.5)
        report = check_ulam_guarantees(s, s.copy(), res)
        ratio = next(c for c in report.checks
                     if c.name == "approximation_ratio")
        assert ratio.passed and ratio.measured == 1.0

    def test_nonzero_claim_on_equal_inputs_fails(self):
        s = np.arange(64)
        res = mpc_ulam(s, s.copy(), x=0.4, eps=0.5)
        params = UlamParams(n=64, x=0.4, eps=0.5)
        bogus = SimpleNamespace(distance=2, params=params,
                                stats=res.stats)
        report = check_ulam_guarantees(s, s.copy(), bogus)
        ratio = next(c for c in report.checks
                     if c.name == "approximation_ratio")
        assert not ratio.passed
