"""Tests for the pluggable engine registry (repro.engines).

The acceptance bar of the registry port: at least seven engines behind
one protocol, ``select_engine`` plans by capability (exact below the
crossover, MPC/approximate beyond it, guarantee classes honoured), an
unsatisfiable request raises the typed :class:`NoEngineError` (never a
bare ``KeyError``), the MPC engines' ledgers stay byte-identical to the
pre-registry driver paths (golden fixtures), the two new approximators
pass their own guarantee checks, and the service admits queries through
engine capabilities.
"""

import asyncio
import json
import pathlib

import numpy as np
import pytest

from repro.engines import (EngineRequest, NoEngineError, all_engines,
                           default_engine, distances, engines_for,
                           get_engine, select_engine, workload_kind)
from repro.engines.builtin import EXACT_CROSSOVER_N
from repro.strings import levenshtein, ulam_distance
from repro.workloads.permutations import planted_pair as perm_pair
from repro.workloads.strings import planted_pair as str_pair

GOLDEN = pathlib.Path(__file__).parent / "golden"

#: Per-round ledger fields frozen by tests/golden (generate.py).
LEDGER_FIELDS = ("name", "machines", "max_input_words", "max_output_words",
                 "total_input_words", "total_output_words", "max_work",
                 "total_work")


def _ledger(stats) -> list:
    rounds = [{f: getattr(r, f) for f in LEDGER_FIELDS}
              for r in stats.rounds]
    return json.loads(json.dumps(rounds, sort_keys=True))


def _golden(case: str) -> dict:
    return json.loads((GOLDEN / f"{case}.json").read_text())


class TestRegistrySurface:
    def test_six_builtin_engines(self):
        names = [e.caps.name for e in all_engines()]
        assert sorted(names) == ["beghs", "edit-mpc", "exact-edit",
                                 "exact-ulam", "hss", "ulam-mpc"]

    def test_distances_cover_both_metrics(self):
        assert set(distances()) >= {"ulam", "edit"}
        for d in distances():
            assert engines_for(d), f"no engine answers {d}"

    def test_default_engine_is_the_papers_primary(self):
        assert default_engine("ulam").caps.name == "ulam-mpc"
        assert default_engine("edit").caps.name == "edit-mpc"

    def test_workload_kind_follows_duplicate_free_precondition(self):
        assert workload_kind("ulam") == "perm"
        assert workload_kind("edit") == "str"

    def test_unknown_engine_raises_typed_error_not_keyerror(self):
        with pytest.raises(NoEngineError) as ei:
            get_engine("no-such-engine")
        assert not isinstance(ei.value, KeyError)
        assert isinstance(ei.value, LookupError)
        assert "ulam-mpc" in str(ei.value)  # lists what exists

    def test_capabilities_are_self_describing(self):
        for eng in all_engines():
            caps = eng.capabilities()
            assert caps.distances
            assert caps.guarantee_class in ("exact", "1+eps", "3+eps")
            assert caps.cost.predicted_work(1024) > 0
            assert caps.regime.describe()


class TestSelectEngine:
    def test_exact_wins_below_crossover(self):
        s, t, _ = perm_pair(256, 8, seed=0, style="mixed")
        eng = select_engine(EngineRequest(distance="ulam", s=s, t=t))
        assert eng.caps.name == "exact-ulam"
        s2, t2, _ = str_pair(256, 8, sigma=4, seed=0)
        eng2 = select_engine(EngineRequest(distance="edit", s=s2, t=t2))
        assert eng2.caps.name == "exact-edit"

    def test_exact_refused_above_crossover(self):
        n = EXACT_CROSSOVER_N + 1
        s = np.arange(n, dtype=np.int64)
        t = np.roll(s, 7)
        eng = select_engine(EngineRequest(distance="ulam", s=s, t=t))
        assert eng.caps.name == "ulam-mpc"  # the only ulam engine left

    def test_guarantee_class_filters_weaker_engines(self):
        s, t, _ = str_pair(128, 8, sigma=4, seed=1)
        eng = select_engine(EngineRequest(distance="edit", s=s, t=t,
                                          guarantee="1+eps"))
        # exact (stronger) stays admissible; 3+eps must not win.
        assert eng.caps.guarantee_class in ("exact", "1+eps")
        with pytest.raises(NoEngineError):
            select_engine(EngineRequest(distance="ulam", s=[1, 1, 2],
                                        t=[2, 1, 1], guarantee="exact"))

    def test_duplicates_rule_out_every_ulam_engine(self):
        with pytest.raises(NoEngineError) as ei:
            select_engine(EngineRequest(distance="ulam", s=[1, 1, 2],
                                        t=[2, 1, 1]))
        assert "duplicate-free" in str(ei.value)
        assert ei.value.reasons  # per-engine refusal listing

    def test_unknown_distance_raises_with_reasons(self):
        with pytest.raises(NoEngineError):
            select_engine(EngineRequest(distance="hamming",
                                        s=[1], t=[2]))

    def test_measured_history_overrides_cost_model(self):
        s, t, _ = perm_pair(256, 8, seed=2, style="mixed")
        history = [{"engine": "ulam-mpc", "params": {"n": 256},
                    "summary": {"total_work": 10}}]
        eng = select_engine(EngineRequest(distance="ulam", s=s, t=t),
                            history=history)
        assert eng.caps.name == "ulam-mpc"
        # Pre-registry records (no engine field) are ignored.
        legacy = [{"command": "ulam", "params": {"n": 256},
                   "summary": {"total_work": 10}}]
        eng2 = select_engine(EngineRequest(distance="ulam", s=s, t=t),
                             history=legacy)
        assert eng2.caps.name == "exact-ulam"

    def test_paper_policy_prefers_primary_engines(self):
        s, t, _ = str_pair(128, 8, sigma=4, seed=3)
        eng = select_engine(EngineRequest(distance="edit", s=s, t=t),
                            policy="paper")
        assert eng.caps.name == "edit-mpc"
        with pytest.raises(ValueError):
            select_engine(EngineRequest(distance="edit", s=s, t=t),
                          policy="fastest")


class TestGoldenEquivalenceThroughEngines:
    """The registry port must not change a single ledger word."""

    def test_ulam_engine_matches_fixture(self):
        fixture = _golden("ulam")
        s, t, _ = perm_pair(256, 16, seed=3, style="mixed")
        eres = get_engine("ulam-mpc").solve(EngineRequest(
            distance="ulam", s=s, t=t, x=0.4, eps=0.5, seed=7))
        assert eres.distance == fixture["distance"]
        assert _ledger(eres.stats) == fixture["rounds"]

    def test_edit_engine_matches_fixture(self):
        fixture = _golden("edit_small")
        s, t, _ = str_pair(256, 12, sigma=4, seed=5)
        eres = get_engine("edit-mpc").solve(EngineRequest(
            distance="edit", s=s, t=t, x=0.25, eps=1.0, seed=9))
        assert eres.distance == fixture["distance"]
        assert eres.extra["regime"] == fixture["regime"]
        assert eres.extra["accepted_guess"] == fixture["accepted_guess"]
        assert _ledger(eres.stats) == fixture["rounds"]

    def test_hss_engine_matches_fixture(self):
        fixture = _golden("hss")
        s, t, _ = str_pair(128, 8, sigma=4, seed=10)
        eres = get_engine("hss").solve(EngineRequest(
            distance="edit", s=s, t=t, x=0.25, eps=1.0))
        assert eres.distance == fixture["distance"]
        assert _ledger(eres.stats) == fixture["rounds"]

    def test_beghs_engine_matches_fixture(self):
        fixture = _golden("beghs")
        s, t, _ = str_pair(128, 8, sigma=4, seed=12)
        eres = get_engine("beghs").solve(EngineRequest(
            distance="edit", s=s, t=t, eps=1.0))
        assert eres.distance == fixture["distance"]
        assert _ledger(eres.stats) == fixture["rounds"]

    def test_exact_engines_match_fixture(self):
        fixture = _golden("single_machine")
        s1, t1, _ = str_pair(150, 9, sigma=4, seed=14)
        s2, t2, _ = perm_pair(150, 9, seed=15, style="mixed")
        ed = get_engine("exact-edit").solve(EngineRequest(
            distance="edit", s=s1, t=t1))
        ul = get_engine("exact-ulam").solve(EngineRequest(
            distance="ulam", s=s2, t=t2))
        assert ed.distance == fixture["edit_distance"]
        assert ul.distance == fixture["ulam_distance"]
        assert _ledger(ed.stats) == fixture["edit_rounds"]
        assert _ledger(ul.stats) == fixture["ulam_rounds"]


class TestEngineGuarantees:
    """Every engine passes its own guarantee check on a planted pair."""

    @pytest.mark.parametrize("name", sorted(
        e.caps.name for e in all_engines()
        if {"ulam", "edit"} & set(e.caps.distances)))
    def test_engine_passes_own_guarantee_check(self, name):
        eng = get_engine(name)
        distance = eng.caps.distances[0]
        if workload_kind(distance) == "perm" or \
                eng.caps.regime.requires_duplicate_free:
            s, t, _ = perm_pair(192, 10, seed=4, style="mixed")
        else:
            s, t, _ = str_pair(192, 10, sigma=4, seed=4)
        eres = eng.solve(EngineRequest(distance=distance, s=s, t=t))
        report = eng.check_guarantees(s, t, eres)
        assert report.passed, report.to_dict()

    def test_exact_engines_agree_with_kernels(self):
        s, t, _ = str_pair(160, 9, sigma=4, seed=7)
        p, q, _ = perm_pair(160, 9, seed=7, style="mixed")
        assert get_engine("exact-edit").solve(EngineRequest(
            distance="edit", s=s, t=t)).distance == levenshtein(s, t)
        assert get_engine("exact-ulam").solve(EngineRequest(
            distance="ulam", s=p, t=q)).distance == ulam_distance(p, q)


class TestServiceEngineAdmission:
    """submit(engine=...) resolves and admits through capabilities."""

    def _run(self, coro):
        return asyncio.run(coro)

    def test_named_engine_runs_and_tags_outcome(self):
        from repro.service import DistanceService

        async def main():
            async with DistanceService() as svc:
                s, t, _ = str_pair(96, 6, sigma=4, seed=0)
                cid = svc.register_corpus(s, t)
                out = await svc.submit("edit", cid, engine="exact-edit")
                assert out.engine == "exact-edit"
                assert out.distance == levenshtein(s, t)
                assert out.guarantees_passed

        self._run(main())

    def test_auto_engine_plans_per_corpus(self):
        from repro.service import DistanceService

        async def main():
            async with DistanceService() as svc:
                s, t, _ = perm_pair(96, 6, seed=1, style="mixed")
                cid = svc.register_corpus(s, t)
                out = await svc.submit("ulam", cid, engine="auto")
                assert out.engine == "exact-ulam"  # below crossover
                assert out.distance == ulam_distance(s, t)

        self._run(main())

    def test_engine_distance_mismatch_rejected_at_admission(self):
        from repro.service import AdmissionError, DistanceService

        async def main():
            async with DistanceService() as svc:
                s, t, _ = str_pair(96, 6, sigma=4, seed=2)
                cid = svc.register_corpus(s, t)
                with pytest.raises(AdmissionError):
                    svc.submit("edit", cid, engine="ulam-mpc")
                with pytest.raises(AdmissionError):
                    svc.submit("edit", cid, engine="no-such-engine")

        self._run(main())

    def test_duplicate_corpus_rejected_for_ulam_engines(self):
        from repro.service import AdmissionError, DistanceService

        async def main():
            async with DistanceService() as svc:
                cid = svc.register_corpus([1, 1, 2], [2, 1, 1])
                with pytest.raises(AdmissionError):
                    svc.submit("ulam", cid, engine="exact-ulam")

        self._run(main())

    def test_default_engine_is_unchanged_mpc_path(self):
        from repro.service import DistanceService

        async def main():
            async with DistanceService() as svc:
                s, t, _ = str_pair(96, 6, sigma=4, seed=3)
                cid = svc.register_corpus(s, t)
                out = await svc.submit("edit", cid)
                assert out.engine == "edit-mpc"

        self._run(main())
