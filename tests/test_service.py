"""Tests for the persistent distance service (repro.service).

The acceptance bar of the service layer: N concurrent mixed queries
share exactly one executor and pay one data-plane publish per corpus
key, every per-query ledger is byte-identical to the one-shot driver
path, admission control rejects bad queries before any round runs, and
shutdown leaves no shared-memory segment behind.
"""

import asyncio
import json
import math
import threading

import pytest

from repro.editdistance import mpc_edit_distance
from repro.metrics import enable
from repro.mpc import FaultPlan
from repro.mpc.shm import active_segments
from repro.service import (AdmissionError, Corpus, DistanceService,
                           ServiceClient, content_id, run_workload)
from repro.ulam import mpc_ulam
from repro.workloads.permutations import planted_pair as perm_pair
from repro.workloads.strings import planted_pair as str_pair

N = 96
BUDGET = 6


def _pairs():
    s_p, t_p, _ = perm_pair(N, BUDGET, seed=0, style="mixed")
    s_s, t_s, _ = str_pair(N, BUDGET, sigma=4, seed=0)
    return (s_p, t_p), (s_s, t_s)


def _ledger(stats) -> str:
    """Canonical byte form of a ledger for identity comparison.

    ``wall_seconds`` is the one clock-derived summary field; everything
    else (work, words, machines, memory, per-round shape, metrics) must
    match byte for byte between the service and one-shot paths.
    """
    summary = stats.summary()
    summary.pop("wall_seconds", None)
    return json.dumps(summary, sort_keys=True)


class TestCorpus:
    def test_content_id_deterministic_and_sensitive(self):
        (s_p, t_p), (s_s, t_s) = _pairs()
        c1 = Corpus(s_p, t_p)
        c2 = Corpus(s_p, t_p)
        c3 = Corpus(s_s, t_s)
        try:
            assert c1.corpus_id == c2.corpus_id == content_id(c1.S, c1.T)
            assert c1.corpus_id != c3.corpus_id
        finally:
            c1.close(), c2.close(), c3.close()

    def test_refcount_unlinks_on_last_release(self):
        (s_p, t_p), _ = _pairs()
        corpus = Corpus(s_p, t_p)
        corpus.edit_plane()  # force a publish
        corpus.retain()
        corpus.release()
        assert not corpus.closed
        corpus.release()
        assert corpus.closed
        assert not active_segments()

    def test_retain_after_close_rejected(self):
        (s_p, t_p), _ = _pairs()
        corpus = Corpus(s_p, t_p)
        corpus.close()
        with pytest.raises(ValueError, match="closed"):
            corpus.retain()

    def test_require_ulam_caches_verdict(self):
        _, (s_s, t_s) = _pairs()
        corpus = Corpus(s_s, t_s, use_plane=False)
        with pytest.raises(ValueError):
            corpus.require_ulam()
        with pytest.raises(ValueError, match="duplicate-free"):
            corpus.require_ulam()  # cached verdict path


class TestServiceBasics:
    def test_single_query_matches_one_shot_byte_for_byte(self):
        (s_p, t_p), (s_s, t_s) = _pairs()
        one_shot_ulam = mpc_ulam(s_p, t_p, x=0.25, eps=0.5, seed=3)
        one_shot_edit = mpc_edit_distance(s_s, t_s, x=0.25, eps=1.0,
                                          seed=3)
        outcomes, _ = run_workload(
            [{"algo": "ulam", "s": s_p, "t": t_p,
              "x": 0.25, "eps": 0.5, "seed": 3},
             {"algo": "edit", "s": s_s, "t": t_s,
              "x": 0.25, "eps": 1.0, "seed": 3}],
            check_guarantees=False)
        assert outcomes[0].distance == one_shot_ulam.distance
        assert outcomes[1].distance == one_shot_edit.distance
        assert _ledger(outcomes[0].stats) == _ledger(one_shot_ulam.stats)
        assert _ledger(outcomes[1].stats) == _ledger(one_shot_edit.stats)

    def test_register_corpus_is_content_addressed(self):
        (s_p, t_p), _ = _pairs()

        async def main():
            async with DistanceService() as service:
                a = service.register_corpus(s_p, t_p)
                b = service.register_corpus(s_p, t_p)
                assert a == b
                assert service.corpus(a) is service.corpus(b)

        asyncio.run(main())

    def test_unknown_corpus_rejected(self):
        async def main():
            async with DistanceService() as service:
                with pytest.raises(AdmissionError, match="unknown corpus"):
                    service.submit("ulam", "no-such-corpus")

        asyncio.run(main())

    def test_unknown_algorithm_rejected(self):
        (s_p, t_p), _ = _pairs()

        async def main():
            async with DistanceService() as service:
                cid = service.register_corpus(s_p, t_p)
                with pytest.raises(AdmissionError, match="unknown algo"):
                    service.submit("hamming", cid)

        asyncio.run(main())

    def test_ulam_on_duplicated_corpus_rejected_at_admission(self):
        _, (s_s, t_s) = _pairs()

        async def main():
            async with DistanceService() as service:
                cid = service.register_corpus(s_s, t_s)
                with pytest.raises(AdmissionError, match="duplicate"):
                    service.submit("ulam", cid)
                # The same corpus still serves edit queries.
                outcome = await service.submit("edit", cid, seed=1)
                assert outcome.distance >= 0

        asyncio.run(main())

    def test_memory_cap_rejects_oversized_query(self):
        (s_p, t_p), _ = _pairs()

        async def main():
            async with DistanceService(machine_memory_cap=10) as service:
                cid = service.register_corpus(s_p, t_p)
                with pytest.raises(AdmissionError, match="memory"):
                    service.submit("ulam", cid)

        asyncio.run(main())

    @pytest.mark.parametrize("algo", ["ulam", "edit"])
    @pytest.mark.parametrize("engine", [None, "auto"])
    @pytest.mark.parametrize("eps", [math.nan, math.inf, -0.5])
    def test_bad_eps_rejected_at_admission(self, algo, engine, eps):
        (s_p, t_p), _ = _pairs()

        async def main():
            async with DistanceService() as service:
                cid = service.register_corpus(s_p, t_p)
                with pytest.raises(AdmissionError, match="eps must be"):
                    service.submit(algo, cid, engine=engine, eps=eps)
                queries = service.status()["queries"]
                assert queries["total"] == queries["failed"] == 0

        asyncio.run(main())

    @pytest.mark.parametrize("retry, match", [
        ({"max_attempts": 0}, "max_attempts"),
        ({"on_exhausted": "bogus"}, "on_exhausted"),
    ])
    def test_bad_retry_settings_rejected_at_admission(self, retry, match):
        (s_p, t_p), _ = _pairs()

        async def main():
            async with DistanceService() as service:
                cid = service.register_corpus(s_p, t_p)
                with pytest.raises(AdmissionError, match=match):
                    service.submit("ulam", cid,
                                   fault_plan=FaultPlan(crash=0.1), **retry)
                queries = service.status()["queries"]
                assert queries["total"] == queries["failed"] == 0

        asyncio.run(main())

    def test_submit_after_close_rejected(self):
        (s_p, t_p), _ = _pairs()

        async def main():
            service = DistanceService()
            cid = service.register_corpus(s_p, t_p)
            await service.close()
            with pytest.raises(AdmissionError, match="shutting down"):
                service.submit("ulam", cid)
            with pytest.raises(AdmissionError, match="shutting down"):
                service.register_corpus(s_p, t_p)

        asyncio.run(main())

    def test_guarantee_monitor_runs_per_query(self):
        (s_p, t_p), _ = _pairs()
        outcomes, _ = run_workload(
            [{"algo": "ulam", "s": s_p, "t": t_p, "seed": i}
             for i in range(3)],
            check_guarantees=True)
        for o in outcomes:
            assert o.guarantees_passed is True
            assert o.guarantees["checks"]


class TestConcurrentMultiplexing:
    """The tentpole acceptance criteria, N >= 8 mixed queries."""

    N_QUERIES = 8

    def _mixed_queries(self):
        (s_p, t_p), (s_s, t_s) = _pairs()
        out = []
        for i in range(self.N_QUERIES):
            if i % 2 == 0:
                out.append({"algo": "ulam", "s": s_p, "t": t_p,
                            "x": 0.25, "eps": 0.5, "seed": i})
            else:
                out.append({"algo": "edit", "s": s_s, "t": t_s,
                            "x": 0.25, "eps": 1.0, "seed": i})
        return out

    def test_one_executor_one_publish_per_corpus_exact_ledgers(self):
        enable()
        queries = self._mixed_queries()

        # One-shot reference ledgers, each in its own pristine run.
        references = []
        for q in queries:
            fn = mpc_ulam if q["algo"] == "ulam" else mpc_edit_distance
            references.append(fn(q["s"], q["t"], x=q["x"], eps=q["eps"],
                                 seed=q["seed"]))

        async def main():
            async with DistanceService() as service:
                executors = set()
                corpus_ids = set()
                handles = []
                for q in queries:
                    cid = service.register_corpus(q["s"], q["t"])
                    corpus_ids.add(cid)
                    handles.append(service.submit(
                        q["algo"], cid, x=q["x"], eps=q["eps"],
                        seed=q["seed"], check_guarantees=True))
                # Every admitted query runs on the service's executor.
                executors.add(id(service.executor))
                outcomes = await asyncio.gather(*handles)
                # Two distinct input pairs -> exactly two corpora, each
                # having published each of its keys at most once even
                # with 4 concurrent queries racing on the first round.
                assert len(corpus_ids) == 2
                publishes = {}
                for cid in corpus_ids:
                    corpus = service.corpus(cid)
                    publishes[cid] = corpus.publish_count
                return outcomes, executors, publishes

        outcomes, executors, publishes = asyncio.run(main())
        assert len(executors) == 1
        # ulam corpus publishes its position table once; the edit corpus
        # publishes S and T once each.
        assert sorted(publishes.values()) == [1, 2]
        for o, ref in zip(outcomes, references):
            assert o.distance == ref.distance
            assert _ledger(o.stats) == _ledger(ref.stats), \
                f"query #{o.query_id} ledger diverged from one-shot"
            assert o.guarantees_passed is True
        assert not active_segments()

    def test_metrics_deltas_do_not_bleed_between_queries(self):
        enable()
        queries = self._mixed_queries()
        outcomes, _ = run_workload(queries, check_guarantees=False)
        for q, o in zip(queries, outcomes):
            fn = mpc_ulam if q["algo"] == "ulam" else mpc_edit_distance
            ref = fn(q["s"], q["t"], x=q["x"], eps=q["eps"],
                     seed=q["seed"])
            assert o.metrics == ref.stats.metrics, \
                f"query #{o.query_id} metrics delta diverged"

    def test_outcomes_return_in_submission_order(self):
        queries = self._mixed_queries()
        outcomes, _ = run_workload(queries, check_guarantees=False)
        assert [o.algo for o in outcomes] == [q["algo"] for q in queries]
        assert [o.params["seed"] for o in outcomes] \
            == [q["seed"] for q in queries]

    def test_admission_caps_bound_concurrency(self):
        queries = self._mixed_queries()
        outcomes, _ = run_workload(queries, max_concurrent_queries=2,
                                   max_inflight_rounds=1,
                                   check_guarantees=False)
        assert len(outcomes) == self.N_QUERIES
        reference, _ = run_workload(queries, check_guarantees=False)
        for tight, loose in zip(outcomes, reference):
            assert _ledger(tight.stats) == _ledger(loose.stats)


    def test_serial_rounds_run_on_one_thread(self, monkeypatch):
        names = set()
        advance = DistanceService._advance

        def spy(gen):
            names.add(threading.current_thread().name)
            return advance(gen)

        monkeypatch.setattr(DistanceService, "_advance", staticmethod(spy))
        outcomes, _ = run_workload(self._mixed_queries(),
                                   check_guarantees=False)
        assert len(outcomes) == self.N_QUERIES
        assert len(names) == 1 and names.pop().endswith("-rounds_0")


class TestServiceClient:
    def test_async_facade_and_batch(self):
        (s_p, t_p), (s_s, t_s) = _pairs()

        async def main():
            async with DistanceService() as service:
                client = ServiceClient(service)
                perm = client.register(s_p, t_p)
                strs = client.register(s_s, t_s)
                solo = await client.ulam(perm, seed=1)
                batch = await client.batch([
                    ("ulam", perm, {"seed": 1}),
                    ("edit", strs, {"seed": 2}),
                ])
                return solo, batch

        solo, batch = asyncio.run(main())
        assert solo.distance == batch[0].distance
        assert batch[0].algo == "ulam" and batch[1].algo == "edit"
        assert not active_segments()

    def test_release_corpus_keeps_inflight_queries_alive(self):
        (s_p, t_p), _ = _pairs()

        async def main():
            async with DistanceService() as service:
                cid = service.register_corpus(s_p, t_p)
                handle = service.submit("ulam", cid, seed=1)
                service.release_corpus(cid)  # drop registration ref
                outcome = await handle
                assert outcome.distance >= 0

        asyncio.run(main())
        assert not active_segments()
