"""Tests for the persistent distance service (repro.service).

The acceptance bar of the service layer: N concurrent mixed queries
share exactly one executor and pay one data-plane publish per corpus
key, every per-query ledger is byte-identical to the one-shot driver
path, admission control rejects bad queries before any round runs, and
shutdown leaves no shared-memory segment behind.
"""

import asyncio
import collections
import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap
import threading

import pytest

from repro.editdistance import mpc_edit_distance
from repro.metrics import enable
from repro.mpc import (Executor, FaultPlan, MPCSimulator,
                       ProcessPoolExecutor, SerialExecutor)
from repro.mpc.shm import active_segments
from repro.mpc.telemetry import current_trace
from repro.params import EditParams, UlamParams
from repro.service import (AdmissionError, Corpus, DistanceService,
                           content_id, run_workload)
from repro.strings import ulam_distance
from repro.ulam import mpc_ulam
from repro.workloads.permutations import planted_pair as perm_pair
from repro.workloads.strings import planted_pair as str_pair

ROOT = pathlib.Path(__file__).resolve().parent.parent
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
    @pytest.mark.parametrize("option", ["max_concurrent_queries",
                                        "max_inflight_rounds"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_non_positive_admission_bounds_rejected(self, option, value):
        # A zero semaphore would make every submission wait forever.
        with pytest.raises(ValueError, match=option):
            DistanceService(**{option: value})

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

    def test_tiny_ulam_inputs_answered_like_one_shot(self):
        pairs = [("", "abc"), ("a", "a"), ("abc", ""), ("b", "abc")]

        async def main():
            async with DistanceService() as service:
                return [await service.submit(
                            "ulam", service.register_corpus(s, t), seed=1)
                        for s, t in pairs]

        for (s, t), outcome in zip(pairs, asyncio.run(main())):
            assert outcome.distance == ulam_distance(s, t) == \
                mpc_ulam(s, t, seed=1).distance
            assert outcome.guarantees["passed"]
            assert _ledger(outcome.result.stats) == _ledger(
                mpc_ulam(s, t, seed=1).stats)
        assert not active_segments()

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

    def test_round_threads_never_share_a_query(self, monkeypatch):
        # An executor that is not the serial one gets max_inflight_rounds
        # round threads.  With more threads than cores and a short switch
        # interval, no query ever has two rounds running at once, and
        # every ledger still equals the one-shot run's.
        class InProcess(Executor):
            def run(self, tasks, broadcast=None):
                return SerialExecutor().run(tasks, broadcast)

        lock = threading.Lock()
        running = collections.Counter()
        overlaps = []
        names = set()
        advance = DistanceService._advance

        def spy(gen):
            qid = current_trace()[1]
            with lock:
                names.add(threading.current_thread().name)
                running[qid] += 1
                if running[qid] > 1:
                    overlaps.append(qid)
            try:
                return advance(gen)
            finally:
                with lock:
                    running[qid] -= 1

        monkeypatch.setattr(DistanceService, "_advance", staticmethod(spy))
        queries = self._mixed_queries()

        async def main():
            async with DistanceService(executor=InProcess(),
                                       max_inflight_rounds=4,
                                       check_guarantees=False) as service:
                handles = [service.submit(
                               q["algo"], service.register_corpus(
                                   q["s"], q["t"]),
                               x=q["x"], eps=q["eps"], seed=q["seed"])
                           for q in queries]
                return await asyncio.wait_for(asyncio.gather(*handles),
                                              timeout=120)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            outcomes = asyncio.run(main())
        finally:
            sys.setswitchinterval(interval)
        assert not overlaps
        assert len(names) > 1
        for q, o in zip(queries, outcomes):
            fn = mpc_ulam if q["algo"] == "ulam" else mpc_edit_distance
            ref = fn(q["s"], q["t"], x=q["x"], eps=q["eps"], seed=q["seed"])
            assert _ledger(o.stats) == _ledger(ref.stats)
        assert not active_segments()

    def test_rounds_alternate_and_the_loop_stays_free(self, monkeypatch):
        # Two multi-round queries on the one serial round thread take
        # turns round by round, an event-loop ticker keeps advancing
        # while their rounds run, and each query hops back to the loop
        # once, not once per round.
        (s_p, t_p), (s_s, t_s) = _pairs()
        turns = []
        ticks = [0]
        hops = []
        advance = DistanceService._advance

        def spy(gen):
            turns.append((current_trace()[1], ticks[0]))
            return advance(gen)

        monkeypatch.setattr(DistanceService, "_advance", staticmethod(spy))

        async def main():
            loop = asyncio.get_running_loop()
            call_soon_threadsafe = loop.call_soon_threadsafe

            def counted(*args, **kwargs):
                hops.append(threading.current_thread().name)
                return call_soon_threadsafe(*args, **kwargs)

            loop.call_soon_threadsafe = counted
            async with DistanceService() as service:
                queries = [service.submit("ulam", service.register_corpus(
                               s_p, t_p), seed=1, check_guarantees=False),
                           service.submit("edit", service.register_corpus(
                               s_s, t_s), seed=1, check_guarantees=False)]
                running = asyncio.gather(*queries)
                while not running.done():
                    ticks[0] += 1
                    await asyncio.sleep(0)
                return await running

        ulam, edit = asyncio.run(main())
        order = [qid for qid, _ in turns]
        ids = {ulam.query_id, edit.query_id}
        assert set(order) == ids
        assert all(order.count(qid) > 2 for qid in ids)
        # Once both are queued, neither runs two rounds in a row until
        # the one that finishes first has run its last.
        second = next(i for i, qid in enumerate(order) if qid != order[0])
        last = min(max(i for i, q in enumerate(order) if q == qid)
                   for qid in ids)
        shared = order[second - 1:last + 1]
        assert len(shared) > 3
        assert all(a != b for a, b in zip(shared, shared[1:]))
        # The loop ran between the rounds: the ticker moved.
        assert len({tick for _, tick in turns}) > 1
        assert len(hops) == 2
        assert all(name.endswith("-rounds_0") for name in hops)


class TestPoolMetrics:
    """A process pool reports every machine counter: machine-side
    metrics ride the machines' results, as work and kernel profiles
    do, so a pool run's ``stats.metrics`` equals the serial run's."""

    def _run(self, algo, executor=None, fault_plan=None):
        if algo == "ulam":
            s, t, _ = perm_pair(256, 16, seed=1)
            fn, params = mpc_ulam, UlamParams(n=256, x=0.25, eps=0.5)
        else:
            s, t, _ = str_pair(256, 16, seed=1)
            fn, params = mpc_edit_distance, EditParams(n=256, x=0.25,
                                                       eps=1.0)
        sim = MPCSimulator(memory_limit=params.memory_limit,
                           executor=executor, fault_plan=fault_plan)
        return fn(s, t, x=params.x, eps=params.eps, seed=1, sim=sim)

    @pytest.mark.parametrize("algo", ["ulam", "edit"])
    def test_pool_metrics_equal_serial(self, algo):
        enable()
        serial = self._run(algo)
        with ProcessPoolExecutor(max_workers=2) as pool:
            pooled = self._run(algo, executor=pool)
        assert pooled.distance == serial.distance
        assert pooled.stats.total_work == serial.stats.total_work
        assert any(k.startswith("strings.dp_cells")
                   for k in serial.stats.metrics)
        assert pooled.stats.metrics == serial.stats.metrics

    def test_fault_plan_counts_surviving_attempts_only(self):
        # Discarded attempts are charged to the recovery fields only:
        # metrics, like total_work, count the attempts that survived.
        enable()
        plan = FaultPlan.from_spec("crash=0.1", seed=5)
        clean = self._run("ulam")
        serial = self._run("ulam", fault_plan=plan)
        with ProcessPoolExecutor(max_workers=2) as pool:
            pooled = self._run("ulam", executor=pool, fault_plan=plan)
        assert serial.stats.failed_attempts > 0
        assert pooled.stats.failed_attempts == serial.stats.failed_attempts
        assert serial.stats.metrics == clean.stats.metrics
        assert pooled.stats.metrics == clean.stats.metrics


class TestPoolService:
    def test_fresh_pool_service_runs_concurrent_batches(self):
        # The pool's workers fork when the service is built, before any
        # round thread exists.  Forked later, from a round thread, a
        # worker could inherit the resource tracker's lock held by a
        # sibling query's publish or attach and hang at its first
        # shared-memory attach.  So concurrent batches with fresh
        # corpora need no sequential warm-up.
        batches = []
        for b in range(4):
            s_p, t_p, _ = perm_pair(N, BUDGET, seed=b, style="mixed")
            s_s, t_s, _ = str_pair(N, BUDGET, sigma=4, seed=b)
            batches.append([("ulam", s_p, t_p), ("edit", s_s, t_s),
                            ("ulam", s_p, t_p)])

        async def main():
            async with DistanceService(max_workers=2) as service:
                pool = service.executor
                workers = set(pool._pool._processes)
                assert len(workers) == 2
                answers = []
                for batch in batches:
                    handles = [service.submit(
                                   algo, service.register_corpus(s, t),
                                   seed=i, check_guarantees=False)
                               for i, (algo, s, t) in enumerate(batch)]
                    answers.append([o.distance for o in
                                    await asyncio.gather(*handles)])
                assert set(pool._pool._processes) == workers
                return answers

        answers = asyncio.run(main())
        for batch, got in zip(batches, answers):
            want = [(mpc_ulam if algo == "ulam" else mpc_edit_distance)(
                        s, t, seed=i).distance
                    for i, (algo, s, t) in enumerate(batch)]
            assert got == want
        assert not active_segments()

    def test_workers_import_no_numpy_module_after_the_fork(self):
        # Machines reach numpy.random (ulam candidates) and numpy.ma
        # (np.unique) at their first query.  Imported by repro before the
        # pool forks, they load once in the parent, not once per worker.
        # A fresh interpreter, so no earlier test has imported them.
        script = textwrap.dedent("""
            import asyncio, random, sys
            from repro.service import DistanceService

            def numpy_modules(_=None):
                return {m for m in sys.modules if m.split(".")[0] == "numpy"}

            rng = random.Random(7)
            s = [rng.randrange(4) for _ in range(128)]
            t = [c if rng.random() > 0.1 else rng.randrange(4) for c in s]
            p = rng.sample(range(128), 128)
            q = p[:9] + p[10:60] + p[9:10] + p[60:]

            async def main():
                at_fork = numpy_modules()
                async with DistanceService(max_workers=2) as service:
                    for algo, a, b in (("edit", s, t), ("ulam", p, q)):
                        await service.submit(
                            algo, service.register_corpus(a, b), seed=1,
                            check_guarantees=False)
                    pool = service.executor._pool
                    seen = set().union(*pool.map(numpy_modules, range(8)))
                print(sorted(seen - at_fork))

            asyncio.run(main())
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
