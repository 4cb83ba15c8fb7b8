"""Segment lifecycle under cancellation, chaos and shutdown (satellite).

A query's scratch plane and its corpus's segments must never outlive
the service, no matter how the query ends: normal exhaustion, injected
machine failures with retries, or ``asyncio.CancelledError`` landing on
any await.  The service's ``close()`` asserts zero leaked segments, so
every test here is double-checked by shutdown itself.
"""

import asyncio
import json

import pytest

from repro.analysis import filter_spans
from repro.metrics import enable
from repro.mpc import FaultPlan, MPCSimulator, RetryPolicy, Tracer
from repro.mpc.shm import active_segments
from repro.params import UlamParams
from repro.service import DistanceService, run_workload
from repro.ulam import mpc_ulam
from repro.workloads.permutations import planted_pair as perm_pair
from repro.workloads.strings import planted_pair as str_pair

N = 256
BUDGET = 16


def _ledger(stats) -> str:
    summary = stats.summary()
    summary.pop("wall_seconds", None)
    return json.dumps(summary, sort_keys=True)


class _RoundSignallingService(DistanceService):
    """A service that calls :attr:`on_round` in the round thread after
    each round it runs."""

    on_round = staticmethod(lambda: None)

    def _advance(self, gen) -> bool:
        done = DistanceService._advance(gen)
        self.on_round()
        return done


class TestCancellation:
    def test_cancel_mid_query_leaves_no_segments(self):
        s, t, _ = perm_pair(N, BUDGET, seed=0, style="mixed")

        async def main():
            first_round = asyncio.Event()
            loop = asyncio.get_running_loop()
            async with _RoundSignallingService() as service:
                service.on_round = lambda: loop.call_soon_threadsafe(
                    first_round.set)
                cid = service.register_corpus(s, t)
                handle = service.submit("ulam", cid, seed=1)
                # Cancel once the first round is done, before the next
                # can: the event is set ahead of the round's own
                # completion, so the cancellation lands mid-query.  The
                # generator is finalised (closing the scratch plane),
                # and only then does the cancellation propagate.
                await first_round.wait()
                assert not handle.done()
                handle.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await handle
            # close() asserted zero active segments already.

        asyncio.run(main())
        assert not active_segments()

    def test_cancel_immediately_after_submit(self):
        s, t, _ = perm_pair(N, BUDGET, seed=0, style="mixed")

        async def main():
            async with DistanceService() as service:
                cid = service.register_corpus(s, t)
                handle = service.submit("ulam", cid, seed=1)
                handle.cancel()  # before the task ever ran
                with pytest.raises(asyncio.CancelledError):
                    await handle

        asyncio.run(main())
        assert not active_segments()

    def test_cancelled_query_does_not_disturb_siblings(self):
        s, t, _ = perm_pair(N, BUDGET, seed=0, style="mixed")
        reference = mpc_ulam(s, t, x=0.25, eps=0.5, seed=2)

        async def main():
            async with DistanceService() as service:
                cid = service.register_corpus(s, t)
                victim = service.submit("ulam", cid, seed=1)
                survivor = service.submit("ulam", cid, seed=2)
                await asyncio.sleep(0.02)
                victim.cancel()
                outcome = await survivor
                with pytest.raises(asyncio.CancelledError):
                    await victim
                return outcome

        outcome = asyncio.run(main())
        assert outcome.distance == reference.distance
        assert _ledger(outcome.stats) == _ledger(reference.stats)
        assert not active_segments()


class TestChaosThroughService:
    SPEC = "crash=0.4,straggle=0.2x4"

    def test_fault_plan_query_matches_one_shot_chaos_run(self):
        s, t, _ = perm_pair(N, BUDGET, seed=0, style="mixed")
        params = UlamParams(n=N, x=0.25, eps=0.5)
        sim = MPCSimulator(
            memory_limit=params.memory_limit,
            fault_plan=FaultPlan.from_spec(self.SPEC, seed=7),
            retry_policy=RetryPolicy(max_attempts=3))
        reference = mpc_ulam(s, t, x=0.25, eps=0.5, seed=2, sim=sim)
        assert reference.stats.total_attempts > reference.stats.n_rounds

        async def main():
            async with DistanceService() as service:
                cid = service.register_corpus(s, t)
                return await service.submit(
                    "ulam", cid, seed=2,
                    fault_plan=FaultPlan.from_spec(self.SPEC, seed=7),
                    max_attempts=3, check_guarantees=False)

        outcome = asyncio.run(main())
        assert outcome.distance == reference.distance
        assert _ledger(outcome.stats) == _ledger(reference.stats)
        assert not active_segments()

    def test_chaos_retries_mid_service_leak_nothing(self):
        s_p, t_p, _ = perm_pair(N, BUDGET, seed=0, style="mixed")
        s_s, t_s, _ = str_pair(N, BUDGET, sigma=4, seed=0)
        plan = FaultPlan.from_spec("crash=0.2,straggle=0.2x4", seed=11)
        queries = [
            {"algo": "ulam", "s": s_p, "t": t_p, "seed": 1,
             "fault_plan": plan, "max_attempts": 6},
            {"algo": "edit", "s": s_s, "t": t_s, "seed": 2,
             "fault_plan": plan, "max_attempts": 6},
            {"algo": "ulam", "s": s_p, "t": t_p, "seed": 3},
        ]
        outcomes, _ = run_workload(queries, check_guarantees=False)
        assert [o.algo for o in outcomes] == ["ulam", "edit", "ulam"]
        assert all(o.distance >= 0 for o in outcomes)
        assert not active_segments()

    def test_exhausted_retries_propagate_and_leak_nothing(self):
        s, t, _ = perm_pair(N, BUDGET, seed=0, style="mixed")

        async def main():
            async with DistanceService() as service:
                cid = service.register_corpus(s, t)
                handle = service.submit(
                    "ulam", cid, seed=1,
                    fault_plan=FaultPlan.from_spec("crash=1.0", seed=1),
                    max_attempts=2, check_guarantees=False)
                with pytest.raises(Exception):
                    await handle

        asyncio.run(main())
        assert not active_segments()


class TestScopeIsolation:
    """Spans and metric deltas never bleed across sibling queries.

    Per-query metrics (carried by each query's own simulator) and the
    tracer's contextvar stamping must hold up under the two ugliest interleavings: a sibling dying
    to ``asyncio.CancelledError`` mid-round, and a sibling burning
    retries against injected faults.  In both cases the unaffected
    query's span slice, metric delta and ledger must be byte-identical
    to a pristine one-shot run of the same parameters.
    """

    def test_cancelled_sibling_leaks_no_spans_or_metrics(self):
        enable()
        s, t, _ = perm_pair(N, BUDGET, seed=0, style="mixed")
        reference = mpc_ulam(s, t, x=0.25, eps=0.5, seed=2)
        tracer = Tracer.in_memory()

        async def main():
            async with DistanceService(tracer=tracer) as service:
                cid = service.register_corpus(s, t)
                victim = service.submit("ulam", cid, seed=1)
                survivor = service.submit("ulam", cid, seed=2)
                await asyncio.sleep(0.02)
                victim.cancel()
                outcome = await survivor
                with pytest.raises(asyncio.CancelledError):
                    await victim
                return outcome

        outcome = asyncio.run(main())
        spans = tracer.spans
        mine = filter_spans(spans, outcome.query_id)
        assert mine
        assert all(sp.trace_id == outcome.trace_id for sp in mine)
        # Whatever the victim emitted before dying carries the victim's
        # ids — nothing unattributed, nothing stamped with the
        # survivor's identity.
        for sp in spans:
            if sp.query_id != outcome.query_id:
                assert sp.query_id >= 0
                assert sp.trace_id and sp.trace_id != outcome.trace_id
        # The survivor's metric delta and ledger match the pristine
        # one-shot run exactly: the cancellation polluted nothing.
        assert outcome.metrics == reference.stats.metrics
        assert _ledger(outcome.stats) == _ledger(reference.stats)
        assert not active_segments()

    def test_chaos_retry_waste_stays_with_faulty_query(self):
        enable()
        s, t, _ = perm_pair(N, BUDGET, seed=0, style="mixed")
        reference = mpc_ulam(s, t, x=0.25, eps=0.5, seed=3)
        tracer = Tracer.in_memory()
        queries = [
            {"algo": "ulam", "s": s, "t": t, "seed": 2,
             "fault_plan": FaultPlan.from_spec(
                 "crash=0.4,straggle=0.2x4", seed=7),
             "max_attempts": 3},
            {"algo": "ulam", "s": s, "t": t, "seed": 3},
        ]
        outcomes, _ = run_workload(queries, tracer=tracer,
                                   check_guarantees=False)
        faulty, clean = outcomes
        assert faulty.stats.total_attempts > faulty.stats.n_rounds

        spans = tracer.spans
        wasted = [sp for sp in spans if sp.wasted]
        assert wasted, "seeded fault plan produced no failed attempts"
        assert {sp.trace_id for sp in wasted} == {faulty.trace_id}
        assert {sp.query_id for sp in wasted} == {faulty.query_id}
        clean_spans = filter_spans(spans, clean.query_id)
        assert clean_spans
        assert not any(sp.wasted for sp in clean_spans)
        # The clean sibling is indistinguishable from a run in an empty
        # process: its sibling's retries charged it nothing.
        assert clean.metrics == reference.stats.metrics
        assert _ledger(clean.stats) == _ledger(reference.stats)
        assert not active_segments()


class TestShutdown:
    def test_drain_then_close_leaves_no_segments(self):
        s_p, t_p, _ = perm_pair(N, BUDGET, seed=0, style="mixed")

        async def main():
            service = DistanceService()
            cid = service.register_corpus(s_p, t_p)
            handles = [service.submit("ulam", cid, seed=i)
                       for i in range(4)]
            await service.drain()
            assert all(h.done() for h in handles)
            # Registered corpora keep their segments alive across
            # drains — a warm service can take more queries...
            assert service.inflight == 0
            outcome = await service.submit("ulam", cid, seed=9)
            assert outcome.distance >= 0
            # ...and only close() unlinks everything.
            await service.close()

        asyncio.run(main())
        assert not active_segments()

    def test_close_is_idempotent(self):
        async def main():
            service = DistanceService()
            await service.close()
            await service.close()

        asyncio.run(main())
