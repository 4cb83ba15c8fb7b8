"""The asyncio distance service: many queries, one pool, one data plane.

:class:`DistanceService` multiplexes concurrent ulam/edit queries over a
single persistent executor and per-corpus shared-memory segments:

* :meth:`~DistanceService.register_corpus` publishes an input pair once
  (content-addressed — re-registering the same pair is a no-op returning
  the same id; reference-counted — segments outlive every in-flight
  query but not the service);
* :meth:`~DistanceService.submit` resolves the query to a registry
  engine (:mod:`repro.engines`) — the distance's canonical engine by
  default, a named engine or the ``"auto"`` planner on request — and
  admits it against the engine's capabilities (unknown corpus, a
  distance the engine does not answer, an input outside the engine's
  regime, a duplicate-carrying corpus for a duplicate-free engine,
  per-machine memory above the service cap, or a closing service all
  raise :class:`AdmissionError` *before* any round runs), returning an
  awaitable :class:`QueryHandle`;
* every query is a resumable generator (the engine's
  :meth:`~repro.engines.Engine.make_query` — the native ``UlamQuery`` /
  ``EditQuery`` for the paper's drivers, a one-step
  :class:`~repro.engines.SolveStepQuery` for everything else) admitted
  through one semaphore (``max_concurrent_queries``) into a round
  scheduler: a FIFO run queue served by service-owned threads.  A
  thread pops a query, runs one MPC round of it and puts it back at the
  tail, so concurrent queries interleave round by round while the event
  loop stays free, and a query hops back to the loop once, when it
  ends.  A serial executor gets one thread: its machines hold the
  interpreter lock, so a second thread could not overlap them.  A
  process pool gets ``max_inflight_rounds`` threads, which bounds the
  rounds whose machine work is in flight at once — the service-level
  analogue of the paper's per-round machine budget;
* per-query ledgers, metrics included, come from the query's own
  simulator, so concurrent queries never bleed into each other's
  :class:`~repro.mpc.accounting.RunStats`, a process pool reports what
  the serial executor does, and each ledger is byte-identical to the
  one-shot driver path (golden-equivalence suite); each finished
  query's metrics fold into the process-wide registry ``/metrics``
  renders;
* :meth:`~DistanceService.close` drains in-flight queries, releases
  every corpus, shuts the owned executor down, and asserts
  :func:`~repro.mpc.shm.active_segments` is empty — a leak anywhere in
  the query lifecycle fails shutdown loudly rather than silently
  outliving the service.

Cancellation: an MPC round is not interruptible mid-flight (machine
functions run to completion), so cancelling a query flags it in the run
queue; its thread lets an in-flight round finish, runs no further round,
finalises the query generator — which closes the query's scratch plane
— and only then lets the cancellation propagate.  Segments therefore
never leak, whichever await the cancellation lands on.
"""

from __future__ import annotations

import asyncio
import collections
import contextvars
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..engines import (Engine, EngineRequest, NoEngineError,
                       default_engine, distances, get_engine,
                       select_engine)
from ..metrics import get_registry, metric_key
from ..mpc.executor import Executor, ProcessPoolExecutor, SerialExecutor
from ..mpc.faults import FaultPlan, RetryPolicy
from ..mpc.shm import active_segments
from ..mpc.simulator import MPCSimulator
from ..mpc.telemetry import Tracer, trace_context
from ..params import check_eps
from .corpus import Corpus

__all__ = ["AdmissionError", "QueryOutcome", "QueryHandle",
           "DistanceService"]

#: Process-wide service sequence, so trace ids stay unique when several
#: services coexist (tests, notebooks): ``svc<k>-q<id>``.
_SERVICE_SEQ = itertools.count(1)


class AdmissionError(RuntimeError):
    """A query (or registration) was rejected before any round ran."""


@dataclass
class QueryOutcome:
    """Everything one finished query reports.

    ``result`` is the driver-native result object (``UlamResult`` /
    ``EditResult``) whose ``stats`` ledger and ``stats.metrics``
    snapshot are exclusively this query's; ``guarantees`` is the
    :class:`~repro.analysis.guarantees.GuaranteeReport` dict when the
    service checked them (service default), else ``None``.
    """

    query_id: int
    algo: str
    corpus_id: str
    params: Dict[str, object]
    distance: int
    result: object
    latency_seconds: float
    guarantees: Optional[dict] = None
    engine: str = ""
    trace_id: str = ""

    @property
    def stats(self):
        """The query's own :class:`~repro.mpc.accounting.RunStats`."""
        return self.result.stats

    @property
    def metrics(self) -> dict:
        """The query's own metrics snapshot (``stats.metrics``)."""
        return self.result.stats.metrics

    @property
    def guarantees_passed(self) -> Optional[bool]:
        """Verdict of the guarantee monitor, ``None`` when not checked."""
        if self.guarantees is None:
            return None
        return bool(self.guarantees.get("passed"))

    def summary(self) -> Dict[str, object]:
        """The result's summary dict (same shape as the one-shot path)."""
        return self.result.summary()


class QueryHandle:
    """Awaitable handle for a submitted query.

    ``await handle`` yields the :class:`QueryOutcome` (re-raising the
    query's exception, including :class:`asyncio.CancelledError` after
    :meth:`cancel`).
    """

    __slots__ = ("query_id", "algo", "corpus_id", "engine", "trace_id",
                 "_task")

    def __init__(self, query_id: int, algo: str, corpus_id: str,
                 task: "asyncio.Task", engine: str = "",
                 trace_id: str = "") -> None:
        self.query_id = query_id
        self.algo = algo
        self.corpus_id = corpus_id
        self.engine = engine
        self.trace_id = trace_id
        self._task = task

    def __await__(self):
        return self._task.__await__()

    def cancel(self) -> bool:
        """Request cancellation (in-flight round still completes)."""
        return self._task.cancel()

    def done(self) -> bool:
        return self._task.done()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self._task.done() else "running"
        return (f"QueryHandle(#{self.query_id} {self.algo} "
                f"engine={self.engine} corpus={self.corpus_id} {state})")


@dataclass
class _QuerySpec:
    """Internal record of one admitted query's configuration."""

    algo: str
    engine: Engine
    x: Optional[float]
    eps: Optional[float]
    seed: int
    fault_plan: Optional[FaultPlan] = None
    retry_policy: Optional[RetryPolicy] = None
    check_guarantees: bool = True
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def engine_name(self) -> str:
        return self.engine.caps.name


class _Run:
    """One admitted query in the round scheduler's run queue."""

    __slots__ = ("gen", "context", "future", "error", "cancelled")

    def __init__(self, gen) -> None:
        self.gen = gen
        # Captured once: every round of the query runs in this context.
        self.context = contextvars.copy_context()
        self.future = asyncio.get_running_loop().create_future()
        self.error: Optional[BaseException] = None
        self.cancelled = False


class _RoundScheduler:
    """Round-robin run queue of query generators on service threads.

    A worker pops the query at the head, runs one round of it through
    ``advance`` inside the query's context and puts it back at the tail,
    so concurrent queries interleave round by round while the event loop
    stays free.  A query crosses back to the loop once, when it finishes,
    fails or is cancelled.  Threads start at the first query and are
    named ``<name>_<i>``.
    """

    def __init__(self, threads: int, name: str, advance) -> None:
        self._size = threads
        self._name = name
        self._advance = advance
        self._queue: "collections.deque[_Run]" = collections.deque()
        self._ready = threading.Condition()
        self._threads: list = []
        self._stopped = False

    async def run(self, gen) -> None:
        """Run *gen* to exhaustion, one round per turn of the queue.

        Cancelling the awaiting task flags the query: the worker lets an
        in-flight round finish, closes the generator on its own thread
        and only then resolves the query, so the cancellation propagates
        after the query's cleanup ran.
        """
        run = _Run(gen)
        with self._ready:
            if not self._threads:
                self._threads = [
                    threading.Thread(target=self._work, daemon=True,
                                     name=f"{self._name}_{i}")
                    for i in range(self._size)]
                for thread in self._threads:
                    thread.start()
            self._queue.append(run)
            self._ready.notify()
        try:
            await asyncio.shield(run.future)
        except asyncio.CancelledError:
            run.cancelled = True
            while not run.future.done():
                try:
                    await asyncio.shield(run.future)
                except asyncio.CancelledError:
                    pass
            raise
        if run.error is not None:
            raise run.error

    def _work(self) -> None:
        queue, ready = self._queue, self._ready
        while True:
            with ready:
                while not queue:
                    if self._stopped:
                        return
                    ready.wait()
                run = queue.popleft()
            try:
                done = run.cancelled \
                    or run.context.run(self._advance, run.gen)
                if run.cancelled:
                    # Flagged before or during this round: the query's
                    # cleanup runs here, before the cancellation
                    # propagates.
                    run.context.run(run.gen.close)
                    done = True
            except BaseException as exc:  # the query's task raises it
                run.error, done = exc, True
            if not done:
                with ready:
                    queue.append(run)
                continue
            try:
                run.future.get_loop().call_soon_threadsafe(
                    run.future.set_result, None)
            except RuntimeError:  # the query's loop is closed
                pass

    def shutdown(self) -> None:
        """Stop the workers once the queue is empty; join them."""
        with self._ready:
            self._stopped = True
            self._ready.notify_all()
        for thread in self._threads:
            thread.join()


class DistanceService:
    """Concurrent ulam/edit query multiplexer (see module docstring).

    Parameters
    ----------
    max_workers:
        ``> 0`` builds one shared
        :class:`~repro.mpc.executor.ProcessPoolExecutor` — every query's
        rounds run on the *same* persistent pool, whose workers start
        here, before any round thread exists.  Default (``None``) uses
        a shared :class:`~repro.mpc.executor.SerialExecutor`.
    executor:
        Alternatively, bring your own executor; the service then does
        not close it at shutdown.
    max_concurrent_queries:
        Admission bound on queries executing rounds at once (further
        submissions queue on the semaphore, they are not rejected).
    max_inflight_rounds:
        Bound on MPC rounds executing machine work simultaneously
        across all queries — the service-level machine-work throttle:
        the round threads of a process pool.  A serial executor runs
        one round at a time on one thread.
    machine_memory_cap:
        Optional cap (words) on the per-machine memory a query's
        parameters imply; queries over the cap are rejected at
        admission.  ``None`` admits any memory limit.
    data_plane:
        Publish corpora into shared memory (default).  ``False`` runs
        copy-payload rounds (descriptor-free), e.g. for A/B tests.
    check_guarantees:
        Run the paper's guarantee monitor on every outcome (default;
        per-submit override available).
    tracer:
        Optional tracer shared by every query's simulator and plane.
    """

    def __init__(self, max_workers: Optional[int] = None,
                 executor: Optional[Executor] = None,
                 max_concurrent_queries: int = 8,
                 max_inflight_rounds: int = 4,
                 machine_memory_cap: Optional[int] = None,
                 data_plane: bool = True,
                 check_guarantees: bool = True,
                 tracer: Optional[Tracer] = None) -> None:
        for name, bound in (("max_concurrent_queries",
                             max_concurrent_queries),
                            ("max_inflight_rounds", max_inflight_rounds)):
            if bound < 1:
                raise ValueError(f"{name} must be >= 1, got {bound!r}")
        if executor is not None:
            self._executor = executor
            self._owns_executor = False
        elif max_workers:
            self._executor = ProcessPoolExecutor(max_workers=max_workers)
            self._owns_executor = True
            # Fork the workers before any round thread exists.
            self._executor.start()
        else:
            self._executor = SerialExecutor()
            self._owns_executor = True
        self._tag = f"svc{next(_SERVICE_SEQ)}"
        # Serial machines hold the interpreter lock, so one thread runs
        # their rounds back to back; a pool takes one per round in flight.
        self._rounds = _RoundScheduler(
            1 if isinstance(self._executor, SerialExecutor)
            else max_inflight_rounds,
            f"{self._tag}-rounds", self._advance)
        self._max_concurrent_queries = max_concurrent_queries
        self._max_inflight_rounds = max_inflight_rounds
        self._machine_memory_cap = machine_memory_cap
        self._data_plane = data_plane
        self._check_guarantees = check_guarantees
        self._tracer = tracer
        self._corpora: Dict[str, Corpus] = {}
        self._handles: Dict[int, QueryHandle] = {}
        self._ids = itertools.count(1)
        self._query_slots: Optional[asyncio.Semaphore] = None
        self._closing = False
        self._closed = False
        # Plain-int observability counters (no registry dependence, so
        # /healthz works whether or not metrics collection is enabled).
        self._queued = 0
        self._queries_total = 0
        self._queries_failed = 0
        self._engine_queries: Dict[str, int] = {}

    # -- introspection -------------------------------------------------
    @property
    def executor(self) -> Executor:
        """The one executor every query's simulator shares."""
        return self._executor

    def corpus(self, corpus_id: str) -> Corpus:
        """The registered corpus, or :class:`KeyError`."""
        return self._corpora[corpus_id]

    @property
    def inflight(self) -> int:
        """Queries admitted and not yet finished."""
        return sum(1 for h in self._handles.values() if not h.done())

    def status(self) -> Dict[str, object]:
        """Live service snapshot for the observability endpoints.

        Plain JSON-serialisable data, safe to read from any thread (the
        HTTP exporter's handler threads call this concurrently with the
        event loop): admission state, in-flight/queued query counts,
        corpus and shared-memory-segment accounting, executor liveness,
        and per-engine query totals since construction.
        """
        executor = self._executor
        return {
            "service": self._tag,
            "admission": ("closed" if self._closed
                          else "closing" if self._closing else "open"),
            "inflight": self.inflight,
            "queued": self._queued,
            "corpora": len(self._corpora),
            "active_segments": len(active_segments()),
            "executor": {
                "type": type(executor).__name__,
                # A lazy pool that has not spawned yet is healthy; a
                # closed service's executor is not.
                "alive": not self._closed,
                "pool_running": bool(getattr(executor, "running", False)),
            },
            "limits": {
                "max_concurrent_queries": self._max_concurrent_queries,
                "max_inflight_rounds": self._max_inflight_rounds,
                "machine_memory_cap": self._machine_memory_cap,
            },
            "queries": {
                "total": self._queries_total,
                "failed": self._queries_failed,
                "by_engine": dict(sorted(self._engine_queries.items())),
            },
        }

    # -- corpus registry -----------------------------------------------
    def register_corpus(self, s, t) -> str:
        """Register an input pair; return its content-addressed id.

        Idempotent: registering a pair that hashes to an existing
        corpus returns the existing id and publishes nothing new.
        Segments are published lazily — the first query needing a key
        pays its one-time copy.
        """
        if self._closing:
            raise AdmissionError("service is shutting down")
        corpus = Corpus(s, t, use_plane=self._data_plane,
                        tracer=self._tracer)
        existing = self._corpora.get(corpus.corpus_id)
        if existing is not None and not existing.closed:
            corpus.close()
            return existing.corpus_id
        self._corpora[corpus.corpus_id] = corpus
        return corpus.corpus_id

    def release_corpus(self, corpus_id: str) -> None:
        """Drop the registration reference; segments are unlinked once
        the last in-flight query against the corpus finishes."""
        corpus = self._corpora.pop(corpus_id)
        corpus.release()

    # -- admission / submission ----------------------------------------
    def submit(self, algo: str, corpus_id: str, *,
               engine: Optional[str] = None,
               x: Optional[float] = None, eps: Optional[float] = None,
               seed: int = 0, config: Optional[object] = None,
               keep_tuples: bool = False,
               fault_plan: Optional[FaultPlan] = None,
               max_attempts: int = 3, on_exhausted: str = "raise",
               check_guarantees: Optional[bool] = None) -> QueryHandle:
        """Admit one query; return an awaitable :class:`QueryHandle`.

        ``engine`` picks the registry engine answering the query:
        ``None`` (default) resolves the distance's canonical engine —
        the paper's MPC driver, exactly the pre-registry behaviour —
        ``"auto"`` asks :func:`repro.engines.select_engine` to plan the
        cheapest admissible engine for this corpus, and any other value
        is an engine name (``repro engines`` lists them).

        Raises :class:`AdmissionError` (before any round runs) when the
        service is closing, the corpus is unknown, ``eps`` is not a
        finite number > 0, the engine does not
        answer ``algo`` or refuses the corpus (size outside its regime,
        duplicates where it requires duplicate-free input), or the
        query's per-machine memory exceeds ``machine_memory_cap``, or
        ``fault_plan`` comes with invalid retry settings
        (``max_attempts < 1``, an unknown ``on_exhausted``).
        Must be called with a running event loop.
        """
        if self._closing:
            raise AdmissionError("service is shutting down")
        corpus = self._corpora.get(corpus_id)
        if corpus is None:
            raise AdmissionError(f"unknown corpus {corpus_id!r}")
        if algo not in distances():
            raise AdmissionError(
                f"unknown algorithm {algo!r} "
                f"(expected one of {', '.join(distances())})")
        if eps is not None:
            try:
                check_eps(eps)
            except ValueError as exc:
                raise AdmissionError(str(exc)) from exc
        eng = self._resolve_engine(algo, engine, corpus,
                                   x=x, eps=eps, seed=seed)
        self._admit_caps(eng, algo, corpus, x)
        retry_policy = None
        if fault_plan is not None:
            try:
                retry_policy = RetryPolicy(max_attempts=max_attempts,
                                           on_exhausted=on_exhausted)
            except ValueError as exc:
                raise AdmissionError(str(exc)) from exc
        spec = _QuerySpec(
            algo=algo, engine=eng, x=x, eps=eps, seed=seed,
            fault_plan=fault_plan, retry_policy=retry_policy,
            check_guarantees=self._check_guarantees
            if check_guarantees is None else check_guarantees)
        try:
            query = eng.make_query(corpus, x=x, eps=eps, seed=seed,
                                   config=config, keep_tuples=keep_tuples)
        except ValueError as exc:
            raise AdmissionError(str(exc)) from exc
        memory_limit = query.params.memory_limit
        if self._machine_memory_cap is not None \
                and memory_limit is not None \
                and memory_limit > self._machine_memory_cap:
            raise AdmissionError(
                f"per-machine memory {memory_limit} words exceeds the "
                f"service cap {self._machine_memory_cap}")
        query_id = next(self._ids)
        trace_id = f"{self._tag}-q{query_id}"
        self._queries_total += 1
        name = spec.engine_name
        self._engine_queries[name] = self._engine_queries.get(name, 0) + 1
        # The query's corpus reference is taken *now*, synchronously:
        # releasing the registration right after submit must not unlink
        # segments under an admitted query whose task has not started.
        corpus.retain()
        task = asyncio.get_running_loop().create_task(
            self._execute(query_id, trace_id, spec, corpus, query))
        handle = QueryHandle(query_id, algo, corpus_id, task,
                             engine=spec.engine_name, trace_id=trace_id)
        self._handles[query_id] = handle
        task.add_done_callback(
            lambda t, qid=query_id: self._finalize(t, qid))
        return handle

    def _finalize(self, task: "asyncio.Task", query_id: int) -> None:
        self._handles.pop(query_id, None)
        if task.cancelled() or task.exception() is not None:
            self._queries_failed += 1

    @staticmethod
    def _resolve_engine(algo: str, engine: Optional[str], corpus: Corpus,
                        *, x: Optional[float], eps: Optional[float],
                        seed: int) -> Engine:
        try:
            if engine is None:
                return default_engine(algo)
            if engine == "auto":
                request = EngineRequest(distance=algo, s=corpus.S,
                                        t=corpus.T, x=x, eps=eps,
                                        seed=seed)
                return select_engine(request)
            return get_engine(engine)
        except NoEngineError as exc:
            raise AdmissionError(str(exc)) from exc

    @staticmethod
    def _admit_caps(eng: Engine, algo: str, corpus: Corpus,
                    x: Optional[float]) -> None:
        """Capability-based admission: the engine must answer ``algo``
        and accept this corpus, checked before any round runs."""
        caps = eng.capabilities()
        if not caps.supports(algo):
            raise AdmissionError(
                f"engine {caps.name!r} answers "
                f"{', '.join(caps.distances)}, not {algo!r}")
        refusal = caps.regime.admits_n(len(corpus.S))
        if refusal is not None:
            raise AdmissionError(f"engine {caps.name!r}: {refusal}")
        if caps.regime.requires_duplicate_free:
            try:
                corpus.require_ulam()
            except ValueError as exc:
                raise AdmissionError(str(exc)) from exc
        x_eff = x if x is not None else caps.default_x
        if caps.regime.max_x is not None and x_eff is not None \
                and not 0 < x_eff <= caps.regime.max_x:
            raise AdmissionError(
                f"engine {caps.name!r}: x={x_eff} outside "
                f"(0, {caps.regime.max_x}]")

    def _make_sim(self, spec: _QuerySpec, memory_limit: Optional[int]):
        return MPCSimulator(memory_limit=memory_limit,
                            executor=self._executor, tracer=self._tracer,
                            fault_plan=spec.fault_plan,
                            retry_policy=spec.retry_policy)

    # -- execution -----------------------------------------------------
    @staticmethod
    def _advance(gen) -> bool:
        """Run one round in the calling (worker) thread; True = done."""
        try:
            next(gen)
            return False
        except StopIteration:
            return True

    async def _execute(self, query_id: int, trace_id: str,
                       spec: _QuerySpec, corpus: Corpus,
                       query) -> QueryOutcome:
        # The corpus reference was taken in submit(); the finally below
        # is its sole owner.  The trace context wraps the whole
        # execution, so every span the query emits — simulator rounds,
        # retry attempts, collector and publish spans, all produced on
        # round threads in a copy of this context — carries the
        # service-minted identity.
        if self._query_slots is None:
            # Created here, not in __init__: the service may be built
            # outside a running loop (asyncio.Semaphore binds to the
            # loop at first await in 3.10 and warns when built loop-less).
            self._query_slots = asyncio.Semaphore(
                self._max_concurrent_queries)
        query_slots = self._query_slots
        start = time.perf_counter()
        try:
            with trace_context(trace_id, query_id):
                sim = self._make_sim(spec, query.params.memory_limit)
                self._queued += 1
                try:
                    await query_slots.acquire()
                finally:
                    self._queued -= 1
                try:
                    await self._rounds.run(query.steps(sim))
                    result = query.result
                finally:
                    query_slots.release()
                guarantees = None
                if spec.check_guarantees:
                    guarantees = await asyncio.to_thread(
                        self._guarantee_report, spec, corpus, result)
                    guarantees["trace_id"] = trace_id
                    guarantees["query_id"] = query_id
            latency = time.perf_counter() - start
            # The process-wide registry (the /metrics exporter) folds the
            # query's snapshot and sees the latency distribution; the
            # latency stays out of the query's own ledger, which is
            # byte-identical to the one-shot driver path.
            registry = get_registry()
            registry.record(result.stats.metrics)
            registry.observe(metric_key("service.query_latency",
                                        {"engine": spec.engine_name}),
                             round(latency, 6))
            caps = spec.engine.caps
            x_eff = spec.x if spec.x is not None else caps.default_x
            eps_eff = spec.eps if spec.eps is not None \
                else caps.default_eps
            return QueryOutcome(
                query_id=query_id, algo=spec.algo,
                corpus_id=corpus.corpus_id,
                params={"n": len(corpus.S), "x": x_eff,
                        "eps": eps_eff, "seed": spec.seed},
                distance=result.distance, result=result,
                latency_seconds=latency,
                guarantees=guarantees, engine=spec.engine_name,
                trace_id=trace_id)
        finally:
            corpus.release()

    @staticmethod
    def _guarantee_report(spec: _QuerySpec, corpus: Corpus,
                          result) -> dict:
        return spec.engine.check_guarantees(
            corpus.S, corpus.T, result).to_dict()

    # -- shutdown ------------------------------------------------------
    async def drain(self) -> None:
        """Wait for every in-flight query (exceptions stay in handles)."""
        tasks = [h._task for h in list(self._handles.values())]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    async def close(self) -> None:
        """Drain, release corpora, stop the pool, assert zero leaks.

        Raises :class:`RuntimeError` when a shared-memory segment
        survives shutdown — a lifecycle bug upstream must fail loudly
        here rather than leak past the service.
        """
        if self._closed:
            return
        self._closing = True
        await self.drain()
        for corpus_id in list(self._corpora):
            corpus = self._corpora.pop(corpus_id)
            corpus.release()
            if not corpus.closed:
                # In-flight references are gone after drain, so a still
                # open corpus means a refcount bug; force the unlink.
                corpus.close()
        if self._owns_executor:
            self._executor.close()
        self._rounds.shutdown()
        self._closed = True
        leaked = active_segments()
        if leaked:
            raise RuntimeError(
                "shared-memory segments leaked past service shutdown: "
                f"{sorted(leaked)}")

    async def __aenter__(self) -> "DistanceService":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()
