"""One workload run in a fresh interpreter, spawned by ``benchmarks.e2e``.

Prints exactly one line to standard output: the run's JSON record.  Its
``values`` hold the metrics that need no host-speed adjustment; the rest
come from ``setup`` and ``timestamps``, which ``benchmarks.e2e`` adjusts
for host speed.  ``repro`` is imported inside :func:`_run`, after the set-up
clock started, because ``setup_s`` charges ``import repro`` to set-up.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import pathlib
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional

ROOT = pathlib.Path(__file__).resolve().parents[2]
RESULTS = pathlib.Path(__file__).resolve().parent / "results"

#: Warm-up inputs: one query per algorithm at this size, inside set-up.
_WARMUP_N = 64


@dataclass
class Record:
    """One answered query, as the client saw it."""

    index: int
    query_id: int
    registered: float
    submitted: float
    done: float
    ok: bool
    rounds: int
    work: int
    memory_words: int
    kernels: Dict[str, List[float]]


@dataclass
class Phase:
    """What one closed-loop window produced."""

    records: List[Record]
    attempted: int
    failed: int
    start: float
    end: float

    def timestamps(self) -> dict:
        """The window and every query's (registered, done) times, on the
        system-wide monotonic clock the host-speed probe also reads."""
        return {"window": [self.start, self.end],
                "queries": [[r.registered, r.done] for r in self.records]}


def _checkout_service_class():
    import repro
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    if src != ROOT / "src":
        raise SystemExit(f"imported repro from {src}, not from "
                         f"{ROOT / 'src'}: the benchmark measures the "
                         "checkout it lives in")
    from repro.service import DistanceService
    return DistanceService


async def _warm_up(service) -> None:
    from repro.workloads.permutations import planted_pair as perm_pair
    from repro.workloads.strings import planted_pair as str_pair
    budget = _WARMUP_N // 16
    pairs = {"ulam": perm_pair(_WARMUP_N, budget, seed=0, style="mixed"),
             "edit": str_pair(_WARMUP_N, budget, sigma=4, seed=0)}
    for algo, (s, t, _) in pairs.items():
        corpus_id = service.register_corpus(s, t)
        await service.submit(algo, corpus_id)
        service.release_corpus(corpus_id)


async def _closed_loop(service, stream, seconds: float, min_queries: int,
                       profile_kernels: bool) -> Phase:
    """Each client sends its next query only after the last one returned.

    No query starts after the deadline once ``min_queries`` were issued;
    the window ends when the last in-flight query completes.
    """
    from .workloads import approximation_factor
    workload = stream.workload
    records: List[Record] = []
    counts = {"attempted": 0, "failed": 0}
    indices = itertools.count()
    start = time.perf_counter()
    deadline = start + seconds

    async def client() -> None:
        while True:
            index = next(indices)
            if index >= min_queries and time.perf_counter() >= deadline:
                return
            q = stream.query(index)
            counts["attempted"] += 1
            registered = time.perf_counter()
            corpus_id = service.register_corpus(q.s, q.t)
            submitted = time.perf_counter()
            try:
                handle = service.submit(workload.algo, corpus_id,
                                        seed=q.seed)
                outcome = await handle
            except Exception:  # a failed query is counted, not fatal
                print(f"query {index} failed:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                counts["failed"] += 1
                continue
            finally:
                done = time.perf_counter()
                if workload.fresh:
                    service.release_corpus(corpus_id)
            factor = approximation_factor(workload.algo,
                                          outcome.params["eps"])
            ok = q.exact <= outcome.distance <= factor * q.exact
            if not ok:
                print(f"query {index} answered "
                      f"{outcome.distance}, exact {q.exact}, allowed "
                      f"[{q.exact}, {factor * q.exact:g}]", file=sys.stderr)
            stats = outcome.stats
            kernels: Dict[str, List[float]] = {}
            if profile_kernels:
                for rnd in stats.rounds:
                    for kernel, rec in rnd.kernel_profile.items():
                        acc = kernels.setdefault(kernel, [0, 0, 0.0])
                        for k in range(3):
                            acc[k] += rec[k]
            records.append(Record(
                index=index, query_id=handle.query_id,
                registered=registered, submitted=submitted, done=done,
                ok=ok, rounds=stats.n_rounds, work=stats.total_work,
                memory_words=stats.max_memory_words, kernels=kernels))

    await asyncio.gather(*(client() for _ in range(workload.clients)))
    end = max((r.done for r in records), default=time.perf_counter())
    return Phase(records=records, attempted=counts["attempted"],
                 failed=counts["failed"], start=start, end=end)


def _end_to_end(phase: Phase, workload) -> Dict[str, float]:
    """The metrics that need no clock; ``benchmarks.e2e`` derives the
    timed ones from the window and the per-query timestamps."""
    window = [r for r in phase.records if r.index < workload.pool]
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "peak_rss_mb": rss_kb / 1024.0,
        "work_units_per_query": statistics.fmean(r.work for r in window),
        "rounds_per_query": statistics.fmean(r.rounds for r in window),
        "max_machine_words": statistics.fmean(r.memory_words
                                              for r in window),
    }


async def _traced(service, new_service, stream, seconds: float):
    """Untraced half, then a traced half on a fresh profiled service.

    A pool reads the profiler switch when it spawns its workers, so the
    traced service is built and warmed inside ``profile.enabled()``; the
    wrappers go in after the warm-up, so forked workers never carry
    them.  Both halves replay the same queries from index 0.
    """
    from repro.obs import profile
    from .layers import LayerTrace, breakdown, chrome_trace, format_waterfall
    try:
        plain = await _closed_loop(service, stream, seconds / 2, 1, False)
    finally:
        await service.close()
    trace = LayerTrace()
    with profile.enabled():
        traced_service = new_service()
        try:
            await _warm_up(traced_service)
            with trace.installed():
                traced = await _closed_loop(traced_service, stream,
                                            seconds / 2, 1, True)
        finally:
            await traced_service.close()
    values = breakdown(traced.records, trace.spans)
    name = stream.workload.name
    waterfall = format_waterfall(name, values, len(traced.records))
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{name}.waterfall.txt").write_text(waterfall + "\n")
    (RESULTS / f"{name}.trace.json").write_text(
        chrome_trace(traced.records, trace.spans, traced.start))
    return values, waterfall, [plain, traced]


async def _run(args, t0: float) -> dict:
    DistanceService = _checkout_service_class()
    from .workloads import WORKLOADS, QueryStream
    workload = WORKLOADS[args.workload]

    def new_service():
        return DistanceService(max_workers=workload.max_workers,
                               check_guarantees=False)

    service = new_service()
    await _warm_up(service)
    setup = [t0, time.perf_counter()]
    if args.setup_only:
        await service.close()
        return {"setup": setup}

    stream = QueryStream(workload, args.seed)
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "fingerprint": stream.fingerprint(), "setup": setup}
    if args.trace:
        values, waterfall, phases = await _traced(
            service, new_service, stream, args.seconds)
        record["waterfall"] = waterfall
        record["timestamps"] = {"plain": phases[0].timestamps()["queries"],
                                "traced": phases[1].timestamps()["queries"]}
    else:
        try:
            phase = await _closed_loop(service, stream, args.seconds,
                                       workload.pool, False)
        finally:
            await service.close()
        values, phases = _end_to_end(phase, workload), [phase]
        record["timestamps"] = phase.timestamps()
    record.update(attempted=sum(p.attempted for p in phases),
                  failed=sum(p.failed for p in phases),
                  wrong=sum(not r.ok for p in phases for r in p.records),
                  samples=len(phases[-1].records), values=values)
    return record


def main(argv: Optional[List[str]] = None) -> int:
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(asyncio.run(_run(args, t0))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
