"""Live observability: query-correlated tracing, exporter, SLO monitor.

The acceptance bar of the observability layer: a shared trace stream
from ``>= 8`` mixed concurrent queries can be sliced back into each
query's exact round sequence and per-query metric delta — byte-
identical to a one-shot reference run — while ``/metrics`` and
``/healthz`` answer on a *live* service and the SLO monitor burns only
when queries actually violate their budgets.
"""

import asyncio
import json
import threading
import time
import urllib.error
import urllib.request

from repro.analysis import filter_spans, query_index, round_sequence
from repro.editdistance import mpc_edit_distance
from repro.metrics import enable
from repro.mpc import MPCSimulator, Tracer
from repro.mpc.telemetry import Span, export_chrome_trace
from repro.obs import (SLO, ObservabilityServer, QuerySample, SLOMonitor,
                       burn_rate, default_slos, prometheus_exposition,
                       render_health, sample_from_record)
from repro.params import EditParams, UlamParams
from repro.service import DistanceService, run_workload
from repro.ulam import mpc_ulam
from repro.workloads.permutations import planted_pair as perm_pair
from repro.workloads.strings import planted_pair as str_pair

N = 96
BUDGET = 6
ULAM_KW = {"x": 0.25, "eps": 0.5}
EDIT_KW = {"x": 0.25, "eps": 1.0}


def _ledger(stats) -> str:
    summary = stats.summary()
    summary.pop("wall_seconds", None)
    return json.dumps(summary, sort_keys=True)


def _mixed_queries(n_queries: int = 8):
    s_p, t_p, _ = perm_pair(N, BUDGET, seed=0, style="mixed")
    s_s, t_s, _ = str_pair(N, BUDGET, sigma=4, seed=0)
    out = []
    for i in range(n_queries):
        if i % 2 == 0:
            out.append({"algo": "ulam", "s": s_p, "t": t_p,
                        "seed": i, **ULAM_KW})
        else:
            out.append({"algo": "edit", "s": s_s, "t": t_s,
                        "seed": i, **EDIT_KW})
    return out


def _traced_reference(query):
    """One-shot run of *query* with its own tracer; returns (result,
    spans)."""
    tracer = Tracer.in_memory()
    if query["algo"] == "ulam":
        params = UlamParams(n=len(query["s"]), **ULAM_KW)
        sim = MPCSimulator(memory_limit=params.memory_limit,
                           tracer=tracer)
        res = mpc_ulam(query["s"], query["t"], seed=query["seed"],
                       sim=sim, **ULAM_KW)
    else:
        params = EditParams(n=len(query["s"]), **EDIT_KW)
        sim = MPCSimulator(memory_limit=params.memory_limit,
                           tracer=tracer)
        res = mpc_edit_distance(query["s"], query["t"],
                                seed=query["seed"], sim=sim, **EDIT_KW)
    return res, tracer.spans


def _http_get(url: str):
    try:
        with urllib.request.urlopen(url, timeout=5) as resp:
            return resp.status, resp.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


class TestQueryCorrelatedTracing:
    """The tentpole acceptance test: reconstruct every query from the
    shared stream."""

    def test_eight_concurrent_queries_reconstruct_exactly(self):
        enable()
        queries = _mixed_queries(8)
        references = [_traced_reference(q) for q in queries]
        tracer = Tracer.in_memory()
        outcomes, _ = run_workload(queries, tracer=tracer,
                                   check_guarantees=True)
        spans = tracer.spans

        # Eight distinct query identities in one stream.
        ids = {(qid, tid) for (qid, tid) in query_index(spans)
               if qid >= 0}
        assert len(ids) == 8
        assert len({tid for _, tid in ids}) == 8

        for o, (ref, ref_spans) in zip(outcomes, references):
            mine = filter_spans(spans, o.query_id)
            assert mine, f"query #{o.query_id} has no spans"
            assert mine == filter_spans(spans, o.trace_id)
            assert all(s.trace_id == o.trace_id for s in mine)

            # Exact round schedule, reconstructed out of the
            # interleaved stream (the edit driver re-runs round names
            # across delta guesses, so this is sequence, not set,
            # equality against a traced one-shot reference).
            assert round_sequence(mine) == round_sequence(ref_spans), \
                f"query #{o.query_id} round sequence diverged"

            # Work conservation inside the slice: the successful
            # machine spans alone account for the ledger's total work.
            machine_work = sum(s.work for s in mine
                               if s.kind == "machine" and not s.wasted)
            assert machine_work == o.stats.total_work

            # Per-query metrics delta and full ledger are byte-
            # identical to the pristine one-shot run.
            assert o.metrics == ref.stats.metrics
            assert _ledger(o.stats) == _ledger(ref.stats), \
                f"query #{o.query_id} ledger diverged"

            # The guarantee verdict carries the same correlation ids.
            assert o.guarantees["trace_id"] == o.trace_id
            assert o.guarantees["query_id"] == o.query_id
            assert o.guarantees_passed is True

    def test_one_shot_spans_stay_uncorrelated(self):
        q = _mixed_queries(1)[0]
        _, spans = _traced_reference(q)
        assert spans
        assert all(s.query_id == -1 and s.trace_id == "" for s in spans)
        assert list(query_index(spans)) == [(-1, "")]

    def test_trace_ids_are_deterministic_per_service(self):
        queries = _mixed_queries(2)
        outcomes, _ = run_workload(queries, check_guarantees=False)
        for o in outcomes:
            assert o.trace_id.endswith(f"-q{o.query_id}")


class TestChromeTraceGrouping:
    def test_concurrent_queries_get_distinct_process_groups(self, tmp_path):
        spans = [
            Span(kind="round", name="ulam/1", start=0.0, end=1.0,
                 work=10, query_id=1, trace_id="svc9-q1"),
            Span(kind="machine", name="ulam/1", machine=0, start=0.0,
                 end=0.5, work=10, query_id=1, trace_id="svc9-q1"),
            Span(kind="round", name="ed/1", start=0.2, end=0.9,
                 work=7, query_id=2, trace_id="svc9-q2"),
        ]
        out = tmp_path / "trace.json"
        export_chrome_trace(spans, out)
        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        meta = [e for e in events if e.get("ph") == "M"]
        assert {(e["pid"], e["args"]["name"]) for e in meta} \
            == {(1, "query 1 [svc9-q1]"), (2, "query 2 [svc9-q2]")}
        slices = [e for e in events if e.get("ph") == "X"]
        assert {e["pid"] for e in slices} == {1, 2}
        for e in slices:
            assert e["args"]["trace_id"].startswith("svc9-q")
            assert e["args"]["query_id"] in (1, 2)

    def test_uncorrelated_spans_keep_worker_lanes(self, tmp_path):
        spans = [Span(kind="machine", name="r", machine=3, worker=4242,
                      start=0.0, end=1.0, work=5)]
        out = tmp_path / "trace.json"
        export_chrome_trace(spans, out)
        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        assert all(e.get("ph") != "M" for e in events)
        assert events[0]["pid"] == 4242
        assert events[0]["tid"] == 3

    def test_span_args_carry_ledger_and_profile(self, tmp_path):
        spans = [
            Span(kind="machine", name="r", machine=0, start=0.0, end=1.0,
                 work=11, input_words=3, output_words=2,
                 profile={"lis": [2, 40, 0.5]}),
            Span(kind="machine", name="r", machine=1, start=0.5, end=2.0,
                 work=7, wasted=True),
        ]
        out = tmp_path / "trace.json"
        export_chrome_trace(spans, out)
        events = json.loads(out.read_text())["traceEvents"]
        slices = [e for e in events if e.get("ph") == "X"]
        profiled = next(e for e in slices if e["tid"] == 0)
        assert profiled["args"]["work"] == 11
        assert profiled["args"]["input_words"] == 3
        assert profiled["args"]["output_words"] == 2
        assert profiled["args"]["profile"] == {"lis": [2, 40, 0.5]}
        wasted = next(e for e in slices if e["tid"] == 1)
        assert wasted["args"]["wasted"] is True
        assert "profile" not in wasted["args"]  # empty stays absent

    def test_profiled_spans_emit_dp_cells_counter_track(self, tmp_path):
        spans = [
            Span(kind="machine", name="r1", machine=0, start=0.0,
                 end=1.0, profile={"lis": [1, 40, 0.5]}),
            Span(kind="machine", name="r2", machine=0, start=1.0,
                 end=2.0, profile={"lis": [1, 10, 0.1],
                                   "banded": [1, 5, 0.1]}),
        ]
        out = tmp_path / "trace.json"
        export_chrome_trace(spans, out)
        events = json.loads(out.read_text())["traceEvents"]
        counters = [e for e in events if e.get("ph") == "C"]
        assert [e["name"] for e in counters] == ["kernel dp_cells"] * 2
        # Cumulative per-kernel cells, sampled at each profiled span end.
        assert counters[0]["args"] == {"lis": 40}
        assert counters[1]["args"] == {"lis": 50, "banded": 5}
        assert counters[0]["ts"] < counters[1]["ts"]


class TestExporter:
    def test_endpoints_answer_on_live_service(self):
        enable()
        obs = ObservabilityServer(port=0).start()
        grabbed = {}

        def scrape():
            time.sleep(0.25)
            for ep in ("/metrics", "/healthz", "/readyz"):
                grabbed[ep] = _http_get(obs.url + ep)
            grabbed["/nope"] = _http_get(obs.url + "/nope")

        thread = threading.Thread(target=scrape)
        thread.start()
        try:
            outcomes, _ = run_workload(
                _mixed_queries(4), observer=obs, hold_seconds=1.0,
                check_guarantees=False)
        finally:
            thread.join()
            obs.stop()
        assert len(outcomes) == 4

        code, text = grabbed["/metrics"]
        assert code == 200
        assert "repro_service_up{" in text
        assert " 1" in [line[-2:] for line in text.splitlines()
                        if line.startswith("repro_service_up")]
        assert "repro_service_queries_total{" in text
        assert 'engine="ulam-mpc"' in text
        assert "# TYPE" in text

        code, body = grabbed["/healthz"]
        health = json.loads(body)
        assert code == 200
        assert health["healthy"] is True
        assert health["checks"] == {"executor_alive": True,
                                    "segments_sane": True}
        assert health["admission"] == "open"

        code, body = grabbed["/readyz"]
        assert code == 200
        assert json.loads(body)["ready"] is True

        assert grabbed["/nope"][0] == 404

    def test_concurrent_scrapes_stay_consistent_with_queries_in_flight(
            self):
        """Satellite (c): hammer /metrics and /profile from several
        threads while queries run — no torn Prometheus exposition, every
        /profile snapshot is coherent JSON, and the final per-query
        attribution is consistent with the registry's kernel counters."""
        import re
        from repro.obs.profile import (enable as enable_profiling,
                                       reset_global_profile)
        enable()
        enable_profiling()
        reset_global_profile()
        sample_re = re.compile(
            r"^[A-Za-z_:][A-Za-z0-9_:]*(?:\{[^{}]*\})? -?[0-9.einf+]+$")
        obs = ObservabilityServer(port=0).start()
        scraped = {"metrics": [], "profiles": [], "errors": []}
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                try:
                    m_code, m_body = _http_get(obs.url + "/metrics")
                    p_code, p_body = _http_get(obs.url + "/profile")
                except OSError as exc:  # pragma: no cover - fail loud
                    scraped["errors"].append(repr(exc))
                    return
                if m_code == 200:
                    scraped["metrics"].append(m_body)
                if p_code == 200:
                    scraped["profiles"].append(p_body)

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for t in threads:
            t.start()
        try:
            outcomes, _ = run_workload(_mixed_queries(6), observer=obs,
                                       check_guarantees=False)
        finally:
            stop.set()
            for t in threads:
                t.join()
        final = json.loads(_http_get(obs.url + "/profile")[1])
        registry_text = _http_get(obs.url + "/metrics")[1]
        obs.stop()

        assert not scraped["errors"], scraped["errors"]
        assert len(outcomes) == 6
        assert scraped["metrics"] and scraped["profiles"]
        # No torn exposition: every sample line parses in isolation.
        for body in scraped["metrics"]:
            for line in body.splitlines():
                if line and not line.startswith("#"):
                    assert sample_re.match(line), f"torn line: {line!r}"
        # Every mid-flight /profile snapshot is a coherent document.
        for body in scraped["profiles"]:
            snap = json.loads(body)
            assert snap["enabled"] is True
            for prof in [snap["kernels"], *snap["queries"].values()]:
                for rec in prof.values():
                    assert set(rec) == {"calls", "cells", "seconds"}
                    assert rec["calls"] >= 1

        # The final aggregate attributes every query and never claims
        # more dp_cells than the registry counted for the same kernel
        # (driver-side kernel calls tick the counter only).
        assert len(final["queries"]) == 6
        assert final["kernels"]["ulam_sparse"]["cells"] > 0
        for kernel, rec in final["kernels"].items():
            needle = f'kernel="{kernel}"'
            counted = sum(
                float(line.rsplit(" ", 1)[1])
                for line in registry_text.splitlines()
                if line.startswith("repro_strings_dp_cells_total")
                and needle in line)
            if counted:
                assert rec["cells"] <= counted + 1e-9, kernel

    def test_pool_service_metrics_equal_one_shot_and_export(self):
        # A pool-backed service reports the machine counters a serial
        # one-shot run does, and /metrics renders the finished queries.
        # Queries run one at a time, so the pool forks its workers while
        # no other query's round thread is running.
        enable()
        queries = _mixed_queries(2)

        async def main():
            async with DistanceService(max_workers=2) as service:
                obs.bind(service)
                outcomes = []
                for q in queries:
                    cid = service.register_corpus(q["s"], q["t"])
                    outcomes.append(await service.submit(
                        q["algo"], cid, seed=q["seed"],
                        x=q["x"], eps=q["eps"], check_guarantees=False))
                return outcomes

        obs = ObservabilityServer(port=0).start()
        try:
            outcomes = asyncio.run(main())
            code, text = _http_get(obs.url + "/metrics")
        finally:
            obs.stop()
        for q, o in zip(queries, outcomes):
            ref, _ = _traced_reference(q)
            assert o.metrics == ref.stats.metrics
        assert code == 200
        assert "repro_strings_dp_cells_total{" in text

    def test_unbound_exporter_serves_registry_only(self):
        with ObservabilityServer(port=0) as obs:
            code, text = _http_get(obs.url + "/metrics")
            assert code == 200
            code, body = _http_get(obs.url + "/healthz")
            assert code == 200  # absent service is sane, not broken
            assert json.loads(body)["admission"] == "unbound"
            code, _ = _http_get(obs.url + "/readyz")
            assert code == 503  # ...but not ready

    def test_prometheus_exposition_format(self):
        snapshot = {
            "lcs.dp_cells{kernel=hirschberg}":
                {"type": "counter", "value": 42},
            "config.cap": {"type": "gauge", "value": 7},
            "ulam.block{phase=1}": {"type": "histogram", "count": 3,
                                    "sum": 30, "min": 5, "max": 15},
        }
        text = prometheus_exposition(snapshot)
        lines = text.splitlines()
        assert 'repro_lcs_dp_cells_total{kernel="hirschberg"} 42' in lines
        assert "# TYPE repro_lcs_dp_cells_total counter" in lines
        assert "repro_config_cap 7" in lines
        assert 'repro_ulam_block_count{phase="1"} 3' in lines
        assert 'repro_ulam_block_sum{phase="1"} 30' in lines
        assert 'repro_ulam_block_min{phase="1"} 5' in lines
        assert 'repro_ulam_block_max{phase="1"} 15' in lines

    def test_render_health_flags_dead_executor(self):
        status = {"service": "svc1", "admission": "open", "inflight": 0,
                  "queued": 0, "corpora": 0, "active_segments": 0,
                  "executor": {"type": "serial", "alive": False,
                               "pool_running": False},
                  "queries": {"total": 0, "failed": 0, "by_engine": {}}}
        health = render_health(status)
        assert health["healthy"] is False
        assert health["checks"]["executor_alive"] is False


class TestSLOMonitor:
    def test_burn_rate_arithmetic(self):
        assert burn_rate(0, 100, 0.99) == 0.0
        assert burn_rate(1, 100, 0.99) == 1.0000000000000009 \
            or abs(burn_rate(1, 100, 0.99) - 1.0) < 1e-9
        assert burn_rate(10, 100, 0.99) > 9.9
        assert burn_rate(5, 0, 0.99) == 0.0
        assert burn_rate(1, 1, 1.0) == float("inf")

    def test_violation_dimensions_omit_unknowns(self):
        slo = SLO(engine="e", latency_p99_seconds=1.0, round_budget=2)
        full = QuerySample(engine="e", latency_seconds=0.5, rounds=2,
                           guarantees_passed=True)
        assert full.violations(slo) == {"latency": False,
                                        "rounds": False,
                                        "guarantees": False,
                                        "faults": False}
        sparse = QuerySample(engine="e")
        assert sparse.violations(slo) == {"faults": False}
        no_round_budget = SLO(engine="e", round_budget=None,
                              latency_p99_seconds=None)
        assert "rounds" not in full.violations(no_round_budget)
        assert "latency" not in full.violations(no_round_budget)

    def test_default_slos_take_round_budgets_from_engine_caps(self):
        slos = default_slos()
        assert slos["ulam-mpc"].round_budget == 2
        assert slos["edit-mpc"].round_budget == 4
        assert slos["exact-ulam"].round_budget is None

    def test_monitor_alerts_only_on_real_burn(self):
        monitor = SLOMonitor({"e": SLO(engine="e",
                                       latency_p99_seconds=1.0,
                                       round_budget=2)})
        for _ in range(10):
            monitor.observe(QuerySample(engine="e", latency_seconds=0.1,
                                        rounds=2,
                                        guarantees_passed=True))
        assert monitor.alerts() == []
        report = monitor.report("e")
        assert report.ok and report.worst_burn == 0.0
        monitor.observe(QuerySample(engine="e", latency_seconds=0.1,
                                    rounds=5, guarantees_passed=True,
                                    dropped_machines=2))
        alerts = monitor.alerts()
        assert any("rounds" in a for a in alerts)
        assert any("faults" in a for a in alerts)
        assert not monitor.report("e").ok

    def test_rolling_window_forgets_old_burn(self):
        monitor = SLOMonitor({"e": SLO(engine="e", round_budget=1,
                                       latency_p99_seconds=None)},
                             window=4)
        monitor.observe(QuerySample(engine="e", rounds=9))  # bad
        for _ in range(4):
            monitor.observe(QuerySample(engine="e", rounds=1))
        assert monitor.report("e").dimensions["rounds"]["bad"] == 0
        assert monitor.alerts() == []

    def test_sample_from_record_shapes(self):
        one_shot = {"engine": "ulam-mpc",
                    "summary": {"rounds": 2, "wall_seconds": 0.5,
                                "dropped_machines": 1,
                                "failed_attempts": 3},
                    "guarantees": {"passed": False}}
        sample = sample_from_record(one_shot)
        assert sample.engine == "ulam-mpc"
        assert sample.rounds == 2
        assert sample.latency_seconds == 0.5
        assert sample.guarantees_passed is False
        assert sample.dropped_machines == 1
        per_query_row = {"engine": "edit-mpc", "rounds": 4,
                         "latency_seconds": 0.25, "trace_id": "svc1-q2",
                         "query_id": 2, "guarantees_passed": True,
                         "dropped_machines": 0, "failed_attempts": 0}
        sample = sample_from_record(per_query_row)
        assert sample.latency_seconds == 0.25
        assert sample.trace_id == "svc1-q2"
        assert sample.guarantees_passed is True

    def test_live_outcomes_feed_the_monitor(self):
        outcomes, _ = run_workload(_mixed_queries(4),
                                   check_guarantees=True)
        monitor = SLOMonitor()
        for o in outcomes:
            monitor.observe_outcome(o)
        reports = {r.engine: r for r in monitor.reports()}
        assert set(reports) == {"ulam-mpc", "edit-mpc"}
        for report in reports.values():
            assert report.ok, report.to_dict()
            assert report.dimensions["guarantees"]["evaluated"] \
                == report.n_samples
        assert monitor.alerts() == []


class TestCompareLatencyRow:
    def test_latency_row_is_informational_only(self):
        from repro.registry import compare_records
        baseline = {"summary": {"total_work": 100, "distance": 5},
                    "latency_seconds": 0.2}
        fresh = {"summary": {"total_work": 100, "distance": 5},
                 "latency_seconds": 0.4}
        rows = compare_records(baseline, fresh)
        lat = rows["latency_seconds"]
        assert lat["baseline"] == 0.2 and lat["fresh"] == 0.4
        assert lat["change"] == 1.0
        assert lat["regressed"] is False  # 2x slower never gates

    def test_latency_row_falls_back_to_summary_p99(self):
        from repro.registry import compare_records
        baseline = {"summary": {"total_work": 1}}
        fresh = {"summary": {"total_work": 1,
                             "p99_latency_seconds": 0.7}}
        rows = compare_records(baseline, fresh)
        assert rows["latency_seconds"]["fresh"] == 0.7
        assert rows["latency_seconds"]["baseline"] is None
        assert rows["latency_seconds"]["regressed"] is False

    def test_absent_latency_emits_no_row(self):
        from repro.registry import compare_records
        rows = compare_records({"summary": {"total_work": 1}},
                               {"summary": {"total_work": 1}})
        assert "latency_seconds" not in rows
