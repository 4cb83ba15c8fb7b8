"""Tests for the per-machine span telemetry layer (repro.mpc.telemetry).

Covers the span schema and sinks, emission by the simulator with and
without a fault plan under both executors (worker attribution must
survive pickling), the chaos path (every attempt is its own span;
discarded attempts are ``wasted``), collector spans from the plan
layer, and the Chrome trace-event export's Perfetto-required fields.
"""

import json
import os
import time

import pytest

from repro.mpc import (FaultDecision, InMemorySink, JsonlSink,
                       MPCSimulator, Pipeline, ProcessPoolExecutor,
                       RetryPolicy, RoundSpec, Span, Tracer, add_work,
                       export_chrome_trace, read_jsonl)
from repro.mpc import simulator as simulator_mod
from repro.mpc.telemetry import span_from_dict


def _work10(payload):
    add_work(10 * payload)
    return payload + 1


def _traced_sim(**kwargs):
    tracer = Tracer.in_memory()
    return MPCSimulator(tracer=tracer, **kwargs), tracer


class _CrashPlan:
    """Deterministic plan: listed (machine, attempt) pairs crash."""

    def __init__(self, crashes, corrupt=()):
        self.crashes = set(crashes)
        self.corrupt = set(corrupt)

    def decide(self, round_name, machine_index, attempt):
        if (machine_index, attempt) in self.crashes:
            return FaultDecision(crash=True)
        if (machine_index, attempt) in self.corrupt:
            return FaultDecision(corrupt=True)
        return FaultDecision()


class TestSpan:
    def test_round_trip(self):
        span = Span(kind="machine", name="r", machine=3, attempt=2,
                    worker=41, start=1.5, end=2.25, work=7,
                    input_words=11, output_words=5, broadcast_words=2,
                    wasted=True, fault="crash")
        assert span_from_dict(span.to_dict()) == span
        assert span.duration == pytest.approx(0.75)

    def test_unknown_field_raises(self):
        data = Span(kind="round", name="r").to_dict()
        data["frobnication"] = 1
        with pytest.raises(ValueError, match="frobnication"):
            span_from_dict(data)


class TestSinks:
    def test_in_memory_collects(self):
        sink = InMemorySink()
        sink.emit(Span(kind="round", name="a"))
        sink.emit(Span(kind="round", name="b"))
        assert [s.name for s in sink.spans] == ["a", "b"]

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        spans = [Span(kind="machine", name="r", machine=i, work=i * 10)
                 for i in range(3)]
        for s in spans:
            sink.emit(s)
        sink.close()
        assert read_jsonl(path) == spans

    def test_jsonl_lines_are_complete_json_objects(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        sink.emit(Span(kind="round", name="r"))
        # Flushed per span: readable before close.
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["name"] == "r"
        sink.close()

    def test_emit_after_close_raises(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink.close()
        with pytest.raises(ValueError, match="closed"):
            sink.emit(Span(kind="round", name="r"))

    def test_read_jsonl_tolerates_truncated_tail(self, tmp_path):
        path = tmp_path / "t.jsonl"
        good = json.dumps(Span(kind="round", name="r").to_dict())
        path.write_text(good + "\n" + good[: len(good) // 2])
        spans = read_jsonl(path)
        assert len(spans) == 1 and spans[0].name == "r"

    def test_read_jsonl_rejects_malformed_middle_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        good = json.dumps(Span(kind="round", name="r").to_dict())
        path.write_text("not json\n" + good + "\n")
        with pytest.raises(ValueError, match="malformed"):
            read_jsonl(path)

    def test_read_jsonl_recovers_complete_newline_less_tail(self, tmp_path):
        # A crash between write() and the trailing flush can leave a
        # final record that is complete JSON but lost its newline; that
        # span is data, not damage, and must be recovered.
        path = tmp_path / "t.jsonl"
        good = json.dumps(Span(kind="round", name="r").to_dict())
        tail = json.dumps(Span(kind="round", name="last").to_dict())
        path.write_text(good + "\n" + tail)
        assert [s.name for s in read_jsonl(path)] == ["r", "last"]

    def test_streamed_trace_truncated_mid_record(self, tmp_path):
        # End to end: stream a real run's trace through a JsonlSink,
        # then chop the file mid-way through the final record — as a
        # machine kill during the append would — and confirm the intact
        # prefix survives at every truncation depth.
        path = tmp_path / "run.jsonl"
        sim = MPCSimulator(tracer=Tracer([JsonlSink(path)]))
        pipe = Pipeline(sim)
        pipe.round(RoundSpec("r1", _work10,
                             partitioner=lambda _: [1, 2, 3]))
        pipe.round(RoundSpec("r2", _work10,
                             partitioner=lambda _: [4, 5]))
        sim.tracer.close()
        full = read_jsonl(path)
        assert len(full) >= 4  # machine spans + collect spans
        raw = path.read_bytes()
        # Losing only the trailing newline keeps the record complete:
        # it is recovered, not dropped.
        path.write_bytes(raw[:-1])
        assert read_jsonl(path) == full
        # Losing bytes of the record itself drops it, keeps the prefix.
        last_line_start = raw[:-1].rfind(b"\n") + 1
        for cut in (2, (len(raw) - last_line_start) // 2):
            path.write_bytes(raw[:len(raw) - cut])
            assert read_jsonl(path) == full[:-1], f"cut={cut}"


class TestTracer:
    def test_fans_out_to_all_sinks(self, tmp_path):
        mem = InMemorySink()
        tracer = Tracer([mem, JsonlSink(tmp_path / "t.jsonl")])
        tracer.emit(Span(kind="round", name="r"))
        tracer.close()
        assert len(mem.spans) == 1
        assert len(read_jsonl(tmp_path / "t.jsonl")) == 1

    def test_spans_property_reads_memory_sinks(self):
        tracer = Tracer.in_memory()
        tracer.emit(Span(kind="round", name="r"))
        assert [s.name for s in tracer.spans] == ["r"]

    def test_span_context_manager_emits_on_error(self):
        tracer = Tracer.in_memory()
        with pytest.raises(RuntimeError):
            with tracer.span("run", "doomed"):
                raise RuntimeError("boom")
        (span,) = tracer.spans
        assert span.kind == "run" and span.name == "doomed"
        assert span.end >= span.start

    def test_context_manager_closes_sinks(self, tmp_path):
        with Tracer.to_jsonl(tmp_path / "t.jsonl") as tracer:
            tracer.emit(Span(kind="round", name="r"))
        assert len(read_jsonl(tmp_path / "t.jsonl")) == 1


class TestSimulatorSpans:
    def test_telemetry_off_by_default(self):
        sim = MPCSimulator()
        assert sim.tracer is None
        sim.run_round("r", _work10, [1, 2])   # runs fine without spans

    def test_one_machine_span_per_invocation(self):
        sim, tracer = _traced_sim()
        sim.run_round("r1", _work10, [1, 2, 3])
        sim.run_round("r2", _work10, [4])
        machine = [s for s in tracer.spans if s.kind == "machine"]
        assert len(machine) == sim.stats.total_machine_invocations == 4
        assert [(s.name, s.machine) for s in machine] == \
            [("r1", 0), ("r1", 1), ("r1", 2), ("r2", 0)]
        for s in machine:
            assert not s.wasted and s.fault == "" and s.attempt == 1
            assert s.end >= s.start

    def test_machine_span_fields_match_ledger(self):
        sim, tracer = _traced_sim()
        sim.run_round("r", _work10, [5])
        (span,) = [s for s in tracer.spans if s.kind == "machine"]
        r = sim.stats.rounds[0]
        assert span.work == r.total_work == 50
        assert span.input_words == r.total_input_words
        assert span.output_words == r.total_output_words

    def test_round_span_aggregates(self):
        sim, tracer = _traced_sim()
        sim.run_round("r", _work10, [1, 2])
        (span,) = [s for s in tracer.spans if s.kind == "round"]
        r = sim.stats.rounds[0]
        assert span.name == "r" and span.machine == -1
        assert span.work == r.total_work
        assert span.worker == os.getpid()

    def test_broadcast_words_on_spans(self, monkeypatch):
        calls = []
        original = simulator_mod.prepare_broadcast

        def timed(*args):
            calls.append(time.perf_counter())
            return original(*args)

        monkeypatch.setattr(simulator_mod, "prepare_broadcast", timed)
        sim, tracer = _traced_sim()
        sim.run_round("r", lambda p: p["v"], [{"v": 1}],
                      broadcast={"table": [1, 2, 3]})
        for s in tracer.spans:
            assert s.broadcast_words == sim.stats.rounds[0].broadcast_words
        # The round span covers round setup: it opens before the
        # broadcast is validated and priced.
        (round_span,) = [s for s in tracer.spans if s.kind == "round"]
        assert round_span.start <= calls[0]

    def test_spawn_propagates_tracer(self):
        sim, tracer = _traced_sim()
        sub = sim.spawn()
        assert sub.tracer is tracer
        sub.run_round("sub", _work10, [1])
        assert any(s.name == "sub" for s in tracer.spans)


class TestProcessPoolSpans:
    def test_worker_attribution_survives_pickling(self):
        tracer = Tracer.in_memory()
        with ProcessPoolExecutor(max_workers=2) as pool:
            sim = MPCSimulator(executor=pool, tracer=tracer)
            out = sim.run_round("r", _work10, list(range(6)))
        assert out == [i + 1 for i in range(6)]
        machine = [s for s in tracer.spans if s.kind == "machine"]
        assert len(machine) == 6
        workers = {s.worker for s in machine}
        # Spans executed in pool workers: attributed to their pids, not
        # the driver's, and to at most max_workers distinct processes.
        assert os.getpid() not in workers
        assert 1 <= len(workers) <= 2
        for s in machine:
            assert s.work == 10 * s.machine

    def test_worker_attribution_under_fault_plan(self):
        tracer = Tracer.in_memory()
        with ProcessPoolExecutor(max_workers=2) as pool:
            sim = MPCSimulator(
                executor=pool, fault_plan=_CrashPlan([(0, 1)]),
                retry_policy=RetryPolicy(max_attempts=3), tracer=tracer)
            out = sim.run_round("r", _work10, list(range(4)))
        assert out == [1, 2, 3, 4]
        machine = [s for s in tracer.spans if s.kind == "machine"]
        assert len(machine) == 5 == sim.stats.total_machine_attempts
        assert os.getpid() not in {s.worker for s in machine}


class TestChaosSpans:
    def test_crashed_then_retried_machine_yields_two_spans(self):
        sim = MPCSimulator(
            fault_plan=_CrashPlan([(1, 1)]),
            retry_policy=RetryPolicy(max_attempts=3),
            tracer=Tracer.in_memory())
        out = sim.run_round("r", _work10, [1, 2, 3])
        assert out == [2, 3, 4]
        spans = [s for s in sim.tracer.spans
                 if s.kind == "machine" and s.machine == 1]
        assert [s.attempt for s in spans] == [1, 2]
        assert [s.wasted for s in spans] == [True, False]
        (wasted,) = [s for s in spans if s.wasted]
        assert wasted.fault == "crash"
        r = sim.stats.rounds[0]
        assert r.failed_attempts == 1
        # Acceptance invariant: span count == invocations incl. retries.
        n_machine = sum(1 for s in sim.tracer.spans
                        if s.kind == "machine")
        assert n_machine == sim.stats.total_machine_attempts == 4

    def test_corrupt_fault_labelled(self):
        sim = MPCSimulator(
            fault_plan=_CrashPlan([], corrupt=[(0, 1)]),
            retry_policy=RetryPolicy(max_attempts=3),
            tracer=Tracer.in_memory())
        sim.run_round("r", _work10, [1])
        wasted = [s for s in sim.tracer.spans if s.wasted]
        assert [s.fault for s in wasted] == ["corrupt"]

    def test_dropped_machine_has_only_wasted_spans(self):
        sim = MPCSimulator(
            fault_plan=_CrashPlan([(0, 1), (0, 2)]),
            retry_policy=RetryPolicy(max_attempts=2, on_exhausted="drop"),
            tracer=Tracer.in_memory())
        out = sim.run_round("r", _work10, [1, 2])
        assert out[0] is None and out[1] == 3
        m0 = [s for s in sim.tracer.spans
              if s.kind == "machine" and s.machine == 0]
        assert len(m0) == 2 and all(s.wasted for s in m0)
        assert sim.stats.rounds[0].failed_attempts == 2
        assert sim.stats.total_machine_attempts == 3

    def test_no_plan_resilient_emits_like_base(self):
        sim = MPCSimulator(tracer=Tracer.in_memory())
        sim.run_round("r", _work10, [1, 2])
        kinds = sorted(s.kind for s in sim.tracer.spans)
        assert kinds == ["machine", "machine", "round"]


class TestPipelineSpans:
    def test_collector_span_carries_shuffle_accounting(self):
        sim, tracer = _traced_sim()
        Pipeline(sim).round(RoundSpec(
            "r", _work10, partitioner=lambda _: [1, 2],
            collector=lambda outs, _: sorted(outs)))
        (collect,) = [s for s in tracer.spans if s.kind == "collect"]
        r = sim.stats.rounds[0]
        assert collect.name == "r"
        assert collect.output_words == r.shuffle_words
        assert collect.work == r.shuffle_work
        assert collect.worker == os.getpid()

    def test_no_collector_no_collect_span(self):
        sim, tracer = _traced_sim()
        Pipeline(sim).round(RoundSpec(
            "r", _work10, partitioner=lambda _: [1]))
        assert not [s for s in tracer.spans if s.kind == "collect"]


class TestChromeExport:
    def _spans(self):
        tracer = Tracer.in_memory()
        sim = MPCSimulator(
            fault_plan=_CrashPlan([(0, 1)]),
            retry_policy=RetryPolicy(max_attempts=3), tracer=tracer)
        with tracer.span("run", "test"):
            sim.run_round("r", _work10, [1, 2])
        return tracer.spans

    def test_perfetto_required_fields(self, tmp_path):
        path = tmp_path / "chrome.json"
        spans = self._spans()
        export_chrome_trace(spans, path)
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert len(events) == len(spans)
        for ev in events:
            for field in ("name", "ph", "ts", "dur", "pid", "tid"):
                assert field in ev, field
            assert ev["ph"] == "X"
            assert ev["ts"] >= 0 and ev["dur"] >= 0
            assert isinstance(ev["pid"], int) and isinstance(ev["tid"], int)

    def test_timestamps_rebased_to_zero(self, tmp_path):
        path = tmp_path / "chrome.json"
        export_chrome_trace(self._spans(), path)
        events = json.loads(path.read_text())["traceEvents"]
        assert min(ev["ts"] for ev in events) == 0

    def test_retry_attempt_labelled(self, tmp_path):
        path = tmp_path / "chrome.json"
        export_chrome_trace(self._spans(), path)
        events = json.loads(path.read_text())["traceEvents"]
        assert any("attempt 2" in ev["name"] for ev in events)
        assert any(ev["args"]["wasted"] for ev in events)

    def test_empty_trace_exports_empty_document(self, tmp_path):
        path = tmp_path / "chrome.json"
        export_chrome_trace([], path)
        assert json.loads(path.read_text())["traceEvents"] == []
