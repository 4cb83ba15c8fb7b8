"""Unit tests for work metering and run statistics."""

from repro.mpc import RoundStats, RunStats, WorkMeter, add_work


class TestWorkMeter:
    def test_inactive_add_is_noop(self):
        add_work(100)  # must not raise or leak anywhere

    def test_meter_accumulates(self):
        with WorkMeter() as m:
            add_work(3)
            add_work(4)
        assert m.total == 7

    def test_meter_stops_counting_after_exit(self):
        with WorkMeter() as m:
            add_work(1)
        add_work(100)
        assert m.total == 1

    def test_nested_meters_both_charged(self):
        with WorkMeter() as outer:
            add_work(1)
            with WorkMeter() as inner:
                add_work(10)
        assert inner.total == 10
        assert outer.total == 11


class TestRoundStats:
    def test_observe_machine_maxima_and_totals(self):
        r = RoundStats(name="r")
        r.observe_machine(input_words=10, output_words=3, work=100)
        r.observe_machine(input_words=7, output_words=9, work=50)
        assert r.machines == 2
        assert r.max_input_words == 10
        assert r.max_output_words == 9
        assert r.total_input_words == 17
        assert r.total_output_words == 12
        assert r.max_work == 100
        assert r.total_work == 150


def _round(name, machines_work):
    r = RoundStats(name=name)
    for inp, out, w in machines_work:
        r.observe_machine(inp, out, w)
    return r


class TestRunStats:
    def test_empty_run(self):
        s = RunStats()
        assert s.n_rounds == 0
        assert s.max_machines == 0
        assert s.total_work == 0
        assert s.max_memory_words == 0

    def test_aggregates(self):
        s = RunStats(rounds=[
            _round("a", [(10, 2, 5), (8, 1, 7)]),
            _round("b", [(3, 12, 100)]),
        ])
        assert s.n_rounds == 2
        assert s.max_machines == 2
        assert s.total_machine_invocations == 3
        assert s.max_memory_words == 12
        assert s.total_work == 112
        # critical path: max of round a (7) + max of round b (100)
        assert s.parallel_work == 107
        assert s.total_communication_words == 15

    def test_merge_parallel_semantics(self):
        a = RunStats(rounds=[_round("r1", [(10, 1, 5)]),
                             _round("r2", [(4, 1, 9)])])
        b = RunStats(rounds=[_round("r1", [(20, 2, 3), (1, 1, 1)])])
        merged = a.merge(b)
        assert merged.n_rounds == 2
        # machines add up within a merged round
        assert merged.rounds[0].machines == 3
        # memory maxima combine by max
        assert merged.rounds[0].max_input_words == 20
        # work adds up; critical path takes per-round max
        assert merged.total_work == 5 + 9 + 3 + 1
        assert merged.rounds[0].max_work == 5
        assert merged.rounds[1].max_work == 9

    def test_merge_is_symmetric_in_totals(self):
        a = RunStats(rounds=[_round("r1", [(10, 1, 5)])])
        b = RunStats(rounds=[_round("r1", [(2, 2, 2)]),
                             _round("r2", [(3, 3, 3)])])
        ab, ba = a.merge(b), b.merge(a)
        assert ab.total_work == ba.total_work
        assert ab.n_rounds == ba.n_rounds == 2

    def test_summary_keys(self):
        s = RunStats(rounds=[_round("a", [(1, 1, 1)])])
        summary = s.summary()
        for key in ("rounds", "max_machines", "max_memory_words",
                    "total_work", "parallel_work"):
            assert key in summary


class TestRunStatsMetrics:
    """RunStats carries the per-run metrics snapshot through snapshot,
    merge and summary (see repro.metrics)."""

    C = {"type": "counter", "value": 10}
    H = {"type": "histogram", "count": 2, "sum": 6, "min": 1, "max": 5}

    def _stats(self, metrics=None):
        s = RunStats(rounds=[_round("a", [(1, 1, 1)])])
        if metrics is not None:
            s.metrics = metrics
        return s

    def test_snapshot_detaches_metrics(self):
        s = self._stats({"c": dict(self.C)})
        snap = s.snapshot()
        snap.metrics["c"]["value"] = 999
        assert s.metrics["c"]["value"] == 10

    def test_merge_metrics_free_is_identity(self):
        # Merging a metrics-bearing run with a metrics-free one (e.g. a
        # guess sub-simulator that ran no instrumented kernels) must
        # keep the metrics unchanged, both ways.
        a = self._stats({"c": dict(self.C)})
        b = self._stats()
        assert a.merge(b).metrics == {"c": self.C}
        assert b.merge(a).metrics == {"c": self.C}

    def test_merge_combines_like_the_ledger(self):
        a = self._stats({"c": dict(self.C),
                         "g": {"type": "gauge", "value": 3},
                         "h": dict(self.H)})
        b = self._stats({"c": {"type": "counter", "value": 5},
                         "g": {"type": "gauge", "value": 7},
                         "h": {"type": "histogram", "count": 1, "sum": 9,
                               "min": 9, "max": 9}})
        merged = a.merge(b).metrics
        assert merged["c"]["value"] == 15          # counters add
        assert merged["g"]["value"] == 7           # gauges take max
        assert merged["h"] == {"type": "histogram", "count": 3,
                               "sum": 15, "min": 1, "max": 9}

    def test_merge_does_not_mutate_operands(self):
        a = self._stats({"c": dict(self.C)})
        b = self._stats({"c": {"type": "counter", "value": 5}})
        a.merge(b)
        assert a.metrics["c"]["value"] == 10
        assert b.metrics["c"]["value"] == 5

    def test_summary_embeds_metrics_only_when_present(self):
        assert "metrics" not in self._stats().summary()
        summary = self._stats({"c": dict(self.C)}).summary()
        assert summary["metrics"] == {"c": self.C}

    def test_summary_metrics_are_json_ready(self):
        import json
        summary = self._stats({"c": dict(self.C),
                               "h": dict(self.H)}).summary()
        assert json.loads(json.dumps(summary))["metrics"]["h"]["sum"] == 6
