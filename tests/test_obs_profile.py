"""Kernel-attribution profiler: charges, flame export, differential gate.

The acceptance bar of the profiling layer: a run made with profiling on
carries per-(round, kernel) wall-clock attribution in its summary (and
therefore its history record), the collapsed-stack exporters turn that
attribution into Brendan-Gregg flamegraph input, and — the point of the
whole layer — when one strings kernel is deliberately slowed
(:class:`repro.obs.profile.inject_slowdown`), ``repro profdiff`` ranks
exactly that kernel as the top wall-clock delta and a failing
``tools/check_regression.py`` run *names* it.
"""

import json
import pathlib
import subprocess
import sys
import time

from repro.engines import EngineRequest, get_engine
from repro.metrics import enabled as metrics_enabled
from repro.mpc.accounting import WorkMeter, charge
from repro.mpc.telemetry import Span
from repro.obs import profile
from repro.obs.profile import (collapsed_stacks, diff_profiles, enabled,
                               format_profile_diff, global_profile,
                               hot_kernels, inject_slowdown, kernel_rows,
                               kernel_totals, merge_profile,
                               reset_global_profile, write_collapsed)
from repro.registry import make_record, record_profile
from repro.workloads.permutations import planted_pair

ROOT = pathlib.Path(__file__).resolve().parent.parent

N = 128
SEED = 3


def _spin(kernel="demo", calls=1, cells=10):
    with charge(kernel, calls, cells):
        time.sleep(1e-4)


class TestCharge:
    def test_disabled_profiler_times_nothing(self):
        # An injected delay sleeps inside the timed window only, so an
        # untimed bracket does not pay it.
        t0 = time.perf_counter()
        with WorkMeter() as meter, inject_slowdown("demo", 0.5):
            with charge("demo", 1, 10):
                pass
        assert time.perf_counter() - t0 < 0.25
        assert meter.total == 10        # the ledger is still charged
        assert meter.kernels is None    # nothing to ship over the pool

    def test_meter_opened_before_enable_collects_no_profile(self):
        with WorkMeter() as meter, enabled():
            _spin()
        assert meter.total == 10
        assert meter.kernels is None

    def test_nested_meters_both_receive_the_charge(self):
        with enabled(), WorkMeter() as outer:
            _spin(cells=10)
            with WorkMeter() as inner:
                _spin(calls=3, cells=7)
        assert (outer.total, inner.total) == (17, 7)
        calls, cells, seconds = outer.kernels["demo"]
        assert (calls, cells) == (4, 17)
        assert seconds >= 2e-4
        assert inner.kernels["demo"][:2] == [3, 7]

    def test_one_charge_feeds_ledger_registry_and_profile(self):
        with metrics_enabled(), enabled():
            with WorkMeter() as meter:
                _spin(calls=2, cells=9)
        assert meter.total == 9
        assert meter.kernels["demo"][:2] == [2, 9]
        assert meter.metrics == {
            "strings.dp_cells{kernel=demo}": {"type": "counter",
                                              "value": 9},
            "strings.kernel_calls{kernel=demo}": {"type": "counter",
                                                  "value": 2}}

    def test_merge_profile_sums_per_kernel(self):
        into = {"a": [1, 10, 0.5]}
        merge_profile(into, {"a": [2, 5, 0.25], "b": [1, 1, 0.125]})
        assert into == {"a": [3, 15, 0.75], "b": [1, 1, 0.125]}

    def test_inject_slowdown_is_observed_then_restored(self):
        with enabled(), WorkMeter() as meter:
            with inject_slowdown("victim", 0.05):
                with charge("victim", 1, 1):
                    pass
                with charge("bystander", 1, 1):
                    pass
            with charge("victim", 1, 1):
                pass
        assert meter.kernels["victim"][2] >= 0.05
        assert meter.kernels["bystander"][2] < 0.05
        # After the context exits, the second victim call is fast again.
        assert meter.kernels["victim"][2] < 0.10

    def test_global_aggregate_folds_and_caps_queries(self):
        reset_global_profile()
        profile.fold_global({"k": [1, 5, 0.5]}, "svc1-q1", 1)
        profile.fold_global({"k": [1, 5, 0.5]}, "svc1-q2", 2)
        profile.fold_global({"k": [2, 2, 0.25]})  # uncorrelated
        snap = global_profile()
        assert snap["kernels"]["k"] == {"calls": 4, "cells": 12,
                                        "seconds": 1.25}
        assert set(snap["queries"]) == {"1:svc1-q1", "2:svc1-q2"}
        reset_global_profile()
        assert global_profile()["kernels"] == {}


def _ulam_record(n=N, seed=SEED):
    """One in-process ulam-mpc run -> (EngineResult, history record)."""
    budget = n // 16
    s, t, _ = planted_pair(n, budget, seed=seed, style="mixed")
    engine = get_engine("ulam-mpc")
    eres = engine.solve(EngineRequest(distance="ulam", s=s, t=t,
                                      seed=seed))
    summary = {"distance": eres.distance, **eres.stats.summary()}
    params = {"n": n, "x": eres.params.get("x"),
              "eps": eres.params.get("eps"), "seed": seed,
              "budget": budget}
    record = make_record("ulam", params, summary, engine=eres.engine)
    return eres, json.loads(json.dumps(record))  # as read from history


class TestRunAttribution:
    def test_profile_rows_ride_summary_and_global_aggregate(self):
        reset_global_profile()
        with enabled():
            eres, record = _ulam_record()
        rows = eres.stats.profile_rows()
        assert rows, "profiled run produced no kernel attribution"
        by_kernel = {r["kernel"] for r in rows}
        assert "ulam_sparse" in by_kernel
        for row in rows:
            assert row["calls"] > 0 and row["cells"] > 0
            assert row["seconds"] > 0
            assert 1 <= row["machines"]
            assert 0 < row["max_seconds"] <= row["seconds"] + 1e-9
            assert row["max_machine"] >= 0
        # The JSON round-tripped history record carries the same rows.
        assert record_profile(record) == json.loads(json.dumps(rows))
        # The process-global aggregate saw the same cells.
        snap = global_profile()["kernels"]
        sparse_cells = sum(r["cells"] for r in rows
                           if r["kernel"] == "ulam_sparse")
        assert snap["ulam_sparse"]["cells"] == sparse_cells

    def test_disabled_run_leaves_no_profile_block(self):
        eres, record = _ulam_record()
        assert not eres.stats.profile_active
        assert "profile" not in eres.stats.summary()
        assert record_profile(record) == []

    def test_profiled_ledger_matches_unprofiled_run(self):
        plain, _ = _ulam_record()
        with enabled():
            profiled, _ = _ulam_record()
        assert profiled.distance == plain.distance
        a = plain.stats.summary()
        b = profiled.stats.summary()
        b.pop("profile")
        a.pop("wall_seconds", None)
        b.pop("wall_seconds", None)
        assert a == b  # observation does not perturb the ledger


class TestFlameExport:
    RECORD = {"engine": "ulam-mpc", "command": "ulam",
              "summary": {"profile": [
                  {"round": "ulam/1-candidates", "kernel": "ulam_sparse",
                   "calls": 4, "cells": 100, "seconds": 0.25},
                  {"round": "ulam/1-candidates", "kernel": "lis",
                   "calls": 1, "cells": 10, "seconds": 0.001},
                  {"round": "ulam/2-verify", "kernel": "ulam_sparse",
                   "calls": 2, "cells": 50, "seconds": 0.5}]}}

    def test_flame_from_record_folds_round_kernel_frames(self):
        rows = kernel_rows(self.RECORD)
        assert collapsed_stacks(rows) == [
            "ulam-mpc;ulam/1-candidates;ulam_sparse 250000",
            "ulam-mpc;ulam/1-candidates;lis 1000",
            "ulam-mpc;ulam/2-verify;ulam_sparse 500000"]
        by_cells = collapsed_stacks(rows, weight="cells")
        assert "ulam-mpc;ulam/1-candidates;ulam_sparse 100" in by_cells

    def test_flame_from_spans_keeps_machine_frames(self):
        spans = [
            Span(kind="run", name="ulam", start=0.0, end=1.0),
            Span(kind="machine", name="ulam/1", machine=2, start=0.0,
                 end=0.5, profile={"ulam_sparse": [3, 40, 0.125]}),
            Span(kind="machine", name="ulam/1", machine=2, start=0.5,
                 end=0.9, profile={"ulam_sparse": [1, 10, 0.125]}),
            Span(kind="machine", name="ulam/1", machine=0, start=0.0,
                 end=0.2),  # unprofiled machines contribute no frame
        ]
        rows = kernel_rows(spans)
        assert collapsed_stacks(rows) == [
            "ulam;ulam/1;machine[2];ulam_sparse 250000"]
        assert collapsed_stacks(rows, weight="cells") == [
            "ulam;ulam/1;machine[2];ulam_sparse 50"]

    def test_write_collapsed_roundtrip(self, tmp_path):
        out = tmp_path / "prof.folded"
        write_collapsed(["a;b 1", "a;c 2"], out)
        assert out.read_text() == "a;b 1\na;c 2\n"
        write_collapsed([], out)
        assert out.read_text() == ""


class TestDifferentialProfiler:
    A = {"fast": {"calls": 10, "cells": 100, "seconds": 1.0},
         "gone": {"calls": 1, "cells": 5, "seconds": 0.3}}
    B = {"fast": {"calls": 10, "cells": 100, "seconds": 1.1},
         "slow": {"calls": 20, "cells": 400, "seconds": 3.0}}

    def test_rows_ranked_by_absolute_delta(self):
        rows = diff_profiles(self.A, self.B, by="seconds")
        assert [r["kernel"] for r in rows] == ["slow", "gone", "fast"]
        slow = rows[0]
        assert slow["a_seconds"] == 0 and slow["b_seconds"] == 3.0
        assert slow["delta_seconds"] == 3.0
        assert slow["change"] is None  # new kernel: no baseline
        fast = rows[-1]
        assert abs(fast["change"] - 0.1) < 1e-9

    def test_rank_by_cells_is_deterministic(self):
        rows = diff_profiles(self.A, self.B, by="cells")
        assert rows[0]["kernel"] == "slow"
        assert rows[0]["delta_cells"] == 400

    def test_format_names_kernels(self):
        text = format_profile_diff(
            diff_profiles(self.A, self.B), top=2)
        assert "slow" in text and "gone" in text
        assert "fast" not in text  # beyond top

    def test_hot_kernels_shares(self):
        ranked = hot_kernels(self.B, by="seconds", top=2)
        assert ranked[0][0] == "slow"
        assert abs(ranked[0][2] - 3.0 / 4.1) < 1e-9
        assert len(ranked) == 2

    def test_totals_from_spans_and_record_agree(self):
        spans = [Span(kind="machine", name="r", machine=0, start=0.0,
                      end=1.0, profile={"k": [2, 10, 0.5]}),
                 Span(kind="machine", name="r", machine=1, start=0.0,
                      end=1.0, profile={"k": [1, 5, 0.25]})]
        record = {"summary": {"profile": [
            {"round": "r", "kernel": "k", "calls": 3, "cells": 15,
             "seconds": 0.75}]}}
        assert kernel_totals(kernel_rows(spans)) == \
            kernel_totals(kernel_rows(record))


class TestRegressionAttribution:
    """The issue's acceptance scenario: slow one kernel, convict it."""

    def _regressed_pair(self, monkeypatch):
        with enabled():
            _, rec_a = _ulam_record()
            import repro.ulam.candidates as cand
            real_windows = cand.ulam_windows

            def doubled_windows(*args, **kwargs):
                real_windows(*args, **kwargs)
                return real_windows(*args, **kwargs)

            # Double every candidate evaluation (all of them go through
            # one window-kernel call per machine), regressing the gated
            # total_work, and slow the sparse kernel so the wall-clock
            # delta is unmistakably its own.
            monkeypatch.setattr(cand, "ulam_windows", doubled_windows)
            with inject_slowdown("ulam_sparse", 2e-5):
                _, rec_b = _ulam_record()
        return rec_a, rec_b

    def test_profdiff_and_failing_gate_name_the_slowed_kernel(
            self, tmp_path, monkeypatch, capsys):
        rec_a, rec_b = self._regressed_pair(monkeypatch)

        # The doubled kernel calls regress the gated work metric...
        assert rec_b["summary"]["total_work"] \
            > rec_a["summary"]["total_work"] * 1.15

        # ...and the differential profiler convicts ulam_sparse.
        rows = diff_profiles(kernel_totals(kernel_rows(rec_a)),
                             kernel_totals(kernel_rows(rec_b)),
                             by="seconds")
        assert rows[0]["kernel"] == "ulam_sparse"
        assert rows[0]["delta_seconds"] > 0
        assert rows[0]["delta_calls"] > 0

        base_file = tmp_path / "baseline.json"
        fresh_file = tmp_path / "fresh.jsonl"
        base_file.write_text(json.dumps([rec_a]))
        fresh_file.write_text(json.dumps(rec_b, sort_keys=True) + "\n")

        # `repro profdiff A B` ranks the slowed kernel first.
        from repro.cli import main
        assert main(["profdiff", str(base_file), str(fresh_file)]) == 0
        out = capsys.readouterr().out
        assert "hottest regression: ulam_sparse" in out

        # A failing check_regression run prints the same conviction.
        proc = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "check_regression.py"),
             "--baseline", str(base_file), "--record", str(fresh_file)],
            capture_output=True, text=True, cwd=str(ROOT), timeout=300)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "REGRESSED" in proc.stdout
        assert "responsible kernels" in proc.stdout
        tail = proc.stdout.split("responsible kernels", 1)[1].splitlines()
        # tail[1] is the table header; tail[2] the hottest delta row.
        assert "ulam_sparse" in tail[2]

    def test_repro_compare_prints_attribution_on_regression(
            self, tmp_path, monkeypatch, capsys):
        rec_a, rec_b = self._regressed_pair(monkeypatch)
        base_file = tmp_path / "baseline.json"
        history = tmp_path / "history.jsonl"
        base_file.write_text(json.dumps([rec_a]))
        history.write_text(json.dumps(rec_b, sort_keys=True) + "\n")
        from repro.cli import main
        code = main(["compare", "--baseline", str(base_file),
                     "--history", str(history)])
        out = capsys.readouterr().out
        assert code == 1
        assert "REGRESSED" in out
        assert "responsible kernels" in out
        assert "hottest: ulam_sparse, slower" in out


class TestProfileCLI:
    def test_profile_subcommand_renders_record_and_flame(
            self, tmp_path, capsys):
        with enabled():
            _, record = _ulam_record()
        rec_file = tmp_path / "run.jsonl"
        rec_file.write_text(json.dumps(record, sort_keys=True) + "\n")
        flame = tmp_path / "run.folded"
        from repro.cli import main
        assert main(["profile", str(rec_file),
                     "--flame", str(flame)]) == 0
        out = capsys.readouterr().out
        assert "ulam_sparse" in out
        lines = flame.read_text().splitlines()
        assert lines
        for line in lines:
            frames, value = line.rsplit(" ", 1)
            assert frames.startswith("ulam-mpc;")
            assert int(value) > 0
        assert any(";ulam_sparse " in line + " " or
                   line.split(" ")[0].endswith(";ulam_sparse")
                   for line in lines)

    def test_profile_subcommand_json_totals(self, tmp_path, capsys):
        with enabled():
            _, record = _ulam_record()
        rec_file = tmp_path / "run.jsonl"
        rec_file.write_text(json.dumps(record, sort_keys=True) + "\n")
        from repro.cli import main
        assert main(["profile", str(rec_file), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["source"] == "record"
        assert doc["kernels"]["ulam_sparse"]["calls"] > 0
        assert doc["rows"] == record_profile(record)

    def test_profile_subcommand_rejects_unprofiled_record(
            self, tmp_path, capsys):
        _, record = _ulam_record()  # profiling off
        rec_file = tmp_path / "run.jsonl"
        rec_file.write_text(json.dumps(record, sort_keys=True) + "\n")
        from repro.cli import main
        assert main(["profile", str(rec_file)]) == 1
        assert "no kernel profile data" in capsys.readouterr().err
