"""Tests for the command-line interface."""

import json
import pathlib

import numpy as np
import pytest

from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def _isolated_cwd(tmp_path, monkeypatch):
    """Run every CLI test from a scratch directory.

    ``ulam``/``edit``/``chaos`` append to ``.repro/history.jsonl`` under
    the working directory by default; without this fixture the suite
    would litter run records into the repository checkout.
    """
    monkeypatch.chdir(tmp_path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults_per_command(self):
        args = build_parser().parse_args(["ulam"])
        assert args.x == 0.4 and args.eps == 0.5
        args = build_parser().parse_args(["edit"])
        assert args.x == 0.25 and args.eps == 1.0

    def test_overrides(self):
        args = build_parser().parse_args(
            ["edit", "--n", "128", "--x", "0.2", "--eps", "2.0",
             "--seed", "7"])
        assert (args.n, args.x, args.eps, args.seed) == (128, 0.2, 2.0, 7)

    @pytest.mark.parametrize("argv, prefix", [
        (["ulam", "--eps", "-1"], "repro ulam: error: argument --eps"),
        (["ulam", "--x", "0.7"], "repro ulam: error: argument --x"),
        (["edit", "--eps", "nan"], "repro edit: error: argument --eps"),
        (["edit", "--x", "0.3"], "repro edit: error: argument --x"),
        (["serve", "--eps", "inf"], "repro serve: error: argument --eps"),
        (["serve", "--x", "0.45"], "repro: error: argument --x"),
        (["chaos", "--algo", "ulam", "--x", "nan"],
         "repro: error: argument --x"),
        (["serve-bench", "--x", "0.7"],
         "repro serve-bench: error: argument --x"),
        (["serve-bench", "--x", "0"],
         "repro serve-bench: error: argument --x"),
        (["hss", "--x", "0.6"], "repro hss: error: argument --x"),
        (["ulam", "--n", "0"], "repro ulam: error: argument --n"),
        (["edit", "--n", "-5"], "repro edit: error: argument --n"),
        (["serve", "--workers", "-1"],
         "repro serve: error: argument --workers"),
        (["table1", "--x", "2"], "repro table1: error: argument --x"),
        (["history", "--limit", "-1"],
         "repro history: error: argument --limit"),
        (["lcs"], "repro: error: argument command: invalid choice"),
        (["lis"], "repro: error: argument command: invalid choice"),
        (["ulam", "--s-file", "missing.txt", "--t-file", "perm.txt"],
         "repro ulam: error: argument --s-file"),
        (["ulam", "--s-file", "perm.txt", "--t-file", "subdir"],
         "repro ulam: error: argument --t-file"),
        (["ulam", "--s-file", "dup.txt", "--t-file", "perm.txt"],
         "repro ulam: error: argument --s-file"),
        (["edit", "--s-file", "perm.txt"],
         "repro edit: error: provide both --s-file and --t-file"),
        (["ulam", "--n", "64", "--budget", "-3"],
         "repro ulam: error: argument --budget"),
    ], ids=["ulam-eps", "ulam-x", "edit-eps", "edit-x", "serve-eps",
            "serve-x", "chaos-x", "serve-bench-x", "serve-bench-x0",
            "hss-x", "ulam-n0", "edit-n-neg", "serve-workers-neg",
            "table1-x2", "history-limit-neg", "lcs-gone", "lis-gone",
            "s-file-missing", "t-file-dir", "s-file-dup", "t-file-absent",
            "ulam-budget-neg"])
    def test_bad_x_eps_are_usage_errors(self, capsys, tmp_path, argv,
                                        prefix):
        # File rows name these inputs; tests run from tmp_path.
        (tmp_path / "perm.txt").write_text("helo")
        (tmp_path / "dup.txt").write_text("hello")
        (tmp_path / "subdir").mkdir()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines()[-1].startswith(prefix)


class TestCommands:
    def test_ulam_runs(self, capsys):
        assert main(["ulam", "--n", "128", "--budget", "4",
                     "--exact"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 4" in out
        assert "ratio" in out and "rounds" in out

    def test_edit_runs(self, capsys):
        assert main(["edit", "--n", "128", "--budget", "4",
                     "--exact"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 9" in out and "regime" in out

    def test_hss_runs(self, capsys):
        assert main(["hss", "--n", "128", "--budget", "4"]) == 0
        assert "HSS'19" in capsys.readouterr().out

    def test_beghs_runs(self, capsys):
        assert main(["beghs", "--n", "128", "--budget", "4",
                     "--exact"]) == 0
        out = capsys.readouterr().out
        assert "BEGHS'18" in out and "tree_depth" in out

    def test_table1(self, capsys):
        assert main(["table1", "--n", "4096", "--x", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 4" in out and "HSS'19 [20]" in out

    def test_file_inputs(self, tmp_path, capsys):
        (tmp_path / "s.txt").write_text("elephant" * 8)
        (tmp_path / "t.txt").write_text("relevant" * 8)
        assert main(["edit",
                     "--s-file", str(tmp_path / "s.txt"),
                     "--t-file", str(tmp_path / "t.txt"),
                     "--exact"]) == 0
        out = capsys.readouterr().out
        assert "exact" in out

    def test_mismatched_file_flags_rejected(self, tmp_path):
        (tmp_path / "s.txt").write_text("abc")
        with pytest.raises(SystemExit):
            main(["edit", "--s-file", str(tmp_path / "s.txt")])

    def test_exact_omitted_skips_reference(self, capsys):
        assert main(["ulam", "--n", "128", "--budget", "2"]) == 0
        out = capsys.readouterr().out
        assert "exact" not in out


class TestChaosCommands:
    def test_chaos_defaults_print_recovery_ledger(self, capsys):
        assert main(["chaos", "--algo", "ulam", "--n", "256",
                     "--budget", "8"]) == 0
        out = capsys.readouterr().out
        assert "Chaos run" in out
        assert "Recovery ledger" in out
        assert "fault_plan" in out
        assert "retried" in out

    def test_chaos_edit_runs(self, capsys):
        assert main(["chaos", "--algo", "edit", "--n", "128",
                     "--budget", "4", "--exact"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 9" in out and "Recovery ledger" in out

    def test_fault_plan_flag_on_ulam(self, capsys):
        assert main(["ulam", "--n", "256", "--budget", "8",
                     "--fault-plan", "crash=0.2", "--retries", "5",
                     "--exact"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 4" in out and "ratio" in out

    def test_fault_plan_flag_on_edit_with_drop(self, capsys):
        assert main(["edit", "--n", "128", "--budget", "4",
                     "--fault-plan", "crash=0.1", "--on-exhausted",
                     "drop"]) == 0
        assert "Theorem 9" in capsys.readouterr().out

    def test_chaos_uses_each_algos_own_defaults(self, capsys):
        # `chaos --algo ulam` must run with ulam's (x, eps) defaults —
        # identical parameters (and hence ledger) to the plain `ulam`
        # command under the same fault flags.
        argv_tail = ["--n", "256", "--budget", "8",
                     "--fault-plan", "crash=0.1", "--seed", "3"]
        assert main(["chaos", "--algo", "ulam"] + argv_tail) == 0
        chaos_out = capsys.readouterr().out
        assert main(["ulam"] + argv_tail) == 0
        plain_out = capsys.readouterr().out
        pick = lambda s, key: [l for l in s.splitlines()
                               if l.strip().startswith(key)]
        for key in ("answer", "max_machines", "max_memory_words",
                    "total_work"):
            assert pick(chaos_out, key) == pick(plain_out, key), key

    def test_chaos_x_eps_overrides_still_win(self):
        args = build_parser().parse_args(
            ["chaos", "--algo", "edit", "--x", "0.2", "--eps", "2.0"])
        assert (args.x, args.eps) == (0.2, 2.0)

    def test_chaos_runs_are_replayable(self, capsys):
        argv = ["chaos", "--algo", "ulam", "--n", "256", "--budget", "8",
                "--fault-plan", "crash=0.15", "--seed", "3"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        strip = lambda s: [l for l in s.splitlines()
                           if "wall_seconds" not in l]
        assert strip(first) == strip(second)

    def test_bad_fault_plan_spec_errors(self):
        with pytest.raises(SystemExit) as exc:
            main(["ulam", "--n", "128", "--fault-plan", "explode=1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags, option", [
        (["--fault-plan", "crash=abc"], "--fault-plan"),
        (["--fault-plan", "crash=1.5"], "--fault-plan"),
        (["--fault-plan", "crash=0.1", "--retries", "0"], "--retries"),
    ])
    def test_bad_chaos_flags_are_usage_errors(self, capsys, flags, option):
        with pytest.raises(SystemExit) as exc:
            main(["ulam", "--n", "128"] + flags)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        last = err.strip().splitlines()[-1]
        assert last.startswith("repro ulam: error: argument " + option)


class TestTelemetryCommands:
    def _reference_stats(self, n, budget, fault_plan=None, retries=3):
        """The ledger of an identical run made through the API."""
        from repro.params import UlamParams
        from repro.ulam import mpc_ulam
        from repro.workloads.permutations import planted_pair
        s, t, _ = planted_pair(n, budget, seed=0, style="mixed")
        sim = None
        if fault_plan is not None:
            from repro.mpc import FaultPlan, MPCSimulator, RetryPolicy
            sim = MPCSimulator(
                memory_limit=UlamParams(n=n, x=0.4, eps=0.5).memory_limit,
                fault_plan=FaultPlan.from_spec(fault_plan, seed=0),
                retry_policy=RetryPolicy(max_attempts=retries))
        return mpc_ulam(s, t, x=0.4, eps=0.5, seed=0, sim=sim).stats

    def test_trace_flag_writes_spans_matching_ledger(self, tmp_path,
                                                     capsys):
        from repro.mpc import read_jsonl
        path = tmp_path / "run.jsonl"
        assert main(["ulam", "--n", "128", "--budget", "8",
                     "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"span trace written to {path}" in out
        spans = read_jsonl(path)
        machine = [s for s in spans if s.kind == "machine"]
        stats = self._reference_stats(128, 8)
        assert len(machine) == stats.total_machine_invocations
        assert [s.kind for s in spans].count("run") == 1
        assert any(s.kind == "round" for s in spans)

    def test_trace_flag_counts_retry_attempts(self, tmp_path, capsys):
        # Acceptance criterion: the span count of a --trace run equals
        # the ledger's total machine invocations *including retries*.
        from repro.mpc import read_jsonl
        path = tmp_path / "chaos.jsonl"
        assert main(["ulam", "--n", "256", "--budget", "8",
                     "--fault-plan", "crash=0.2", "--seed", "0",
                     "--trace", str(path)]) == 0
        capsys.readouterr()
        machine = [s for s in read_jsonl(path) if s.kind == "machine"]
        stats = self._reference_stats(256, 8, fault_plan="crash=0.2")
        assert stats.failed_attempts > 0, "fault plan injected nothing"
        assert len(machine) == stats.total_machine_attempts
        assert sum(1 for s in machine if s.wasted) == stats.failed_attempts

    def test_skew_flag_prints_reports(self, capsys):
        assert main(["ulam", "--n", "128", "--budget", "8",
                     "--skew"]) == 0
        out = capsys.readouterr().out
        assert "Run timeline" in out
        assert "Straggler analytics" in out
        assert "straggler" in out and "critical path" in out

    def test_trace_subcommand_renders_saved_trace(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main(["ulam", "--n", "128", "--budget", "8",
                     "--trace", str(path)]) == 0
        capsys.readouterr()
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Run timeline" in out and "Straggler analytics" in out

    def test_trace_subcommand_chrome_export(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        chrome = tmp_path / "run.chrome.json"
        assert main(["ulam", "--n", "128", "--budget", "8",
                     "--trace", str(path)]) == 0
        capsys.readouterr()
        assert main(["trace", str(path), "--chrome", str(chrome)]) == 0
        assert "perfetto" in capsys.readouterr().out
        doc = json.loads(chrome.read_text())
        assert doc["traceEvents"]
        for ev in doc["traceEvents"]:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(ev)
            if ev["ph"] == "X":
                assert "dur" in ev
        # CLI runs profile by default, so the machine spans carry
        # kernel attribution and feed the dp_cells counter track.
        assert any(ev["ph"] == "C" and ev["name"] == "kernel dp_cells"
                   for ev in doc["traceEvents"])

    def test_trace_subcommand_rejects_empty_trace(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(SystemExit, match="no spans"):
            main(["trace", str(path)])

    def test_no_telemetry_flags_no_trace_output(self, capsys):
        assert main(["ulam", "--n", "128", "--budget", "8"]) == 0
        out = capsys.readouterr().out
        assert "span trace" not in out and "Run timeline" not in out


class TestRegistryCommands:
    """--json records, --check-guarantees, history and compare."""

    # A chaos run that drops most machines returns a distance far above
    # (1+eps) * exact — the canonical "mis-parameterised" run the
    # guarantee monitor exists to catch (see TestRegistryCommands
    # .test_check_guarantees_fails_on_degraded_run).
    DEGRADED = ["chaos", "--algo", "ulam", "--n", "128", "--budget", "4",
                "--eps", "0.5", "--seed", "0", "--fault-plan", "crash=0.6",
                "--retries", "1", "--on-exhausted", "drop"]

    def test_json_round_trips(self, capsys):
        assert main(["ulam", "--n", "256", "--budget", "8", "--seed", "0",
                     "--exact", "--json", "--no-history"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1, "--json must print exactly one line"
        record = json.loads(out[0])
        assert record["schema"] == 1
        assert record["command"] == "ulam"
        assert record["params"] == {"n": 256, "x": 0.4, "eps": 0.5,
                                    "seed": 0, "budget": 8}
        summary = record["summary"]
        assert summary["distance"] == summary["exact"] * summary["ratio"]
        for key in ("rounds", "max_machines", "max_memory_words",
                    "total_work", "parallel_work",
                    "total_communication_words"):
            assert isinstance(summary[key], int), key
        # CLI runs collect metrics; the delta rides inside the summary.
        metrics = summary["metrics"]
        assert metrics["ulam.candidate_tuples"]["type"] == "counter"
        assert metrics["ulam.candidate_tuples"]["value"] > 0
        # Round-trip: the printed line is the canonical serialisation.
        assert json.loads(json.dumps(record, sort_keys=True)) == record

    def test_json_edit_carries_regime(self, capsys):
        assert main(["edit", "--n", "128", "--budget", "4", "--json",
                     "--no-history"]) == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["command"] == "edit"
        assert record["regime"] in ("small", "large")
        assert "accepted_guess" in record

    def test_json_suppresses_human_report(self, capsys):
        assert main(["ulam", "--n", "128", "--budget", "4", "--json",
                     "--no-history"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 4" not in out

    def test_check_guarantees_pass_ulam(self, capsys):
        assert main(["ulam", "--n", "256", "--budget", "8", "--seed", "0",
                     "--check-guarantees", "--no-history"]) == 0
        out = capsys.readouterr().out
        assert "guarantees[ulam]: PASS" in out
        assert "approximation_ratio" in out and "round_count" in out

    def test_check_guarantees_pass_edit(self, capsys):
        assert main(["edit", "--n", "128", "--budget", "4", "--seed", "0",
                     "--check-guarantees", "--no-history"]) == 0
        assert "guarantees[edit]: PASS" in capsys.readouterr().out

    def test_check_guarantees_fails_on_degraded_run(self, capsys):
        """Dropping machines breaks 1+eps; the monitor must exit 1."""
        assert main(self.DEGRADED
                    + ["--check-guarantees", "--no-history"]) == 1
        out = capsys.readouterr().out
        assert "guarantees[ulam]: FAIL" in out
        assert "approximation_ratio" in out

    def test_degraded_run_passes_without_the_flag(self, capsys):
        """Without --check-guarantees the same run exits 0 (no gating)."""
        assert main(self.DEGRADED + ["--no-history"]) == 0

    def test_json_record_embeds_guarantee_verdict(self, capsys):
        assert main(self.DEGRADED + ["--check-guarantees", "--json",
                                     "--no-history"]) == 1
        record = json.loads(capsys.readouterr().out.strip())
        g = record["guarantees"]
        assert g["algorithm"] == "ulam" and g["passed"] is False
        failed = [c for c in g["checks"] if not c["passed"]]
        assert any(c["name"] == "approximation_ratio" for c in failed)
        assert record["fault_plan"].startswith("crash=0.6")

    def test_history_appended_and_listed(self, tmp_path, capsys):
        hist = tmp_path / "hist.jsonl"
        assert main(["ulam", "--n", "128", "--budget", "4",
                     "--history", str(hist)]) == 0
        assert main(["edit", "--n", "128", "--budget", "4",
                     "--history", str(hist)]) == 0
        capsys.readouterr()
        assert main(["history", "--history", str(hist)]) == 0
        out = capsys.readouterr().out
        assert "2 run(s)" in out
        assert "ulam" in out and "edit" in out

    def test_history_json_mode(self, tmp_path, capsys):
        hist = tmp_path / "hist.jsonl"
        assert main(["ulam", "--n", "128", "--budget", "4",
                     "--history", str(hist)]) == 0
        capsys.readouterr()
        assert main(["history", "--history", str(hist), "--json"]) == 0
        records = [json.loads(line) for line in
                   capsys.readouterr().out.strip().splitlines()]
        assert len(records) == 1 and records[0]["command"] == "ulam"

    def test_history_default_path_under_cwd(self, tmp_path, capsys):
        assert main(["ulam", "--n", "128", "--budget", "4"]) == 0
        assert (tmp_path / ".repro" / "history.jsonl").exists()

    def test_no_history_writes_nothing(self, tmp_path, capsys):
        assert main(["ulam", "--n", "128", "--budget", "4",
                     "--no-history"]) == 0
        assert not (tmp_path / ".repro").exists()

    def test_history_empty(self, tmp_path, capsys):
        assert main(["history", "--history",
                     str(tmp_path / "nope.jsonl")]) == 0
        assert "no run history" in capsys.readouterr().out

    def test_history_since_filters_by_timestamp(self, tmp_path, capsys):
        hist = tmp_path / "hist.jsonl"
        assert main(["ulam", "--n", "128", "--budget", "4",
                     "--history", str(hist)]) == 0
        # Age one record a year into the past; keep the other current.
        records = [json.loads(line)
                   for line in hist.read_text().splitlines()]
        old = dict(records[0])
        old["timestamp"] = "2020-01-01T00:00:00Z"
        hist.write_text("\n".join(
            json.dumps(r, sort_keys=True) for r in [old] + records) + "\n")
        capsys.readouterr()
        assert main(["history", "--history", str(hist)]) == 0
        assert "2 run(s)" in capsys.readouterr().out
        assert main(["history", "--history", str(hist),
                     "--since", "2021", "--json"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        assert json.loads(out[0])["timestamp"] != "2020-01-01T00:00:00Z"
        assert main(["history", "--history", str(hist),
                     "--since", "2999"]) == 0
        assert "no run history" in capsys.readouterr().out

    def _baseline_from_run(self, tmp_path, capsys, doctor=None):
        """Run once, return (baseline path, history path)."""
        hist = tmp_path / "hist.jsonl"
        assert main(["ulam", "--n", "128", "--budget", "4", "--seed", "0",
                     "--history", str(hist), "--json"]) == 0
        record = json.loads(capsys.readouterr().out.strip())
        if doctor is not None:
            doctor(record)
        base = tmp_path / "baseline.json"
        base.write_text(json.dumps([record]))
        return base, hist

    def test_compare_ok_against_own_baseline(self, tmp_path, capsys):
        base, hist = self._baseline_from_run(tmp_path, capsys)
        assert main(["compare", "--baseline", str(base),
                     "--history", str(hist)]) == 0
        out = capsys.readouterr().out
        assert ": ok" in out and "REGRESSED" not in out
        assert "total_work" in out

    def test_compare_detects_regression(self, tmp_path, capsys):
        def doctor(record):
            record["summary"]["total_work"] //= 2  # fresh looks 2x worse
        base, hist = self._baseline_from_run(tmp_path, capsys, doctor)
        assert main(["compare", "--baseline", str(base),
                     "--history", str(hist)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out

    def test_compare_tolerance_flag(self, tmp_path, capsys):
        def doctor(record):
            record["summary"]["total_work"] = int(
                record["summary"]["total_work"] / 1.3)
        base, hist = self._baseline_from_run(tmp_path, capsys, doctor)
        # ~+30% over baseline: regressed at the default 15%...
        assert main(["compare", "--baseline", str(base),
                     "--history", str(hist)]) == 1
        capsys.readouterr()
        # ...tolerated with an explicit wider tolerance.
        assert main(["compare", "--baseline", str(base),
                     "--history", str(hist), "--tolerance", "0.5"]) == 0

    def test_compare_no_matching_history(self, tmp_path, capsys):
        base, hist = self._baseline_from_run(tmp_path, capsys)
        with pytest.raises(SystemExit, match="no history run matches"):
            main(["compare", "--baseline", str(base),
                  "--history", str(tmp_path / "other.jsonl")])

    def test_compare_never_matches_runs_of_another_distance(
            self, tmp_path, capsys):
        # Same n/seed/budget and engine-default x/eps, different
        # --distance: the runs are not the same experiment.
        base_hist = tmp_path / "base.jsonl"
        hist = tmp_path / "h.jsonl"
        for distance, path in (("edit", base_hist), ("ulam", hist)):
            assert main(["solve", "--distance", distance, "--n", "64",
                         "--budget", "4", "--history", str(path)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="no history run matches"):
            main(["compare", "--baseline", str(base_hist),
                  "--history", str(hist)])
        assert "no matching run" in capsys.readouterr().out

    def test_fault_settings_are_recorded_only_with_a_fault_plan(
            self, capsys):
        flags = ["--n", "64", "--budget", "4", "--json", "--no-history"]
        assert main(["ulam"] + flags) == 0
        plain = json.loads(capsys.readouterr().out)
        assert main(["ulam", "--fault-plan", "crash=0.2"] + flags) == 0
        faulty = json.loads(capsys.readouterr().out)
        settings = ("fault_plan", "retries", "on_exhausted", "no_data_plane")
        assert not set(settings) & set(plain)
        assert faulty["fault_plan"] == "crash=0.2,seed=0"
        assert (faulty["retries"], faulty["on_exhausted"]) == (3, "raise")

    def test_compare_never_gates_a_fault_run_against_a_fault_free_one(
            self, tmp_path, capsys):
        base_hist = tmp_path / "base.jsonl"
        hist = tmp_path / "h.jsonl"
        for extra, path in (([], base_hist),
                            (["--fault-plan", "crash=0.2"], hist)):
            assert main(["ulam", "--n", "64", "--budget", "4",
                         "--history", str(path)] + extra) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="no history run matches"):
            main(["compare", "--baseline", str(base_hist),
                  "--history", str(hist)])
        assert "no matching run" in capsys.readouterr().out

    def test_no_data_plane_run_is_not_gated_on_shipped_bytes(
            self, tmp_path, capsys):
        # The committed baseline was run with the data plane on; a
        # --no-data-plane run ships more bytes and is another experiment.
        baseline = pathlib.Path(__file__).resolve().parents[1] \
            / "BENCH_table1.json"
        hist = tmp_path / "h.jsonl"
        flags = ["ulam", "--n", "256", "--budget", "8", "--seed", "0",
                 "--history", str(hist)]
        assert main(flags) == 0
        assert main(flags + ["--no-data-plane"]) == 0
        capsys.readouterr()
        assert main(["compare", "--baseline", str(baseline),
                     "--history", str(hist)]) == 0
        out = capsys.readouterr().out
        assert "ulam n=256 x=0.4 eps=0.5 seed=0: ok" in out
        assert "REGRESSED" not in out

    def test_compare_missing_baseline_records(self, tmp_path):
        base = tmp_path / "empty.json"
        base.write_text("[]")
        with pytest.raises(SystemExit, match="no baseline records"):
            main(["compare", "--baseline", str(base)])


class TestServeCommands:
    @pytest.mark.parametrize("argv", [
        ["serve", "--queries", "0"],
        ["serve-bench", "--queries", "0"],
        ["serve", "--max-queries", "0"],
        ["serve", "--max-inflight", "0"],
    ], ids=["serve-queries", "serve-bench-queries", "max-queries",
            "max-inflight"])
    def test_zero_counts_are_usage_errors(self, capsys, argv):
        # At run time these would index an empty latency list or wait on
        # a zero semaphore forever.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert last.startswith(f"repro {argv[0]}: error: argument {argv[1]}")

    def test_serve_prints_per_query_lines_and_aggregate(self, capsys):
        assert main(["serve", "--n", "64", "--queries", "4",
                     "--no-history"]) == 0
        out = capsys.readouterr().out
        assert "#1" in out and "#4" in out
        assert "ulam" in out and "edit" in out
        assert "Service batch (4 queries" in out
        assert "p50_latency_seconds" in out
        assert "queries_per_second" in out

    def test_serve_appends_one_history_record_per_query(self, tmp_path,
                                                        capsys):
        history = str(tmp_path / "h.jsonl")
        assert main(["serve", "--n", "64", "--queries", "4",
                     "--history", history]) == 0
        from repro.registry import read_history
        records = read_history(history)
        assert len(records) == 4
        assert {r["command"] for r in records} == {"serve"}
        assert [r["query_id"] for r in records] == [1, 2, 3, 4]
        assert {r["algo"] for r in records} == {"ulam", "edit"}
        for r in records:
            assert r["summary"]["total_work"] > 0

    def test_serve_json_emits_batch_record(self, capsys):
        assert main(["serve", "--n", "64", "--queries", "4", "--json",
                     "--no-history", "--check-guarantees"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["command"] == "serve"
        assert record["summary"]["n_queries"] == 4
        assert record["guarantees"]["passed"] is True

    def test_serve_single_algo_workload(self, capsys):
        assert main(["serve", "--n", "64", "--queries", "3",
                     "--algo", "ulam", "--json", "--no-history"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["algo"] == "ulam"

    def test_serve_bench_record_is_replay_deterministic(self, capsys):
        argv = ["serve-bench", "--n", "96", "--queries", "4", "--json",
                "--no-history", "--check-guarantees"]
        records = []
        for _ in range(2):
            assert main(list(argv)) == 0
            records.append(json.loads(capsys.readouterr().out))
        first, second = records
        # Identity, gated ledger and verdict are bit-for-bit stable
        # across runs; only the clock-derived fields (latency, wall,
        # qps) and the per-service trace ids may differ.
        assert first["params"] == second["params"]
        assert first["guarantees"] == second["guarantees"]

        def strip_per_query(rows):
            out = []
            for row in rows:
                row = dict(row)
                assert row.pop("latency_seconds") > 0
                assert row.pop("trace_id")
                out.append(row)
            return out

        assert strip_per_query(first["per_query"]) \
            == strip_per_query(second["per_query"])
        s1, s2 = first["summary"], second["summary"]
        for clock in ("wall_seconds", "p50_latency_seconds",
                      "p99_latency_seconds", "queries_per_second"):
            s1.pop(clock), s2.pop(clock)
        assert s1 == s2

    def test_serve_bench_matches_regression_gate_replay_shape(self,
                                                              capsys):
        # tools/check_regression.py replays records as `python -m repro
        # <command> --n --x --eps --seed --budget ...`; the serve-bench
        # parser must accept exactly that argv and reproduce the key,
        # whose last field is the --queries setting.
        assert main(["serve-bench", "--n", "96", "--x", "0.25",
                     "--eps", "0.5", "--seed", "0", "--json",
                     "--no-history", "--check-guarantees",
                     "--budget", "6", "--queries", "4"]) == 0
        record = json.loads(capsys.readouterr().out)
        from repro.registry import GATED_METRICS, record_key
        assert record_key(record) == (
            "serve-bench", 96, 0.25, 0.5, 0, 6, 4)
        for metric in GATED_METRICS:
            assert isinstance(record["summary"][metric], int), metric

    def test_serve_bench_history_append(self, tmp_path, capsys):
        history = str(tmp_path / "h.jsonl")
        assert main(["serve-bench", "--n", "64", "--queries", "2",
                     "--history", history]) == 0
        from repro.registry import read_history
        records = read_history(history)
        assert len(records) == 1
        assert records[0]["command"] == "serve-bench"
        assert len(records[0]["per_query"]) == 2


class TestEngineCommands:
    """The `solve` / `engines` subcommands and registry-derived CLI."""

    def test_solve_auto_answers_both_distances(self, capsys):
        for distance in ("ulam", "edit"):
            assert main(["solve", "--distance", distance, "--n", "96",
                         "--budget", "4", "--no-history",
                         "--check-guarantees"]) == 0
            out = capsys.readouterr().out
            assert "solve[" in out
            assert "PASS" in out

    def test_solve_named_engine_record_carries_engine(self, capsys):
        assert main(["solve", "--distance", "edit", "--engine",
                     "hss", "--n", "96", "--budget", "4",
                     "--json", "--no-history"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["command"] == "solve"
        assert record["engine"] == "hss"
        assert record["engine_spec"] == "hss"
        assert record["distance"] == "edit"
        assert record["summary"]["total_work"] > 0

    def test_solve_guarantee_floor_steers_auto(self, capsys):
        assert main(["solve", "--distance", "edit", "--n", "96",
                     "--budget", "4", "--guarantee", "1+eps",
                     "--json", "--no-history"]) == 0
        record = json.loads(capsys.readouterr().out)
        from repro.engines import get_engine
        cls = get_engine(record["engine"]).caps.guarantee_class
        assert cls in ("exact", "1+eps")

    def test_solve_rejects_unknown_engine_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["solve", "--engine", "no-such-engine"])

    def test_solve_unsatisfiable_request_exits_with_reasons(self,
                                                            tmp_path):
        # Duplicate symbols rule out every ulam engine; the planner's
        # typed refusal surfaces as a SystemExit, not a traceback.
        (tmp_path / "s.txt").write_text("aab")
        (tmp_path / "t.txt").write_text("aba")
        with pytest.raises(SystemExit, match="duplicate-free"):
            main(["solve", "--distance", "ulam", "--engine", "auto",
                  "--s-file", str(tmp_path / "s.txt"),
                  "--t-file", str(tmp_path / "t.txt"),
                  "--no-history"])

    def test_engines_table_lists_all(self, capsys):
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        for name in ("ulam-mpc", "edit-mpc", "hss", "beghs",
                     "exact-ulam", "exact-edit"):
            assert name in out

    def test_engines_json_and_distance_filter(self, capsys):
        assert main(["engines", "--distance", "ulam", "--json"]) == 0
        caps = [json.loads(line) for line in
                capsys.readouterr().out.splitlines() if line.strip()]
        names = {c["name"] for c in caps}
        assert names == {"ulam-mpc", "exact-ulam"}
        for c in caps:
            assert c["distances"] == ["ulam"]
            assert "guarantee" in c and "work_exponent" in c

    def test_chaos_and_serve_choices_come_from_registry(self):
        from repro.engines import distances
        for d in distances():
            assert build_parser().parse_args(["chaos", "--algo", d])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--algo", "hamming"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--algo", "hamming"])
        args = build_parser().parse_args(
            ["serve", "--engine", "exact-edit", "--algo", "edit"])
        assert args.engine == "exact-edit"

    def test_serve_engine_override_tags_records(self, tmp_path, capsys):
        history = str(tmp_path / "h.jsonl")
        assert main(["serve", "--n", "64", "--queries", "2",
                     "--algo", "edit", "--engine", "exact-edit",
                     "--history", history]) == 0
        from repro.registry import read_history
        records = read_history(history)
        assert len(records) == 2
        assert {r["engine"] for r in records} == {"exact-edit"}

    def test_history_engine_filter(self, tmp_path, capsys):
        history = str(tmp_path / "h.jsonl")
        assert main(["solve", "--distance", "edit", "--engine",
                     "hss", "--n", "64", "--history",
                     history]) == 0
        assert main(["solve", "--distance", "edit", "--engine",
                     "exact-edit", "--n", "64", "--history",
                     history]) == 0
        capsys.readouterr()
        assert main(["history", "--history", history,
                     "--engine", "hss"]) == 0
        out = capsys.readouterr().out
        assert "hss" in out and "exact-edit" not in out


#: Fields of a run record that come from the clock or the checkout.
_CLOCK_FIELDS = ("timestamp", "git_sha")


def _deterministic(record: dict) -> dict:
    """*record* without its clock-derived fields (timestamp, git SHA,
    wall seconds, per-kernel seconds and the slowest machine)."""
    out = {k: v for k, v in record.items() if k not in _CLOCK_FIELDS}
    summary = dict(out["summary"])
    summary.pop("wall_seconds")
    summary["profile"] = [
        {k: v for k, v in row.items()
         if k not in ("seconds", "max_seconds", "max_machine")}
        for row in summary.get("profile", [])]
    out["summary"] = summary
    return out


class TestReplay:
    """Every record-writing subcommand maps back to its own argv."""

    @pytest.mark.parametrize("argv", [
        ["ulam", "--n", "96", "--x", "0.3", "--eps", "0.75", "--seed", "3",
         "--budget", "5"],
        ["edit", "--n", "96", "--x", "0.2", "--eps", "1.5", "--seed", "2",
         "--budget", "5"],
        ["hss", "--n", "64", "--x", "0.2", "--eps", "1.5", "--seed", "1",
         "--budget", "3"],
        # beghs ignores x (its record holds None), so x stays default.
        ["beghs", "--n", "64", "--eps", "2.0", "--seed", "1",
         "--budget", "3"],
        ["chaos", "--algo", "edit", "--n", "64", "--x", "0.2",
         "--eps", "1.5", "--seed", "2", "--budget", "3",
         "--fault-plan", "crash=0.1,seed=5", "--retries", "4",
         "--on-exhausted", "drop"],
        ["solve", "--distance", "ulam", "--engine", "ulam-mpc",
         "--n", "96", "--x", "0.3", "--eps", "0.75", "--seed", "3",
         "--budget", "5"],
        pytest.param(
            ["ulam", "--n", "96", "--x", "0.3", "--eps", "0.75", "--seed",
             "3", "--budget", "5", "--fault-plan", "crash=0.2,seed=3",
             "--retries", "4", "--no-data-plane"], id="ulam-faults"),
        ["serve-bench", "--n", "64", "--x", "0.2", "--eps", "0.75",
         "--seed", "1", "--budget", "3", "--queries", "2"],
    ], ids=lambda argv: argv[0])
    def test_replay_argv_parses_to_the_same_arguments(self, argv, capsys):
        from repro.registry import record_key, replay_argv
        tail = ["--json", "--no-history"]
        assert main(argv + tail) == 0
        record = json.loads(capsys.readouterr().out.strip())
        replayed = replay_argv(record)
        parser = build_parser()
        assert vars(parser.parse_args(replayed + tail)) \
            == vars(parser.parse_args(argv + tail))
        assert main(replayed + tail) == 0
        again = json.loads(capsys.readouterr().out.strip())
        assert record_key(again) == record_key(record)

    @pytest.mark.parametrize("alias, distance, engine", [
        ("ulam", "ulam", "ulam-mpc"), ("edit", "edit", "edit-mpc"),
        ("hss", "edit", "hss"), ("beghs", "edit", "beghs")])
    def test_aliases_are_solve_with_a_pinned_engine(self, alias, distance,
                                                    engine, capsys):
        flags = ["--x", "0.25", "--eps", "1.0", "--n", "64", "--seed", "2",
                 "--budget", "3", "--json", "--no-history"]
        assert main([alias] + flags) == 0
        via_alias = _deterministic(json.loads(capsys.readouterr().out))
        assert main(["solve", "--distance", distance, "--engine", engine]
                    + flags) == 0
        via_solve = _deterministic(json.loads(capsys.readouterr().out))
        assert via_alias.pop("command") == alias
        assert via_solve.pop("command") == "solve"
        assert via_solve.pop("distance") == distance
        assert via_solve.pop("engine_spec") == engine
        # edit's record also keeps its regime and accepted guess.
        if alias == "edit":
            assert via_alias.pop("regime") in ("small", "large")
            assert via_alias.pop("accepted_guess") >= 0
        assert via_alias == via_solve

