"""Tests for the append-only run history (repro.registry)."""

import json

import pytest

from repro.registry import (GATED_METRICS, REGRESSION_TOLERANCE,
                            append_record, compare_records, filter_since,
                            format_comparison, format_record, git_sha,
                            load_baseline, make_record, match_baseline,
                            read_history, record_key, record_profile,
                            replay_argv, utc_timestamp)


def _record(command="ulam", n=256, x=0.4, eps=0.5, seed=0, budget=8,
            **summary):
    base_summary = {"distance": 16, "total_work": 1000,
                    "parallel_work": 400,
                    "total_communication_words": 50,
                    "max_memory_words": 200}
    base_summary.update(summary)
    return make_record(command,
                       {"n": n, "x": x, "eps": eps, "seed": seed,
                        "budget": budget},
                       base_summary)


class TestMakeRecord:
    def test_schema_and_identity_fields(self):
        rec = _record()
        assert rec["schema"] == 1
        assert rec["command"] == "ulam"
        assert rec["params"]["n"] == 256
        assert rec["timestamp"].endswith("Z")

    def test_git_sha_recorded_in_checkout(self):
        # The test suite runs inside the repository, so the SHA resolves.
        sha = git_sha()
        assert sha is None or len(sha) == 40
        assert _record()["git_sha"] == sha

    def test_guarantees_and_extra_blocks(self):
        rec = make_record("edit", {"n": 1}, {"distance": 0},
                          guarantees={"passed": True, "checks": []},
                          extra={"regime": "small"})
        assert rec["guarantees"]["passed"] is True
        assert rec["regime"] == "small"

    def test_omitted_blocks_absent(self):
        rec = _record()
        assert "guarantees" not in rec and "regime" not in rec

    def test_json_serialisable(self):
        assert json.loads(json.dumps(_record(), sort_keys=True))

    def test_timestamp_shape(self):
        assert len(utc_timestamp()) == len("2026-01-01T00:00:00Z")


class TestHistoryIO:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "h.jsonl")
        first, second = _record(seed=0), _record(seed=1)
        append_record(path, first)
        append_record(path, second)
        assert read_history(path) == [first, second]

    def test_creates_parent_directories(self, tmp_path):
        path = str(tmp_path / "deep" / "nested" / "h.jsonl")
        append_record(path, _record())
        assert len(read_history(path)) == 1

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_history(str(tmp_path / "absent.jsonl")) == []

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "h.jsonl"
        append_record(str(path), _record(seed=0))
        append_record(str(path), _record(seed=1))
        # Truncate mid-way through the final record, as a kill -9 during
        # the second append would.
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - 40])
        records = read_history(str(path))
        assert len(records) == 1
        assert records[0]["params"]["seed"] == 0

    def test_midfile_damage_raises(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('{"broken\n' + json.dumps(_record()) + "\n")
        with pytest.raises(json.JSONDecodeError):
            read_history(str(path))

    def test_non_object_line_raises(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(ValueError, match="not an object"):
            read_history(str(path))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text("\n" + json.dumps(_record()) + "\n\n")
        assert len(read_history(str(path))) == 1

    def test_interleaved_writers_never_tear(self, tmp_path):
        # Concurrent service queries append run records to one history
        # file; each append must be a single O_APPEND write so records
        # from racing writers interleave whole, never mid-line.
        import threading

        path = str(tmp_path / "h.jsonl")
        n_writers, per_writer = 8, 25
        barrier = threading.Barrier(n_writers)

        def writer(wid: int) -> None:
            barrier.wait()
            for i in range(per_writer):
                # A bulky record makes torn multi-write appends likely
                # enough to catch if append_record ever regresses.
                append_record(path, _record(
                    seed=wid * 1000 + i, pad="x" * 2048))

        threads = [threading.Thread(target=writer, args=(w,))
                   for w in range(n_writers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        records = read_history(path)
        assert len(records) == n_writers * per_writer
        seeds = {r["params"]["seed"] for r in records}
        assert len(seeds) == n_writers * per_writer


class TestFilterSince:
    def _stamped(self, timestamp):
        rec = _record()
        rec["timestamp"] = timestamp
        return rec

    def test_cutoff_is_inclusive_and_chronological(self):
        records = [self._stamped("2026-07-31T23:59:59Z"),
                   self._stamped("2026-08-01T00:00:00Z"),
                   self._stamped("2026-08-02T12:00:00Z")]
        kept = filter_since(records, "2026-08-01T00:00:00Z")
        assert [r["timestamp"] for r in kept] \
            == ["2026-08-01T00:00:00Z", "2026-08-02T12:00:00Z"]

    def test_prefix_works_as_month_filter(self):
        records = [self._stamped("2026-07-15T08:00:00Z"),
                   self._stamped("2026-08-15T08:00:00Z")]
        assert len(filter_since(records, "2026-08")) == 1

    def test_unstamped_records_excluded(self):
        rec = _record()
        del rec["timestamp"]
        assert filter_since([rec], "2020") == []


class TestRecordProfile:
    def test_reads_summary_profile_rows(self):
        rows = [{"round": "r", "kernel": "lis", "calls": 1,
                 "cells": 10, "seconds": 0.5}]
        rec = _record()
        rec["summary"]["profile"] = rows
        assert record_profile(rec) == rows

    def test_tolerates_records_predating_the_profiler(self):
        assert record_profile(_record()) == []
        assert record_profile({}) == []
        assert record_profile({"summary": "corrupt"}) == []


class TestLegacyRecords:
    def test_kernel_backend_field_passes_through(self, tmp_path):
        # Older records carry the name of the kernel backend that ran
        # them; new records omit it, and readers must ignore it.
        current = _record()
        legacy = dict(current, kernel_backend="batch")
        path = str(tmp_path / "h.jsonl")
        append_record(path, legacy)
        append_record(path, current)
        read_legacy, read_current = read_history(path)
        assert read_legacy == legacy
        assert "kernel_backend" not in read_current
        assert compare_records(read_legacy, read_current) == \
            compare_records(read_current, read_current)
        assert compare_records(read_current, read_legacy) == \
            compare_records(read_current, read_current)
        assert format_record(read_legacy) == format_record(read_current)


class TestBaselines:
    def test_record_key_identity(self):
        assert record_key(_record()) == record_key(_record())
        assert record_key(_record(seed=1)) != record_key(_record(seed=0))
        assert record_key(_record(command="edit")) != record_key(_record())

    def test_record_key_includes_command_settings(self):
        solve = _record(command="solve")
        assert record_key(dict(solve, distance="edit")) \
            != record_key(dict(solve, distance="ulam"))
        assert record_key(dict(solve, engine_spec="auto")) \
            != record_key(dict(solve, engine_spec="hss"))
        chaos = _record(command="chaos")
        assert record_key(dict(chaos, algo="ulam")) \
            != record_key(dict(chaos, algo="edit"))
        bench = _record(command="serve-bench")
        assert record_key(dict(bench, queries=8)) \
            != record_key(dict(bench, queries=4))

    def test_replay_argv(self):
        record = dict(_record(command="solve", x=None, eps=None),
                      distance="ulam", engine_spec="auto")
        assert replay_argv(record) == [
            "solve", "--n", "256", "--seed", "0", "--budget", "8",
            "--distance", "ulam", "--engine", "auto"]
        with pytest.raises(ValueError, match="cannot be replayed"):
            replay_argv(_record(command="serve"))

    def test_replay_argv_passes_a_switch_only_when_set(self):
        record = dict(_record(), fault_plan="crash=0.2,seed=0", retries=3,
                      on_exhausted="raise", no_data_plane=True)
        assert replay_argv(record)[-7:] == [
            "--fault-plan", "crash=0.2,seed=0", "--retries", "3",
            "--on-exhausted", "raise", "--no-data-plane"]
        assert "--no-data-plane" not in replay_argv(_record())
        assert record_key(record) != record_key(_record())

    def test_match_baseline(self, capsys):
        baseline = [_record(seed=0), _record(seed=1)]
        fresh = [_record(seed=1, total_work=2000), _record(seed=1),
                 _record(seed=9)]
        matched, regressed = match_baseline(baseline, fresh,
                                            source="h.jsonl")
        # The newest record with the baseline's key is the one compared.
        assert len(matched) == 1 and matched[0] is fresh[1]
        assert not regressed
        out = capsys.readouterr().out
        assert "seed=0: no matching run in h.jsonl" in out
        assert "seed=1: ok" in out
        matched, regressed = match_baseline(baseline, fresh[:1])
        assert matched == [fresh[0]] and regressed
        assert "seed=1: REGRESSED" in capsys.readouterr().out

    def test_load_baseline_json_list(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps([_record()], indent=2))
        assert len(load_baseline(str(path))) == 1

    def test_load_baseline_jsonl(self, tmp_path):
        path = tmp_path / "b.jsonl"
        append_record(str(path), _record())
        assert len(load_baseline(str(path))) == 1

    def test_load_baseline_rejects_non_list(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text("[1")  # JSON that starts like a list but is not
        with pytest.raises(json.JSONDecodeError):
            load_baseline(str(path))

    def test_committed_baseline_is_loadable(self):
        # The repository ships BENCH_table1.json as the CI baseline.
        records = load_baseline("BENCH_table1.json")
        assert {r["command"] for r in records} \
            == {"ulam", "edit", "serve-bench", "solve"}
        for r in records:
            for metric in GATED_METRICS:
                assert isinstance(r["summary"][metric], int), metric


class TestCompareRecords:
    def test_identical_records_no_regression(self):
        rec = _record()
        comparison = compare_records(rec, rec)
        assert not any(row["regressed"] for row in comparison.values())
        assert comparison["total_work"]["change"] == 0.0

    def test_regression_beyond_tolerance(self):
        fresh = _record(total_work=2000)
        comparison = compare_records(_record(), fresh)
        row = comparison["total_work"]
        assert row["regressed"] and row["change"] == 1.0

    def test_tolerance_boundary_is_exclusive(self):
        base = _record(total_work=1000)
        at_tolerance = _record(
            total_work=int(1000 * (1 + REGRESSION_TOLERANCE)))
        assert not compare_records(
            base, at_tolerance)["total_work"]["regressed"]
        beyond = _record(total_work=1200)
        assert compare_records(base, beyond)["total_work"]["regressed"]

    def test_improvement_never_regresses(self):
        comparison = compare_records(_record(), _record(total_work=10))
        assert not comparison["total_work"]["regressed"]

    def test_distance_row_is_informational(self):
        comparison = compare_records(_record(distance=16),
                                     _record(distance=99))
        assert comparison["distance"]["regressed"] is False

    def test_guarantee_failure_regresses(self):
        fresh = _record()
        fresh["guarantees"] = {"passed": False, "checks": []}
        comparison = compare_records(_record(), fresh)
        assert comparison["guarantees"]["regressed"] is True

    def test_guarantee_pass_does_not_regress(self):
        fresh = _record()
        fresh["guarantees"] = {"passed": True, "checks": []}
        assert not compare_records(
            _record(), fresh)["guarantees"]["regressed"]

    def test_missing_metric_skipped(self):
        fresh = _record()
        del fresh["summary"]["parallel_work"]
        assert "parallel_work" not in compare_records(_record(), fresh)


class TestFormatting:
    def test_format_record_one_line(self):
        line = format_record(_record())
        assert "\n" not in line
        assert "ulam" in line and "n=256" in line and "d=16" in line

    def test_format_record_shows_verdict(self):
        rec = _record()
        rec["guarantees"] = {"passed": False}
        assert "guarantees=FAIL" in format_record(rec)

    def test_format_comparison_table(self):
        text = format_comparison(compare_records(_record(),
                                                 _record(total_work=2000)))
        assert "REGRESSED" in text and "+100.0%" in text
        assert "total_work" in text
