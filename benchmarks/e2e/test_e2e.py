"""Self-test of the end-to-end benchmark at a small query scale.

Run explicitly (it drives every workload through real subprocesses for
about a minute)::

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

from .compare import LEDGER, ledger_pairs, load_runs

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(out: pathlib.Path, *extra: str) -> dict:
    """Run every workload once; return the final JSON line."""
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--seed", "7",
         "--seconds", "1", "--out", str(out), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    first = _bench(tmp / "a.jsonl")
    _bench(tmp / "b.jsonl")
    traced = _bench(tmp / "t.jsonl", "--trace")
    records = {name: [json.loads(line) for line in
                      (tmp / f"{name}.jsonl").read_text().splitlines()]
               for name in ("a", "b", "t")}
    return tmp, first, traced, records


def _assert_emits(records, final, metrics):
    assert [r["workload"] for r in records] == WORKLOADS
    for record in records:
        assert record["wrong"] == 0 and record["failed"] == 0
        assert record["metrics"] == {
            m["name"]: {"value": record["metrics"][m["name"]]["value"],
                        "unit": m["unit"]} for m in metrics}
        for m in metrics:
            key = f"{record['workload']}/{m['name']}"
            assert final["metrics"][key]["unit"] == m["unit"]
    assert final["correct"] is True and final["failed"] == 0


def test_every_metric_is_emitted_with_its_unit(runs):
    _, first, traced, records = runs
    _assert_emits(records["a"], first, SPEC["end_to_end"])
    _assert_emits(records["t"], traced, SPEC["per_layer"])


def test_same_seed_runs_see_same_inputs_and_ledgers(runs):
    tmp = runs[0]
    rows, mismatched = ledger_pairs(load_runs(tmp / "a.jsonl"),
                                    load_runs(tmp / "b.jsonl"))
    assert mismatched == []
    assert len(rows) == len(WORKLOADS) * len(LEDGER)
    assert all(r["pairs"] == r["same"] == 1 for r in rows), rows


def test_trace_covers_the_latency(runs):
    for record in runs[3]["t"]:
        coverage = record["metrics"]["trace.coverage"]["value"]
        assert coverage >= 0.9, (record["workload"], coverage)
