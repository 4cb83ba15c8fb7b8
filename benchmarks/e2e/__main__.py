"""Command line of the end-to-end benchmark (see ``README.md`` here).

Each workload runs in its own fresh interpreter (``benchmarks.e2e.child``),
preceded by set-up-only interpreters whose median is ``setup_s``.  While
they run, a host-speed probe samples every CPU, and the timed metrics
are reported at the reference host speed (``timing.py``).  The metric
names, units and workloads come from ``BENCHMARK.json`` at the
repository root; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from .timing import HostSpeedProbe, percentiles

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Set-up-only interpreters before and after the timed run; with the
#: run's own set-up they give the nine samples whose median is
#: ``setup_s``.  Half come after the run because consecutive set-ups
#: share the host's speed of the moment.
SETUP_PROBES = 4

#: Wall-clock budget of one workload, set-up probes included.
WORKLOAD_LIMIT_S = 170.0


def load_spec() -> dict:
    """The benchmark definition, ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _child(argv: List[str], deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # One malloc arena: with one per thread, peak RSS depends on which
    # service threads happened to run the large queries (ulam-n512: 107
    # to 123 MB over four runs of one seed; 93.1-93.4 MB with one arena).
    env["MALLOC_ARENA_MAX"] = "1"
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise SystemExit("benchmark: workload time limit reached")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "benchmarks.e2e.child", *argv],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=remaining)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"benchmark: {argv} exceeded the time limit")
    if proc.returncode != 0:
        raise SystemExit(f"benchmark: {argv} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _adjusted_ms(queries: List[List[float]],
                 probe: HostSpeedProbe) -> List[float]:
    return [(done - sent) * 1e3 / probe.slowdown(sent, done)
            for sent, done in queries]


def _timed(record: dict, probe: HostSpeedProbe,
           setups: List[List[float]]) -> Dict[str, float]:
    """The timed metrics at the reference host speed (see ``timing.py``);
    their wall-clock values go to ``record["wall"]``."""
    stamps = record.pop("timestamps")
    start, end = stamps["window"]
    queries = stamps["queries"]
    qps = len(queries) / (end - start)
    slowdown = probe.slowdown(start, end)
    record["host_slowdown"] = slowdown
    record["wall"] = {
        "qps": qps,
        "setup_s": statistics.median(b - a for a, b in setups),
        **{f"latency_p{p}_ms": v for p, v in percentiles(
            [(done - sent) * 1e3 for sent, done in queries]).items()}}
    return {
        "qps": qps * slowdown,
        "setup_s": statistics.median((b - a) / probe.slowdown(a, b)
                                     for a, b in setups),
        **{f"latency_p{p}_ms": v for p, v in percentiles(
            _adjusted_ms(queries, probe)).items()}}


def _overhead(record: dict, probe: HostSpeedProbe) -> float:
    """Traced over untraced p50 latency, minus 1, both at the reference
    host speed, so drift between the two halves cancels."""
    stamps = record.pop("timestamps")
    plain, traced = (percentiles(_adjusted_ms(stamps[half], probe))[50]
                     for half in ("plain", "traced"))
    return traced / plain - 1.0


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 spec: dict) -> dict:
    """One workload's record, with ``metrics`` named and unit-tagged as
    ``BENCHMARK.json`` lists them for this mode."""
    deadline = time.monotonic() + WORKLOAD_LIMIT_S
    argv = ["--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]

    def setups() -> List[List[float]]:
        return [] if trace else [
            _child(["--workload", name, "--setup-only"], deadline)["setup"]
            for _ in range(SETUP_PROBES)]

    with HostSpeedProbe() as probe:
        before = setups()
        record = _child(argv, deadline)
        after = setups()
    values = record.pop("values")
    if trace:
        values["trace.overhead_frac"] = _overhead(record, probe)
    else:
        values.update(_timed(record, probe,
                             before + [record["setup"]] + after))
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"benchmark: {name} did not measure {missing}")
    record["metrics"] = {m["name"]: {"value": values[m["name"]],
                                     "unit": m["unit"]} for m in wanted}
    return record


def _beyond(samples: int, percentile: int) -> int:
    return int(samples * (100 - percentile) / 100)


def format_record(record: dict) -> str:
    """Human-readable block: every metric by name with its unit."""
    done = record["attempted"] - record["failed"]
    lines = [f"== {record['workload']}  seed {record['seed']}  "
             f"trace {record['trace']}  inputs sha256 "
             f"{record['fingerprint'][:16]}",
             f"   queries attempted {record['attempted']}, failed "
             f"{record['failed']}, wrong {record['wrong']}  (error_rate "
             f"{record['failed'] / record['attempted']:.4f}, wrong_rate "
             f"{record['wrong'] / max(done, 1):.4f})"]
    wall = record.get("wall", {})
    if wall:
        lines.append(f"   host slowdown {record['host_slowdown']:.3f} "
                     "(timed metrics below are at the reference speed)")
    for name, metric in record["metrics"].items():
        line = f"   {name:<28} {metric['value']:>14.4f} {metric['unit']}"
        if name in wall:
            line += f"   (wall {wall[name]:.4f})"
        if name.startswith("latency_p"):
            pct = int(name[len("latency_p"):-len("_ms")])
            beyond = _beyond(record["samples"], pct)
            line += (f"   (n={record['samples']}, {beyond} beyond"
                     + (", under-sampled" if beyond < 10 else "") + ")")
        lines.append(line)
    if record.get("waterfall"):
        lines.append(record["waterfall"])
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="Closed-loop query benchmark of repro.service.")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (default 0)")
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all)")
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="timed window per workload (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics instead")
    parser.add_argument("--out", type=pathlib.Path,
                        help="append each workload's record to this file "
                             "as one JSON line")
    args = parser.parse_args(argv)

    selected = [args.workload] if args.workload else names
    records = []
    for name in selected:
        record = run_workload(name, args.seed, args.seconds, args.trace,
                              spec)
        print(format_record(record), flush=True)
        if args.out is not None:
            with args.out.open("a") as fh:
                fh.write(json.dumps(record) + "\n")
        records.append(record)

    if len(records) == 1:
        metrics: Dict[str, dict] = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{name}": m for r in records
                   for name, m in r["metrics"].items()}
    wrong = sum(r["wrong"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": wrong == 0,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 1 if wrong or failed else 0


if __name__ == "__main__":
    sys.exit(main())
