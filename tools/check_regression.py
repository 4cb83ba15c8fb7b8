#!/usr/bin/env python3
"""Perf-regression gate: replay the committed baseline and compare.

For every record in the baseline file (``BENCH_table1.json``) this tool
re-runs the same configuration — derived from the record's own
``command`` and ``params`` — via ``python -m repro <cmd> --json
--no-history --check-guarantees`` and compares the fresh run against
the baseline with :func:`repro.registry.compare_records`.  The gate
fails (exit 1) when any gated metric (total work, parallel work,
communication words, memory high-water) regresses by more than the
tolerance (default 15 %) or when the fresh run violates a paper
guarantee.

Abstract work and word counts are deterministic for a fixed seed, so
this is a *logic* gate, not a wall-clock benchmark — it runs in
seconds and is immune to CI machine noise.

When both records carry kernel profiles (``summary.profile``), every
comparison also prints the top kernels by wall-clock delta — a failure
names *which kernel* regressed, and an improvement credits the
accelerated kernel (e.g. a batched kernel landing), not just which
metric moved (see ``repro profdiff`` for the manual version of the
same attribution).

Usage::

    python tools/check_regression.py                    # replay + gate
    python tools/check_regression.py --record FILE      # gate a saved
                                                        # record instead
                                                        # of running
    python tools/check_regression.py --keep-record OUT  # save the fresh
                                                        # records (CI
                                                        # artifact)
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.obs.profile import (diff_profiles, format_profile_diff,  # noqa: E402
                               kernel_rows, kernel_totals)
from repro.registry import (REGRESSION_TOLERANCE, compare_records,  # noqa: E402
                            format_comparison, load_baseline, record_key)


def kernel_attribution(base: dict, fresh: dict, top: int = 3) -> str:
    """Name the kernels responsible for a change: top wall-clock deltas
    between the two records' kernel profiles.  Best-effort — returns
    ``""`` when either record predates the profiler.  Printed for
    regressions *and* improvements: a faster run should credit the
    accelerated kernel (e.g. a batched kernel landing) just as a slower
    one blames the responsible kernel."""
    a = kernel_totals(kernel_rows(base))
    b = kernel_totals(kernel_rows(fresh))
    if not a or not b:
        return ""
    rows = diff_profiles(a, b, by="seconds")
    if not rows:
        return ""
    direction = ("slower" if rows[0]["delta_seconds"] > 0 else "faster")
    return (f"  responsible kernels (top {min(top, len(rows))} "
            f"wall-clock deltas; hottest: {rows[0]['kernel']}, "
            f"{direction}):\n"
            + format_profile_diff(rows, by="seconds", top=top))


def run_config(record: dict) -> dict:
    """Re-run one baseline record's configuration; return the fresh record.

    The subprocess exits 1 on a guarantee violation but still prints the
    record — the violation is gated via the record's ``guarantees``
    block, so the exit code is only fatal when no record was produced.
    """
    params = record["params"]
    cmd = [sys.executable, "-m", "repro", record["command"],
           "--n", str(params["n"]), "--seed", str(params["seed"]),
           "--json", "--no-history", "--check-guarantees"]
    # ``solve`` records default x/eps to the engine's own values, so the
    # params may legitimately be None — omit the flags and let the
    # engine fill them, exactly as the recorded run did.
    if params.get("x") is not None:
        cmd += ["--x", str(params["x"])]
    if params.get("eps") is not None:
        cmd += ["--eps", str(params["eps"])]
    if params.get("budget") is not None:
        cmd += ["--budget", str(params["budget"])]
    if record["command"] == "solve":
        cmd += ["--distance", str(record.get("distance", "edit")),
                "--engine", str(record.get("engine_spec", "auto"))]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep \
        + env.get("PYTHONPATH", "")
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          cwd=str(ROOT), timeout=600)
    out = proc.stdout.strip()
    if not out:
        raise RuntimeError(
            f"{' '.join(cmd)} produced no record "
            f"(exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(out.splitlines()[-1])


def load_records(path: str) -> list:
    """Records from a JSON list or JSONL file."""
    text = pathlib.Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("["):
        return json.loads(text)
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline",
                        default=str(ROOT / "BENCH_table1.json"),
                        help="committed baseline records")
    parser.add_argument("--record", default=None, metavar="FILE",
                        help="gate pre-made record(s) from FILE instead "
                             "of re-running the configurations")
    parser.add_argument("--keep-record", default=None, metavar="OUT",
                        help="write the fresh records to OUT (JSONL; "
                             "uploaded as a CI artifact)")
    parser.add_argument("--tolerance", type=float,
                        default=REGRESSION_TOLERANCE,
                        help="relative regression tolerance "
                             "(default %(default)s)")
    args = parser.parse_args(argv)

    baseline = load_baseline(args.baseline)
    if not baseline:
        print(f"{args.baseline}: no baseline records", file=sys.stderr)
        return 2

    fresh_records = load_records(args.record) if args.record else None

    failed = False
    kept = []
    for base in baseline:
        params = base.get("params", {})
        label = (f"{base.get('command')} n={params.get('n')} "
                 f"x={params.get('x')} eps={params.get('eps')} "
                 f"seed={params.get('seed')}")
        if fresh_records is not None:
            matches = [r for r in fresh_records
                       if record_key(r) == record_key(base)]
            if not matches:
                print(f"{label}: no matching record in {args.record}")
                continue
            fresh = matches[-1]
        else:
            fresh = run_config(base)
        kept.append(fresh)
        comparison = compare_records(base, fresh,
                                     tolerance=args.tolerance)
        regressed = any(row.get("regressed")
                        for row in comparison.values())
        failed = failed or regressed
        print(f"{label}: " + ("REGRESSED" if regressed else "ok"))
        print(format_comparison(comparison))
        attribution = kernel_attribution(base, fresh)
        if attribution:
            print(attribution)

    if not kept:
        print("no configuration was compared", file=sys.stderr)
        return 2
    if args.keep_record:
        with open(args.keep_record, "w", encoding="utf-8") as fh:
            for record in kept:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        print(f"fresh records written to {args.keep_record}")

    if failed:
        print("\nregression gate FAILED "
              f"(tolerance {args.tolerance:.0%} on gated metrics, "
              "plus guarantee verdicts)")
        return 1
    print("\nregression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
