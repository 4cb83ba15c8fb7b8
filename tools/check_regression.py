#!/usr/bin/env python3
"""Perf-regression gate: replay the committed baseline and compare.

For every record in the baseline file (``BENCH_table1.json``) this tool
re-runs the same configuration — the argv
:func:`repro.registry.replay_argv` derives from the record — via
``python -m repro <argv> --json --no-history --check-guarantees`` and
gates the fresh runs with :func:`repro.registry.match_baseline`, the
same loop as ``repro compare``.  The gate fails (exit 1) when any
gated metric (total work, parallel work, communication words, memory
high-water) regresses by more than the tolerance (default 15 %), when
a fresh run violates a paper guarantee, or when a replay does not
reproduce its record's identity key.

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
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.registry import (REGRESSION_TOLERANCE, load_baseline,  # noqa: E402
                            match_baseline, replay, replay_argv)


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

    if args.record:
        fresh, source = load_baseline(args.record), args.record
    else:
        fresh = [replay(replay_argv(base), cwd=str(ROOT))
                 for base in baseline]
        source = "the replay"
    kept, failed = match_baseline(baseline, fresh,
                                  tolerance=args.tolerance, source=source)

    if not kept:
        print("no configuration was compared", file=sys.stderr)
        return 2
    if not args.record and len(kept) < len(baseline):
        # A replay that does not reproduce its record's key went wrong.
        failed = True
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
