#!/usr/bin/env python3
"""SLO gate: replay the committed baseline workloads and check burn rates.

Where ``tools/check_regression.py`` gates the deterministic ledger
(work, words, memory), this gate checks the *service objectives* of
:mod:`repro.obs.slo`: every replayed query must stay inside its
engine's round budget, pass the paper-guarantee monitor, finish under
the latency budget, and lose no machine contribution to exhausted
retries.  The gate fails (exit 1) when any engine's error-budget burn
rate exceeds 1x over the replayed sample window.

Replayed workloads:

* every ``serve-bench`` record in the baseline (the E23 service
  workload: its fresh ``per_query`` rows each become one SLO sample);
* every one-shot ``ulam``/``edit``/``chaos``/``solve`` record (one
  sample each, from the fresh run's summary + guarantee verdict).

``--inject-drop`` additionally runs a crash-heavy chaos configuration
with ``--on-exhausted drop`` and feeds that sample through the same
monitor — machine contributions are dropped, so the ``faults`` (and
typically ``guarantees``) dimension must burn far above 1x and the gate
must fail.  CI runs the gate twice: plain (must pass) and with the
injection (must fail), proving the monitor actually discriminates.

Usage::

    python tools/check_slo.py                  # replay + gate (CI)
    python tools/check_slo.py --latency-budget 60
    python tools/check_slo.py --inject-drop    # must exit non-zero
"""

from __future__ import annotations

import argparse
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.obs.slo import (SLOMonitor, default_slos,  # noqa: E402
                           format_burn_rates, sample_from_record)
from repro.registry import load_baseline, replay, replay_argv  # noqa: E402

#: One-shot baseline commands that replay into one SLO sample each.
ONE_SHOT_COMMANDS = ("ulam", "edit", "chaos", "solve")

#: The crash-heavy drop-mode run for ``--inject-drop``.  The fault plan
#: is seeded, so the outcome is deterministic: at crash=0.5 with 2
#: attempts and seed 0 some machines survive (an all-dropped round has
#: nothing to degrade to and raises instead) but 2 exhaust their
#: retries and are dropped, which both burns the ``faults`` dimension
#: and skews the answer past the paper guarantee.
DROP_INJECTION = ["chaos", "--algo", "ulam", "--n", "128",
                  "--budget", "8", "--fault-plan", "crash=0.5",
                  "--retries", "2", "--on-exhausted", "drop",
                  "--seed", "0"]


def collect_samples(baseline: list) -> list:
    """Replay the baseline; return ``(label, QuerySample)`` pairs."""
    samples = []
    for record in baseline:
        command = record.get("command")
        if command != "serve-bench" and command not in ONE_SHOT_COMMANDS:
            continue
        fresh = replay(replay_argv(record), cwd=str(ROOT))
        if command == "serve-bench":
            for row in fresh.get("per_query", []):
                label = (f"serve-bench q{row.get('query_id')} "
                         f"{row.get('engine')}")
                samples.append((label, sample_from_record(row)))
        else:
            label = (f"{command} n={record['params'].get('n')} "
                     f"{fresh.get('engine', '')}")
            samples.append((label, sample_from_record(fresh)))
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline",
                        default=str(ROOT / "BENCH_table1.json"),
                        help="committed baseline records")
    parser.add_argument("--latency-budget", type=float, default=30.0,
                        help="per-query latency budget in seconds "
                             "(default %(default)s — generous: the "
                             "latency dimension catches order-of-"
                             "magnitude regressions, not CI noise)")
    parser.add_argument("--inject-drop", action="store_true",
                        help="also run a crash-heavy drop-mode chaos "
                             "config; the gate must then FAIL (used by "
                             "CI to prove the monitor discriminates)")
    args = parser.parse_args(argv)

    baseline = load_baseline(args.baseline)
    if not baseline:
        print(f"{args.baseline}: no baseline records", file=sys.stderr)
        return 2

    samples = collect_samples(baseline)
    if args.inject_drop:
        record = replay(DROP_INJECTION, cwd=str(ROOT))
        samples.append(("injected drop-mode chaos",
                        sample_from_record(record)))
    if not samples:
        print("no baseline workload produced samples", file=sys.stderr)
        return 2

    monitor = SLOMonitor(default_slos(latency_p99=args.latency_budget))
    for label, sample in samples:
        monitor.observe(sample)
        dims = sample.violations(monitor.slo_for(sample.engine))
        bad = [dim for dim, is_bad in dims.items() if is_bad]
        print(f"  {label:<40} "
              + ("VIOLATES " + ",".join(bad) if bad else "ok"))

    print()
    print(format_burn_rates(monitor))
    alerts = monitor.alerts()
    if alerts:
        print(f"\nSLO gate FAILED ({len(alerts)} dimension(s) burning "
              "over budget)")
        return 1
    print("\nSLO gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
