"""E13 — real parallel speed-up of round execution.

The MPC premise is that machines within a round run concurrently.  The
simulator's process-pool executor makes that physical on one host: this
bench times the same Ulam round-1 workload under the serial and the
process-pool executor and reports the speed-up (machine work is chunky
enough here that IPC overhead does not dominate).  The pool is warmed
with one untimed run first: worker start-up and imports are a one-time
cost that a long-lived service pays once, and at 0.2–0.3 s of serial work
they would otherwise swamp the measurement.
"""

import os
import time

from repro import UlamConfig, mpc_ulam
from repro.analysis import format_table
from repro.mpc import MPCSimulator, ProcessPoolExecutor
from repro.workloads.permutations import planted_pair

from .conftest import run_once

N = 1024
X = 0.4
EPS = 1.0
CFG = UlamConfig.practical()


def _run():
    s, t, _ = planted_pair(N, N // 8, seed=31, style="mixed")

    t0 = time.perf_counter()
    serial = mpc_ulam(s, t, x=X, eps=EPS, seed=1, config=CFG)
    serial_s = time.perf_counter() - t0

    workers = min(os.cpu_count() or 1, 4)
    with ProcessPoolExecutor(max_workers=workers, chunksize=1) as pool:
        def pooled_run():
            sim = MPCSimulator(memory_limit=serial.params.memory_limit,
                               executor=pool)
            return mpc_ulam(s, t, x=X, eps=EPS, seed=1, sim=sim, config=CFG)

        pooled_run()
        t0 = time.perf_counter()
        pooled = pooled_run()
        pooled_s = time.perf_counter() - t0

    return {
        "workers": workers,
        "serial_s": serial_s,
        "pooled_s": pooled_s,
        "speedup": serial_s / pooled_s if pooled_s > 0 else float("inf"),
        "same_answer": serial.distance == pooled.distance,
        "distance": serial.distance,
        "machines_round1": serial.stats.rounds[0].machines,
    }


def bench_executor_speedup(benchmark, report):
    row = run_once(benchmark, _run)
    lines = [
        "Round-execution speed-up: serial vs process-pool executor "
        "(pool warmed by one untimed run)",
        f"n = {N}, x = {X}, {row['machines_round1']} machines in round 1,"
        f" {row['workers']} workers",
        "",
        format_table(
            ["workers", "serial_s", "pooled_s", "speedup", "same_answer"],
            [[row["workers"], row["serial_s"], row["pooled_s"],
              row["speedup"], row["same_answer"]]]),
    ]
    report("E13_executor_speedup", "\n".join(lines))

    assert row["same_answer"]
    # With >= 2 workers and chunky machines, the pool must not be
    # drastically slower; genuine speed-up depends on host load, so the
    # hard assertion is conservative.
    if row["workers"] >= 2:
        assert row["speedup"] > 0.6
