"""E26 — overhead of the kernel-attribution profiler.

Two claims are measured on the Ulam workload (protocol of E21: the
variants are interleaved within each repetition and compared pairwise
per rep, so back-to-back runs see the same system load):

1. **Free when disabled** (the library default): the exit of a
   kernel's ``charge`` bracket is one float comparison and machine
   meters carry no kernel map, so a run with the profiler off must
   leave *zero* trace — no ``profile`` block in the summary, no global
   aggregate growth.
2. **Cheap when enabled**: full per-(kernel, round, machine)
   wall-clock attribution must stay within 5 % of the disabled run,
   so the CLI can profile every run it records into the history.

One identity is asserted as well: the profiler's per-kernel DP-cell
total must exactly equal the run's ``strings.dp_cells`` metric for the
same kernel over the machine rounds — two views of the same charges,
one execution.
"""

import time

from repro import UlamConfig, mpc_ulam
from repro.analysis import format_table
from repro.mpc import MPCSimulator
from repro.obs import profile

from .conftest import run_once

N = 1024
X = 0.4
EPS = 1.0
REPS = 5
CFG = UlamConfig.practical()


def _once(s, t, profiling_on):
    with profile.enabled(profiling_on):
        sim = MPCSimulator()
        t0 = time.perf_counter()
        res = mpc_ulam(s, t, x=X, eps=EPS, seed=1, sim=sim, config=CFG)
        sec = time.perf_counter() - t0
    return sec, res


def _run():
    from repro.workloads.permutations import planted_pair
    s, t, _ = planted_pair(N, N // 8, seed=31, style="mixed")

    off_s = on_s = float("inf")
    on_ratio = float("inf")
    for _ in range(REPS):
        off_sec, off_res = _once(s, t, False)
        off_s = min(off_s, off_sec)
        on_sec, on_res = _once(s, t, True)
        on_s = min(on_s, on_sec)
        on_ratio = min(on_ratio, on_sec / off_sec)

    rows = on_res.stats.profile_rows()
    profiled_cells = sum(r["cells"] for r in rows
                         if r["kernel"] == "ulam_sparse")
    return {
        "off_s": off_s,
        "on_s": on_s,
        "on_delta": on_ratio - 1.0,
        "same_answer": off_res.distance == on_res.distance,
        "off_has_profile": off_res.stats.profile_active,
        "rows": rows,
        "profiled_cells": profiled_cells,
        "counter_cells": on_res.stats.metrics.get(
            "strings.dp_cells{kernel=ulam_sparse}", {}).get("value", 0),
    }


def bench_profiler_overhead(benchmark, report):
    from repro.metrics import enabled as metrics_enabled
    # Run under metrics too, so the cells identity below can be checked
    # against the independent counter path.
    with metrics_enabled(True):
        row = run_once(benchmark, _run)
    lines = [
        "Kernel-profiler overhead on the Ulam workload "
        f"(n = {N}, x = {X}, best of {REPS})",
        "",
        format_table(
            ["variant", "seconds", "delta_vs_disabled"],
            [["profiler disabled (default)", row["off_s"], 0.0],
             ["profiler enabled, full attribution", row["on_s"],
              row["on_delta"]]]),
        "",
        f"profile rows = {len(row['rows'])}; "
        f"ulam_sparse cells (profiler) = {row['profiled_cells']}",
    ]
    report("E26_profiler_overhead", "\n".join(lines))

    assert row["same_answer"]
    # Disabled runs must leave zero trace in the summary.
    assert not row["off_has_profile"], row
    # Full attribution was actually collected...
    assert row["rows"], row
    assert row["profiled_cells"] > 0
    # ...and agrees with the run's independent dp_cells counter.
    assert row["counter_cells"] == row["profiled_cells"], row
    # ...while staying within 5% of the disabled run.
    assert row["on_delta"] < 0.05, row
