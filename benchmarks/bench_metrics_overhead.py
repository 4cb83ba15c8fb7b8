"""E21 — overhead of the metrics registry.

Two claims are measured on the Ulam workload:

1. **Free when disabled** (the library default): every metric write
   is guarded by one module-flag check, and a machine's meter carries
   no snapshot, so a run with metrics off must be indistinguishable
   from the seed code path (< 5 % paired delta, and in practice ~0 %).
2. **Cheap when enabled**: full collection — kernel counters, candidate
   histograms, per-round shuffle/broadcast counters and the per-run
   snapshot — must stay within 5 % of the disabled run, so the CLI can
   leave metrics on for every run it records into the history.

Three identities are asserted as well: the per-round
``mpc.shuffle_words{round=...}`` counters must sum to exactly the
ledger's shuffle volume, and the candidate-tuple counter must equal the
driver's reported tuple count, both serially and for the same query
run by a service on a two-worker process pool — the metrics measure the
same execution the ledger does, through an independent code path, and
machine-side counters ride the machines' results across the process
boundary.
"""

import time

from repro import UlamConfig, mpc_ulam
from repro.analysis import format_table
from repro.metrics import enabled
from repro.mpc import MPCSimulator
from repro.service import run_workload

from .conftest import run_once

N = 1024
X = 0.4
EPS = 1.0
REPS = 5
CFG = UlamConfig.practical()


def _once(s, t, metrics_on):
    with enabled(metrics_on):
        sim = MPCSimulator()
        t0 = time.perf_counter()
        res = mpc_ulam(s, t, x=X, eps=EPS, seed=1, sim=sim, config=CFG)
        sec = time.perf_counter() - t0
    return sec, res


def _run():
    from repro.workloads.permutations import planted_pair
    s, t, _ = planted_pair(N, N // 8, seed=31, style="mixed")

    # Interleave the variants within each repetition and compare them
    # *pairwise per rep* (see bench_telemetry_overhead.py): back-to-back
    # runs see the same system load, so the rep-wise minimum ratio
    # cancels machine-noise drift that independent best-of times cannot.
    off_s = on_s = float("inf")
    on_ratio = float("inf")
    for _ in range(REPS):
        off_sec, off_res = _once(s, t, False)
        off_s = min(off_s, off_sec)
        on_sec, on_res = _once(s, t, True)
        on_s = min(on_s, on_sec)
        on_ratio = min(on_ratio, on_sec / off_sec)

    metrics = on_res.stats.metrics
    shuffle_metric = sum(
        v["value"] for k, v in metrics.items()
        if k.startswith("mpc.shuffle_words{"))
    tuple_metric = metrics.get("ulam.candidate_tuples",
                               {}).get("value", 0)
    with enabled():
        (pooled,), _ = run_workload(
            [{"algo": "ulam", "s": s, "t": t, "x": X, "eps": EPS,
              "seed": 1, "config": CFG}],
            max_workers=2, check_guarantees=False)
    return {
        "off_s": off_s,
        "on_s": on_s,
        "on_delta": on_ratio - 1.0,
        "same_answer": off_res.distance == on_res.distance,
        "off_metrics": len(off_res.stats.metrics),
        "n_metrics": len(metrics),
        "shuffle_metric": shuffle_metric,
        "shuffle_ledger": on_res.stats.shuffle_words,
        "tuple_metric": tuple_metric,
        "tuple_driver": on_res.n_tuples,
        "pool_tuple_metric": pooled.metrics.get(
            "ulam.candidate_tuples", {}).get("value", 0),
        "pool_tuple_driver": pooled.result.n_tuples,
    }


def bench_metrics_overhead(benchmark, report):
    row = run_once(benchmark, _run)
    lines = [
        "Metrics-registry overhead on the Ulam workload "
        f"(n = {N}, x = {X}, best of {REPS})",
        "",
        format_table(
            ["variant", "seconds", "delta_vs_disabled"],
            [["metrics disabled (default)", row["off_s"], 0.0],
             ["metrics enabled, full collection", row["on_s"],
              row["on_delta"]]]),
        "",
        f"metrics collected = {row['n_metrics']}; "
        f"shuffle counter {row['shuffle_metric']} == ledger "
        f"{row['shuffle_ledger']}; "
        f"tuple counter {row['tuple_metric']} == driver "
        f"{row['tuple_driver']}; on a 2-worker pool: tuple counter "
        f"{row['pool_tuple_metric']} == driver "
        f"{row['pool_tuple_driver']}",
    ]
    report("E21_metrics_overhead", "\n".join(lines))

    assert row["same_answer"]
    # Disabled runs must leave zero trace in the run's metrics view.
    assert row["off_metrics"] == 0, row
    # Independent code paths, same measurement: the per-round shuffle
    # counters sum to the ledger's shuffle volume, and the candidate
    # counter matches the driver's own tuple count.
    assert row["shuffle_metric"] == row["shuffle_ledger"], row
    assert row["tuple_metric"] == row["tuple_driver"], row
    # Machine-side counters cross the process boundary with the
    # machines' results.
    assert row["pool_tuple_metric"] == row["pool_tuple_driver"], row
    # Full collection must stay within 5% of the disabled run.
    assert row["n_metrics"] > 0
    assert row["on_delta"] < 0.05, row
