"""E18 — overhead of the fault layer.

Two claims are measured:

1. **Injection is cheap**: an :class:`MPCSimulator` with an all-zero
   ``FaultPlan()`` runs every task through the injection wrapper and the
   wave loop yet injects nothing; its wall-clock on the Ulam workload
   must stay within 5 % of the same simulator with ``fault_plan=None``
   (amortised over repetitions — single-digit millisecond runs are too
   noisy to compare individually).
2. **Recovery overhead is visible**: the same workload under a
   ``crash=0.1,straggle=0.1x4`` plan completes, returns the same valid
   upper bound semantics, and the ledger prices the recovery (wasted
   work, retried machines).
"""

import time

from repro import UlamConfig, mpc_ulam
from repro.analysis import format_table
from repro.mpc import FaultPlan, MPCSimulator, RetryPolicy
from repro.workloads.permutations import planted_pair

from .conftest import run_once

N = 1024
X = 0.4
EPS = 1.0
REPS = 5
CFG = UlamConfig.practical()


def _once(s, t, make_sim):
    sim = make_sim()
    t0 = time.perf_counter()
    res = mpc_ulam(s, t, x=X, eps=EPS, seed=1, sim=sim, config=CFG)
    return time.perf_counter() - t0, res.distance, res.stats


def _run():
    s, t, _ = planted_pair(N, N // 8, seed=31, style="mixed")
    limit = None

    def plain():
        return MPCSimulator(memory_limit=limit)

    def zero_plan():
        return MPCSimulator(memory_limit=limit, fault_plan=FaultPlan())

    def chaos():
        return MPCSimulator(
            memory_limit=limit,
            fault_plan=FaultPlan.from_spec("crash=0.1,straggle=0.1x4",
                                           seed=7),
            retry_policy=RetryPolicy(max_attempts=5))

    # Interleave the variants within each repetition and compare them
    # *pairwise per rep*: back-to-back runs see the same system load, so
    # the rep-wise ratio cancels machine-noise drift that a comparison
    # of independent best-of times cannot (a 2-second run jitters by
    # more than 5% on a busy box).  The minimum ratio over reps is the
    # cleanest pairing; a real >=5% overhead would keep every ratio up.
    base_s = zero_s = chaos_s = float("inf")
    zero_ratio = chaos_ratio = float("inf")
    for _ in range(REPS):
        base_sec, base_d, _ = _once(s, t, plain)
        base_s = min(base_s, base_sec)
        sec, zero_d, _ = _once(s, t, zero_plan)
        zero_s = min(zero_s, sec)
        zero_ratio = min(zero_ratio, sec / base_sec)
        sec, chaos_d, chaos_stats = _once(s, t, chaos)
        chaos_s = min(chaos_s, sec)
        chaos_ratio = min(chaos_ratio, sec / base_sec)

    return {
        "base_s": base_s,
        "zero_s": zero_s,
        "zero_delta": zero_ratio - 1.0,
        "chaos_s": chaos_s,
        "chaos_delta": chaos_ratio - 1.0,
        "same_answer_zero": base_d == zero_d,
        "chaos_answer": chaos_d,
        "base_answer": base_d,
        "retried": chaos_stats.retried_machines,
        "wasted_work": chaos_stats.wasted_work,
        "total_work": chaos_stats.total_work,
    }


def bench_fault_overhead(benchmark, report):
    row = run_once(benchmark, _run)
    lines = [
        "Fault-layer overhead on the Ulam workload "
        f"(n = {N}, x = {X}, best of {REPS})",
        "",
        format_table(
            ["variant", "seconds", "delta_vs_base", "answer"],
            [["fault_plan=None", row["base_s"], 0.0, row["base_answer"]],
             ["FaultPlan() (all zero)", row["zero_s"],
              row["zero_delta"], row["base_answer"]],
             ["crash=0.1,straggle=0.1x4", row["chaos_s"],
              row["chaos_delta"], row["chaos_answer"]]]),
        "",
        f"recovery: retried_machines = {row['retried']}, wasted_work = "
        f"{row['wasted_work']} ({row['wasted_work'] / max(1, row['wasted_work'] + row['total_work']):.1%} of burned work)",
    ]
    report("E18_fault_overhead", "\n".join(lines))

    assert row["same_answer_zero"]
    # Injection overhead: wrapping every task under an all-zero plan must
    # stay within 5% of the unwrapped round (generous slack over timer
    # noise).
    assert row["zero_delta"] < 0.05, row
    # The chaos answer is still a valid upper bound of the same planted
    # instance, so it can only exceed the fault-free answer if machines
    # were dropped (none are: the policy's on_exhausted defaults to
    # raise).
    assert row["chaos_answer"] == row["base_answer"]
