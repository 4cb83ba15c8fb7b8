#!/usr/bin/env python
"""Chaos run: the Ulam algorithm surviving injected machine failures.

Runs the Theorem-4 driver on a planted permutation pair while a seeded
fault plan crashes 10% of machine attempts, and prints the per-round
recovery ledger: how many machines were retried, how much work was
wasted, and what the failures cost relative to a clean run.  The plan is
fully deterministic — re-running this script injects the exact same
failures.

Usage::

    python examples/chaos_run.py
"""

from repro import mpc_ulam
from repro.analysis import format_kv, format_recovery
from repro.mpc import FaultPlan, MPCSimulator, RetryPolicy
from repro.params import UlamParams
from repro.strings import ulam_distance
from repro.workloads.permutations import planted_pair


def main() -> None:
    n = 512
    s, t, _ = planted_pair(n, distance_budget=n // 16, seed=1,
                           style="mixed")
    params = UlamParams(n=n, x=0.4, eps=0.5)

    # A clean reference run, then the same computation under chaos.
    clean = mpc_ulam(s, t, x=0.4, eps=0.5, seed=0)

    plan = FaultPlan.from_spec("crash=0.1,straggle=0.1x4", seed=11)
    sim = MPCSimulator(memory_limit=params.memory_limit, fault_plan=plan,
                       retry_policy=RetryPolicy(max_attempts=3))
    chaotic = mpc_ulam(s, t, x=0.4, eps=0.5, seed=0, sim=sim)

    exact = ulam_distance(s, t)
    print(format_kv("Ulam distance under chaos (Theorem 4)", {
        "n": n,
        "fault plan": plan.to_spec(),
        "retry policy": "3 attempts per machine",
        "exact distance": exact,
        "clean MPC answer": clean.distance,
        "chaotic MPC answer": chaotic.distance,
        "answers agree": clean.distance == chaotic.distance,
        "machines retried": chaotic.stats.retried_machines,
        "machines dropped": chaotic.stats.dropped_machines,
        "useful work (DP cells)": chaotic.stats.total_work,
        "wasted work (DP cells)": chaotic.stats.wasted_work,
    }))
    print()
    print("Recovery ledger")
    print("---------------")
    print(format_recovery(chaotic.stats))


if __name__ == "__main__":
    main()
