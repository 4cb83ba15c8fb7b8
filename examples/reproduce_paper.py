#!/usr/bin/env python
"""One-command, scaled-down reproduction of the paper's headline claims.

Runs all four Table 1 algorithms on matched inputs and prints the table
in measured form, then the machine-count "who wins" ladder against
HSS'19.  The full experiment suite (E1–E27, with assertions) lives in
``benchmarks/``; this script is the two-minute demo.

Usage::

    python examples/reproduce_paper.py [n]
"""

import sys

from repro import mpc_edit_distance, mpc_ulam
from repro.analysis import fit_power_law, format_table
from repro.baselines import beghs_edit_distance, hss_edit_distance
from repro.strings import levenshtein, ulam_distance
from repro.workloads.permutations import planted_pair as perm_pair
from repro.workloads.strings import planted_pair as str_pair


def table1(n: int) -> None:
    ps, pt, _ = perm_pair(n, n // 16, seed=1, style="mixed")
    ss, st, _ = str_pair(n, n // 16, sigma=4, seed=2)
    exact_u = ulam_distance(ps, pt)
    exact_e = levenshtein(ss, st)

    runs = [
        ("ulam", "Theorem 4", "1+eps",
         mpc_ulam(ps, pt, x=0.4, eps=0.5, seed=1), exact_u),
        ("edit", "Theorem 9", "3+eps",
         mpc_edit_distance(ss, st, x=0.29, eps=1.0, seed=1), exact_e),
        ("edit", "BEGHS'18 [11]", "1+eps",
         beghs_edit_distance(ss, st, eps=1.0, base_exponent=0.7),
         exact_e),
        ("edit", "HSS'19 [20]", "1+eps",
         hss_edit_distance(ss, st, x=0.29, eps=1.0), exact_e),
    ]
    print(f"Table 1, measured at n = {n} "
          f"(exact: ulam {exact_u}, edit {exact_e}):\n")
    print(format_table(
        ["problem", "reference", "guarantee", "ratio", "rounds",
         "machines", "memory/machine", "total work"],
        [[problem, ref, guar,
          f"{res.distance / max(exact, 1):.3f}",
          res.stats.n_rounds, res.stats.max_machines,
          res.stats.max_memory_words, res.stats.total_work]
         for problem, ref, guar, res, exact in runs]))


def who_wins(ns) -> None:
    rows = []
    for n in ns:
        s, t, _ = str_pair(n, max(4, n // 16), sigma=4, seed=n)
        ours = mpc_edit_distance(s, t, x=0.29, eps=1.0, seed=1)
        hss = hss_edit_distance(s, t, x=0.29, eps=1.0)
        rows.append([n, ours.stats.max_machines, hss.stats.max_machines,
                     f"{hss.stats.max_machines / ours.stats.max_machines:.1f}x"])
    print("\nmachine count, ours (Theorem 9) vs HSS'19, same (x, eps):\n")
    print(format_table(["n", "ours", "HSS'19", "HSS/ours"], rows))
    ours_fit = fit_power_law([r[0] for r in rows], [r[1] for r in rows])
    hss_fit = fit_power_law([r[0] for r in rows], [r[2] for r in rows])
    print(f"\nfitted: ours ~ n^{ours_fit.exponent:.2f}, "
          f"HSS ~ n^{hss_fit.exponent:.2f} — the paper's improvement, "
          "measured (Table 1: n^(9/5 x) vs n^2x).")


def main(n: int = 384) -> None:
    table1(n)
    who_wins([128, 256, 512])


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 384)
