"""Compare two sets of benchmark runs under the bounds of ``BENCHMARK.json``.

Usage::

    python benchmarks/e2e/compare.py A.jsonl B.jsonl [--json OUT]
                                     [--traced T.jsonl]

``A`` and ``B`` hold run records, one JSON object per line, as
``python -m benchmarks.e2e --out FILE`` appends them; ``A`` is the base.

For every timed metric (and ``peak_rss_mb``) and workload one row shows
each side's median and spread (quartile distance over median) and B's
change, with a verdict against the metric's bound:

* ``unresolved`` -- either side's spread is wider than the bound, unless
  every B run reads better than every A run (then ``better``);
* ``worse`` / ``better`` -- B's median moved past the bound;
* ``within-bound`` -- otherwise.

The ledger metrics are exact for a given seed, so they are compared per
(workload, seed) run present on both sides instead: each row counts the
pairs where B is lower (``better``), equal or higher (``worse``) and
gives the median change.  The pairs must also agree on their input
fingerprint.  Exit status 1 when a row is ``worse``, a ledger pair is
worse, or a pair saw different inputs.  ``--json`` writes the per-side
medians and quartiles, the rows and the ledger pairs (plus the records
of ``--traced``, when given) to one file.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

SPEC = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Metrics counted by the program's ledgers: exact for a given seed.
LEDGER = ("work_units_per_query", "rounds_per_query", "max_machine_words")


def load_runs(path: pathlib.Path) -> List[dict]:
    """The untraced run records of one JSON-lines file."""
    runs = [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]
    return [r for r in runs if not r["trace"]]


def summarise(runs: List[dict]) -> Dict[str, Dict[str, dict]]:
    """workload -> metric -> median, quartiles, spread and raw values."""
    values: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for run in runs:
        for name, metric in run["metrics"].items():
            values[run["workload"], name].append(metric["value"])
    out: Dict[str, Dict[str, dict]] = defaultdict(dict)
    for (workload, name), vals in sorted(values.items()):
        median = statistics.median(vals)
        q1 = q3 = spread = None
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else 0.0
        out[workload][name] = {"median": median, "q1": q1, "q3": q3,
                               "spread": spread, "runs": vals}
    return dict(out)


def verdict(a: dict, b: dict, bound: float, higher_better: bool
            ) -> Tuple[str, float]:
    """(verdict, B's change as a share of A's median, positive = worse)."""
    sign = -1.0 if higher_better else 1.0
    change = sign * (b["median"] - a["median"]) / a["median"] \
        if a["median"] else 0.0
    if a["spread"] is None or b["spread"] is None \
            or a["spread"] > bound or b["spread"] > bound:
        best_a = max(a["runs"]) if higher_better else min(a["runs"])
        worst_b = min(b["runs"]) if higher_better else max(b["runs"])
        beats = worst_b > best_a if higher_better else worst_b < best_a
        return ("better" if beats else "unresolved"), change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "within-bound", change


def ledger_pairs(a_runs: List[dict], b_runs: List[dict]
                 ) -> Tuple[List[dict], List[str]]:
    """Per-(workload, seed) ledger comparison of the runs on both sides.

    Returns one row per workload and ledger metric -- pairs where B is
    ``better`` (lower), ``same`` or ``worse`` and the median change --
    and the pairs whose input fingerprints differ.
    """
    b_by_key = {(r["workload"], r["seed"]): r for r in b_runs}
    changes: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    mismatched = []
    for a in a_runs:
        key = a["workload"], a["seed"]
        b = b_by_key.get(key)
        if b is None:
            continue
        if a["fingerprint"] != b["fingerprint"]:
            mismatched.append(f"{key}: input fingerprints differ")
            continue
        for name in LEDGER:
            va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
            changes[a["workload"], name].append((vb - va) / va)
    rows = [{"workload": workload, "metric": name, "pairs": len(deltas),
             "better": sum(d < 0 for d in deltas),
             "same": sum(d == 0 for d in deltas),
             "worse": sum(d > 0 for d in deltas),
             "median_change": statistics.median(deltas)}
            for (workload, name), deltas in changes.items()]
    return rows, mismatched


def _pct(share: Optional[float]) -> str:
    return "   n/a" if share is None else f"{share:>6.1%}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", type=pathlib.Path, help="base runs (JSONL)")
    parser.add_argument("b", type=pathlib.Path, help="compared runs (JSONL)")
    parser.add_argument("--json", type=pathlib.Path,
                        help="write summaries and rows to this file")
    parser.add_argument("--traced", type=pathlib.Path,
                        help="traced run records to include in --json")
    args = parser.parse_args(argv)

    spec = json.loads(SPEC.read_text())
    a_runs, b_runs = load_runs(args.a), load_runs(args.b)
    a_sum, b_sum = summarise(a_runs), summarise(b_runs)
    rows = []
    print(f"{'workload':<18} {'metric':<22} {'A median':>12} {'A spr':>6} "
          f"{'B median':>12} {'B spr':>6} {'change':>7} {'bound':>6}  "
          "verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in a_sum or workload not in b_sum:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name in LEDGER:
                continue
            a, b = a_sum[workload][name], b_sum[workload][name]
            result, change = verdict(a, b, metric["bound"],
                                     metric["better"] == "higher")
            rows.append({"workload": workload, "metric": name,
                         "a_median": a["median"], "a_spread": a["spread"],
                         "b_median": b["median"], "b_spread": b["spread"],
                         "change": change, "bound": metric["bound"],
                         "verdict": result})
            print(f"{workload:<18} {name:<22} {a['median']:>12.4f} "
                  f"{_pct(a['spread'])} {b['median']:>12.4f} "
                  f"{_pct(b['spread'])} {change:>+7.1%} "
                  f"{metric['bound']:>6.0%}  {result}")
    ledger, mismatched = ledger_pairs(a_runs, b_runs)
    print(f"\nledger counts per (workload, seed) pair, B against A:\n"
          f"{'workload':<18} {'metric':<22} {'pairs':>5} {'better':>6} "
          f"{'same':>5} {'worse':>5} {'median change':>14}")
    for row in ledger:
        print(f"{row['workload']:<18} {row['metric']:<22} {row['pairs']:>5} "
              f"{row['better']:>6} {row['same']:>5} {row['worse']:>5} "
              f"{row['median_change']:>+14.2%}")
    for problem in mismatched:
        print(f"  {problem}")
    if args.json is not None:
        report = {"host": {"cpus": os.cpu_count(),
                           "machine": platform.machine(),
                           "python": platform.python_version()},
                  "a": {"file": args.a.name, "summary": a_sum},
                  "b": {"file": args.b.name, "summary": b_sum},
                  "rows": rows,
                  "ledger": {"rows": ledger, "mismatched": mismatched}}
        if args.traced is not None:
            report["traced"] = [json.loads(line) for line in
                                args.traced.read_text().splitlines()
                                if line.strip()]
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    worse = any(r["verdict"] == "worse" for r in rows) \
        or any(r["worse"] for r in ledger)
    return 1 if worse or mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
