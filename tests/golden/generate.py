"""Generate the golden-equivalence fixtures in this directory.

The fixtures freeze the observable behaviour of every driver *before*
the port onto :mod:`repro.mpc.plan`: for fixed seeds, each JSON file
records the returned value(s) and the per-round (machines, memory, work)
ledger.  The equivalence suite (``tests/test_golden_equivalence.py``)
re-runs the ported drivers against these files, so any port that changes
a distance, a machine count, a word of memory, or a unit of work fails
loudly.

Regenerating (only when a ledger change is *intended* and documented)::

    PYTHONPATH=src python tests/golden/generate.py
"""

from __future__ import annotations

import json
import pathlib

HERE = pathlib.Path(__file__).parent

#: The per-round fields frozen by the fixtures — exactly the three
#: quantities the paper prices (plus the word-level memory detail).
LEDGER_FIELDS = ("name", "machines", "max_input_words", "max_output_words",
                 "total_input_words", "total_output_words", "max_work",
                 "total_work")


def ledger(stats) -> list:
    return [{f: getattr(r, f) for f in LEDGER_FIELDS} for r in stats.rounds]


def case_ulam():
    from repro.ulam import mpc_ulam
    from repro.workloads.permutations import planted_pair
    s, t, _ = planted_pair(256, 16, seed=3, style="mixed")
    res = mpc_ulam(s, t, x=0.4, eps=0.5, seed=7)
    return {"distance": res.distance, "n_tuples": res.n_tuples,
            "rounds": ledger(res.stats)}


def case_edit_small():
    from repro.editdistance import mpc_edit_distance
    from repro.workloads.strings import planted_pair
    s, t, _ = planted_pair(256, 12, sigma=4, seed=5)
    res = mpc_edit_distance(s, t, x=0.25, eps=1.0, seed=9)
    return {"distance": res.distance, "regime": res.regime,
            "accepted_guess": res.accepted_guess,
            "rounds": ledger(res.stats)}


def case_edit_large():
    from repro.editdistance.config import EditConfig
    from repro.editdistance.large import large_distance_upper_bound
    from repro.mpc import MPCSimulator
    from repro.params import EditParams
    from repro.workloads.strings import block_shuffled_pair
    s, t = block_shuffled_pair(192, 8, seed=5)
    params = EditParams(n=192, x=0.29, eps=1.0, eps_prime_divisor=4)
    cfg = EditConfig(max_representatives=16, max_low_degree_samples=8,
                     max_extensions_per_pair_source=8)
    sim = MPCSimulator(memory_limit=params.memory_limit)
    bound, diag = large_distance_upper_bound(s, t, params, guess=24,
                                             sim=sim, config=cfg, seed=2)
    return {"bound": bound, "n_tuples": diag["n_tuples"],
            "rounds": ledger(sim.stats)}


def case_hss():
    from repro.baselines import hss_edit_distance
    from repro.workloads.strings import planted_pair
    s, t, _ = planted_pair(128, 8, sigma=4, seed=10)
    res = hss_edit_distance(s, t, x=0.25, eps=1.0)
    return {"distance": res.distance, "accepted_guess": res.accepted_guess,
            "rounds": ledger(res.stats)}


def case_beghs():
    from repro.baselines import beghs_edit_distance
    from repro.workloads.strings import planted_pair
    s, t, _ = planted_pair(128, 8, sigma=4, seed=12)
    res = beghs_edit_distance(s, t, eps=1.0)
    return {"distance": res.distance, "accepted_guess": res.accepted_guess,
            "rounds": ledger(res.stats)}


def case_single_machine():
    from repro.baselines import (single_machine_edit_distance,
                                 single_machine_ulam)
    from repro.workloads.permutations import planted_pair as perm_pair
    from repro.workloads.strings import planted_pair as str_pair
    s1, t1, _ = str_pair(150, 9, sigma=4, seed=14)
    s2, t2, _ = perm_pair(150, 9, seed=15, style="mixed")
    ed = single_machine_edit_distance(s1, t1)
    ul = single_machine_ulam(s2, t2)
    return {"edit_distance": ed.distance, "ulam_distance": ul.distance,
            "edit_rounds": ledger(ed.stats), "ulam_rounds": ledger(ul.stats)}


CASES = {
    "ulam": case_ulam,
    "edit_small": case_edit_small,
    "edit_large": case_edit_large,
    "hss": case_hss,
    "beghs": case_beghs,
    "single_machine": case_single_machine,
}


def main() -> None:
    for name, fn in CASES.items():
        data = fn()
        path = HERE / f"{name}.json"
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
