"""E24 — engine selection quality (beyond the paper).

Runs every registered edit/ulam engine on the same planted pairs across
an ``n`` ladder and compares the ``auto`` planner's pick against the
field: per engine the answered distance, approximation ratio, and total
abstract work; for the planner the engine it chose and the work it paid.

The gate asserts the planner never pays more than ``1.1×`` the cheapest
single engine's measured work at any ladder point — the selection is
allowed to be approximate (it ranks by an analytic cost model unless
measured history exists) but not wasteful — and that every engine's
answer stays within its advertised guarantee factor.

The companion determinism row lives in ``BENCH_table1.json`` (command
``solve``): ``tools/check_regression.py`` replays it through ``repro
solve --engine auto`` like the ulam/edit rows, so the planner's chosen
path is regression-gated in CI while the field-wide comparison stays
here.
"""

from repro.engines import EngineRequest, engines_for, select_engine
from repro.analysis import format_table
from repro.strings import levenshtein, ulam_distance
from repro.workloads.permutations import planted_pair as perm_pair
from repro.workloads.strings import planted_pair as str_pair

from .conftest import run_once

NS = [128, 256, 512]
#: The planner may pay at most this factor over the cheapest engine.
AUTO_OVERHEAD = 1.1


def _pair(distance, n):
    if distance == "ulam":
        return perm_pair(n, max(4, n // 16), seed=n, style="mixed")[:2]
    return str_pair(n, max(4, n // 16), sigma=4, seed=n)[:2]


def _field(distance, n):
    """Every engine admissible at (distance, n) on the same pair."""
    s, t = _pair(distance, n)
    exact = ulam_distance(s, t) if distance == "ulam" \
        else levenshtein(s, t)
    rows = []
    for eng in engines_for(distance):
        if eng.caps.regime.admits_n(n):
            continue
        eres = eng.solve(EngineRequest(distance=distance, s=s, t=t))
        rows.append({
            "n": n, "engine": eng.caps.name,
            "guarantee": eng.caps.guarantee_class,
            "exact": exact, "answer": eres.distance,
            "ratio": round(eres.distance / max(exact, 1), 3),
            "total_work": eres.stats.total_work,
        })
    auto = select_engine(EngineRequest(distance=distance, s=s, t=t))
    return rows, auto.caps.name


def _run():
    out = {}
    for distance in ("ulam", "edit"):
        out[distance] = [_field(distance, n) for n in NS]
    return out


COLS = ("n", "engine", "guarantee", "exact", "answer", "ratio",
        "total_work")


def bench_engine_selection(benchmark, report):
    results = run_once(benchmark, _run)
    lines = ["Engine selection quality: every engine vs the auto planner",
             f"gate: auto work <= {AUTO_OVERHEAD}x cheapest engine", ""]
    for distance, ladder in results.items():
        lines.append(f"{distance} distance:")
        rows = [r for field, _ in ladder for r in field]
        lines.append(format_table(COLS, [[r[k] for k in COLS]
                                         for r in rows]))
        picks = [f"n={field[0]['n']}: auto -> {pick}"
                 for field, pick in ladder]
        lines.append("auto picks: " + "; ".join(picks))
        lines.append("")
    report("E24_engine_selection", "\n".join(lines))

    for distance, ladder in results.items():
        for field, pick in ladder:
            by_name = {r["engine"]: r for r in field}
            assert pick in by_name, (distance, pick)
            cheapest = min(r["total_work"] for r in field)
            assert by_name[pick]["total_work"] <= \
                AUTO_OVERHEAD * cheapest, (distance, pick, cheapest)
            for r in field:
                factor = {"exact": 1.0, "1+eps": 2.0,
                          "3+eps": 4.0}[r["guarantee"]]
                assert r["ratio"] <= factor, r
                assert r["answer"] >= r["exact"], r
