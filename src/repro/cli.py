"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``solve``   answer a distance query through the engine registry:
            ``--engine auto`` plans the cheapest admissible engine for
            the (distance, n, guarantee) point, ``--engine <name>``
            pins one.
``engines`` list every registered engine with its capabilities
            (distances, regime, guarantee class, cost model).
``ulam``    run the Theorem-4 Ulam algorithm on a generated permutation
            pair (or two files) and print the resource ledger.
``edit``    run the Theorem-9 edit-distance algorithm likewise.
``lcs``     run the LCS extension.
``lis``     run the LIS extension on a generated permutation.
``hss``     run the HSS'19 baseline for comparison.
``beghs``   run the BEGHS'18-style O(log n)-round baseline.
``table1``  print all four analytic Table 1 rows for a given (n, x).
``chaos``   run a registry engine under a seeded fault plan and print
            the per-round recovery ledger.
``trace``   render timeline/skew reports from a saved JSONL span trace
            (``--chrome`` additionally exports a Perfetto-loadable
            Chrome trace-event file).

Every algorithm subcommand resolves through :mod:`repro.engines` —
``ulam``/``edit``/``hss``/``beghs`` are thin aliases for the engine of
the same regime, and their ``--algo`` choice lists are derived from the
registry, so a newly registered engine is reachable from every CLI
surface without touching this file.

``serve``       run a batch of concurrent mixed ulam/edit queries
                through the persistent :mod:`repro.service` layer (one
                executor, one data-plane publish per corpus) and print
                per-query outcomes plus p50/p99 latency and queries/sec.
``serve-bench`` the deterministic service workload the regression gate
                replays (fixed corpora, alternating algorithms, summed
                ledger) — the E23 configuration.
``top``         poll a live exporter (``serve --export PORT``) and
                print the service status view (admission, inflight,
                per-engine query totals).

``serve`` additionally accepts ``--export PORT`` (live ``/metrics`` +
``/healthz`` + ``/readyz`` endpoints, stdlib HTTP), ``--export-linger
SEC`` (hold the drained service open for scrapers), ``--slo``
(per-engine error-budget burn rates; exit 1 on alert), and ``--trace``
/ ``--skew`` — service spans carry ``trace_id``/``query_id``, so
``repro trace FILE --query ID`` reconstructs one query's rounds out of
the interleaved stream.  See docs/ARCHITECTURE.md, "Live
observability: traces, /metrics, SLOs".

``history``  print the local run history (``.repro/history.jsonl``).
``compare``  compare the latest matching history runs against a
             committed baseline (``BENCH_table1.json``) and exit
             non-zero on regression.

The ``ulam`` and ``edit`` commands also accept ``--fault-plan`` /
``--retries`` / ``--on-exhausted`` / ``--realtime`` to exercise the
algorithm under injected machine failures (see
docs/ARCHITECTURE.md, "Failure model & recovery"), plus ``--trace
PATH`` (stream a per-machine span trace as JSONL) and ``--skew``
(print straggler analytics after the run) — see docs/ARCHITECTURE.md,
"Telemetry & span model".  ``--no-data-plane`` ships payload arrays by
copy instead of shared-memory descriptors (the E22 A/B baseline) — see
docs/ARCHITECTURE.md, "Data plane: logical words vs physical bytes".

``ulam`` / ``edit`` / ``chaos`` runs collect the metrics registry
(:mod:`repro.metrics`), append a run record to the JSONL history
(disable with ``--no-history``), print it as JSON with ``--json``, and
check the paper's guarantees with ``--check-guarantees`` (non-zero exit
on violation) — see docs/ARCHITECTURE.md, "Metrics vs spans vs
registry".

File inputs (``--s-file`` / ``--t-file``) are read as text; otherwise a
seeded workload with a planted distance is generated.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .analysis import format_kv, format_table
from .engines import (EngineRequest, NoEngineError, all_engines,
                      default_engine, distances, get_engine,
                      select_engine)
from .extensions import mpc_lcs, mpc_lis
from .params import EditParams, UlamParams, check_eps
from .strings import levenshtein, ulam_distance
from .strings.types import as_array
from .workloads.permutations import planted_pair as perm_pair
from .workloads.strings import planted_pair as str_pair

__all__ = ["main", "build_parser"]

#: Per-distance (x, eps) defaults of the *plain* subcommands (``ulam``
#: runs the paper-plot configuration x=0.4; engines' own defaults are
#: the driver defaults).  Distances without an entry fall back to the
#: canonical engine's capabilities.
_CLI_DEFAULTS = {"ulam": (0.4, 0.5), "edit": (0.25, 1.0)}

#: The E23 serve-bench alternation.  This is a frozen benchmark
#: definition (the regression gate replays its ledger), not a dispatch
#: surface — new engines/distances join ``serve --algo`` via the
#: registry-derived choice list instead.
_MIXED_CYCLE = ("ulam", "edit")


def _cli_defaults(distance: str):
    """(x, eps) defaults for *distance* subcommands/aliases."""
    if distance in _CLI_DEFAULTS:
        return _CLI_DEFAULTS[distance]
    caps = default_engine(distance).caps
    return caps.default_x, caps.default_eps


def _fault_spec(spec: str) -> str:
    """argparse type of ``--fault-plan``: the spec, once it parses."""
    from .mpc import FaultPlan
    try:
        FaultPlan.from_spec(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad fault plan: {exc}")
    return spec


#: Each algorithm's parameter class: its checks define the valid ``--x``.
_PARAMS = {"ulam": UlamParams, "edit": EditParams}


def _check_x(algo: Optional[str], x: float) -> None:
    if algo in _PARAMS:
        _PARAMS[algo](n=2, x=x)


def _float_arg(check):
    """argparse type: a float that *check* accepts (it raises ValueError)."""
    def parse(text: str) -> float:
        try:
            value = float(text)
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
        return value
    return parse


def _positive_int(text: str) -> int:
    """argparse type of ``--retries``: an integer >= 1."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MPC edit distance / Ulam distance "
                    "(Boroujeni-Ghodsi-Seddighin, SPAA'19 / TPDS'21)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, default_x: float,
               default_eps: float, algo: Optional[str] = None) -> None:
        p.add_argument("--n", type=int, default=512,
                       help="generated input length (default 512)")
        p.add_argument("--budget", type=int, default=None,
                       help="planted distance budget (default n/16)")
        p.add_argument("--x", type=_float_arg(lambda x: _check_x(algo, x)),
                       default=default_x, help="memory exponent")
        p.add_argument("--eps", type=_float_arg(check_eps),
                       default=default_eps,
                       help="approximation slack")
        p.add_argument("--seed", type=int, default=0, help="root seed")
        p.add_argument("--s-file", type=str, default=None,
                       help="read s from this text file")
        p.add_argument("--t-file", type=str, default=None,
                       help="read t from this text file")
        p.add_argument("--exact", action="store_true",
                       help="also compute the exact distance (O(n^2))")
        p.add_argument("--comm", action="store_true",
                       help="also print the per-round communication "
                            "ledger (shuffle/broadcast words)")

    def telemetry_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument("--trace", type=str, default=None, metavar="PATH",
                       help="stream a per-machine span trace to PATH "
                            "(JSON lines; render with `repro trace`)")
        p.add_argument("--skew", action="store_true",
                       help="print per-round straggler analytics and the "
                            "run timeline after the run")

    def registry_opts(p: argparse.ArgumentParser) -> None:
        from .registry import DEFAULT_HISTORY_PATH
        p.add_argument("--json", action="store_true",
                       help="print the run record as JSON instead of "
                            "the human-readable report")
        p.add_argument("--check-guarantees", action="store_true",
                       help="check the run against the paper's "
                            "guarantees (approximation ratio, memory, "
                            "machines, rounds); exit 1 on violation")
        p.add_argument("--history", type=str,
                       default=DEFAULT_HISTORY_PATH, metavar="PATH",
                       help="append the run record to this JSONL "
                            f"history (default {DEFAULT_HISTORY_PATH})")
        p.add_argument("--no-history", action="store_true",
                       help="do not append the run to the history")

    def data_plane_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument("--no-data-plane", action="store_true",
                       help="ship payload arrays by copy instead of "
                            "shared-memory slice descriptors (the E22 "
                            "A/B baseline; ledgers are identical either "
                            "way, only physical bytes change)")

    def chaos_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument("--fault-plan", type=_fault_spec, default=None,
                       metavar="SPEC",
                       help="inject failures, e.g. "
                            "'crash=0.05,straggle=0.1x4,corrupt=0.01'")
        p.add_argument("--retries", type=_positive_int, default=3,
                       help="max execution attempts per machine "
                            "(default 3)")
        p.add_argument("--on-exhausted", choices=("raise", "drop"),
                       default="raise",
                       help="what to do when retries run out")
        p.add_argument("--realtime", action="store_true",
                       help="stragglers really sleep their inflation")

    ulam_x, ulam_eps = _cli_defaults("ulam")
    edit_x, edit_eps = _cli_defaults("edit")
    p_ulam = sub.add_parser("ulam", help="Theorem 4 (1+eps, 2 rounds)")
    common(p_ulam, default_x=ulam_x, default_eps=ulam_eps, algo="ulam")
    data_plane_opts(p_ulam)
    chaos_opts(p_ulam)
    telemetry_opts(p_ulam)
    registry_opts(p_ulam)
    p_edit = sub.add_parser("edit", help="Theorem 9 (3+eps, <=4 rounds)")
    common(p_edit, default_x=edit_x, default_eps=edit_eps, algo="edit")
    data_plane_opts(p_edit)
    chaos_opts(p_edit)
    telemetry_opts(p_edit)
    registry_opts(p_edit)
    common(sub.add_parser("lcs", help="LCS extension (2 rounds)"),
           default_x=0.25, default_eps=0.25)
    common(sub.add_parser("lis", help="LIS extension (2 rounds)"),
           default_x=0.3, default_eps=0.25)
    p_hss = sub.add_parser("hss", help="HSS'19 baseline (1+eps, 2 rounds)")
    common(p_hss, default_x=0.25, default_eps=1.0)
    registry_opts(p_hss)
    p_beghs = sub.add_parser(
        "beghs", help="BEGHS'18 baseline (1+eps, O(log n) rounds)")
    common(p_beghs, default_x=0.25, default_eps=1.0)
    registry_opts(p_beghs)

    engine_names = tuple(e.caps.name for e in all_engines())
    guarantee_classes = tuple(sorted(
        {e.caps.guarantee_class for e in all_engines()}))
    so = sub.add_parser(
        "solve", help="answer a distance query through the engine "
                      "registry (--engine auto plans the cheapest "
                      "admissible engine)")
    so.add_argument("--distance", choices=distances(), default="edit",
                    help="distance to compute (default edit)")
    so.add_argument("--engine", default="auto",
                    choices=("auto",) + engine_names,
                    help="engine to run, or 'auto' to let the planner "
                         "pick (default auto)")
    so.add_argument("--guarantee", choices=guarantee_classes,
                    default=None,
                    help="minimum guarantee class auto-selection must "
                         "honour (e.g. 1+eps excludes polylog engines)")
    # x/eps default to the resolved engine's own defaults.
    common(so, default_x=None, default_eps=None)
    data_plane_opts(so)
    chaos_opts(so)
    telemetry_opts(so)
    registry_opts(so)

    en = sub.add_parser(
        "engines", help="list the registered distance engines and "
                        "their capabilities")
    en.add_argument("--distance", choices=distances(), default=None,
                    help="only engines answering this distance")
    en.add_argument("--json", action="store_true",
                    help="print capability records as JSON")

    t1 = sub.add_parser("table1", help="print the analytic Table 1 rows")
    t1.add_argument("--n", type=int, default=10 ** 6)
    t1.add_argument("--x", type=float, default=0.25)

    ch = sub.add_parser(
        "chaos", help="run an algorithm under a fault plan and print "
                      "the recovery ledger")
    ch.add_argument("--algo", choices=distances(), default="ulam",
                    help="which algorithm to exercise (default ulam)")
    # x/eps default to the chosen algorithm's own defaults (resolved
    # after parsing, once --algo is known).
    common(ch, default_x=None, default_eps=None)
    data_plane_opts(ch)
    chaos_opts(ch)
    telemetry_opts(ch)
    registry_opts(ch)

    sv = sub.add_parser(
        "serve", help="run concurrent mixed queries through the "
                      "persistent distance service")
    sv.add_argument("--queries", type=int, default=20,
                    help="number of concurrent queries (default 20)")
    sv.add_argument("--algo", choices=("mixed",) + distances(),
                    default="mixed",
                    help="workload mix (default: alternate ulam/edit)")
    sv.add_argument("--engine", default=None,
                    choices=engine_names,
                    help="pin every query to this engine (default: the "
                         "canonical MPC engine per distance); admission "
                         "control rejects engines whose capabilities "
                         "don't match the corpus")
    sv.add_argument("--n", type=int, default=256,
                    help="generated input length (default 256)")
    sv.add_argument("--budget", type=int, default=None,
                    help="planted distance budget (default n/16)")
    sv.add_argument("--x", type=float, default=None,
                    help="memory exponent (default: per-algorithm)")
    sv.add_argument("--eps", type=_float_arg(check_eps), default=None,
                    help="approximation slack (default: per-algorithm)")
    sv.add_argument("--seed", type=int, default=0,
                    help="root seed; query i runs with seed+i")
    sv.add_argument("--workers", type=int, default=0,
                    help="process-pool workers shared by all queries "
                         "(0 = serial executor, the default)")
    sv.add_argument("--max-queries", type=int, default=8,
                    help="admission cap: queries executing rounds "
                         "concurrently (default 8)")
    sv.add_argument("--max-inflight", type=int, default=4,
                    help="admission cap: MPC rounds in flight across "
                         "all queries (default 4)")
    sv.add_argument("--export", type=int, default=None, metavar="PORT",
                    help="serve /metrics + /healthz + /readyz on this "
                         "port while the batch runs (0 picks a free "
                         "port; see `repro top`)")
    sv.add_argument("--export-linger", type=float, default=0.0,
                    metavar="SEC",
                    help="keep the drained service (and exporter) live "
                         "for SEC extra seconds before shutdown, so "
                         "external scrapers can observe a ready service")
    sv.add_argument("--slo", action="store_true",
                    help="evaluate per-engine SLO burn rates over the "
                         "batch (latency, round budget, guarantees, "
                         "faults) and exit 1 when any error budget "
                         "burns above 1x")
    data_plane_opts(sv)
    telemetry_opts(sv)
    registry_opts(sv)

    sb = sub.add_parser(
        "serve-bench", help="deterministic service workload for the "
                            "regression gate (E23): fixed corpora, "
                            "alternating ulam/edit, summed ledger")
    sb.add_argument("--n", type=int, default=192,
                    help="generated input length (default 192)")
    sb.add_argument("--budget", type=int, default=None,
                    help="planted distance budget (default n/16)")
    sb.add_argument("--x", type=float, default=0.25,
                    help="memory exponent, shared by both algorithms "
                         "(default 0.25)")
    sb.add_argument("--eps", type=_float_arg(check_eps), default=0.5,
                    help="approximation slack, shared by both "
                         "algorithms (default 0.5)")
    sb.add_argument("--seed", type=int, default=0,
                    help="root seed; query i runs with seed+i")
    sb.add_argument("--queries", type=int, default=8,
                    help="number of concurrent queries (default 8)")
    registry_opts(sb)

    from .registry import DEFAULT_HISTORY_PATH
    hi = sub.add_parser(
        "history", help="print the local run history")
    hi.add_argument("--history", type=str, default=DEFAULT_HISTORY_PATH,
                    metavar="PATH", help="history file to read")
    hi.add_argument("--limit", type=int, default=20,
                    help="show at most the newest N records (default 20)")
    hi.add_argument("--since", type=str, default=None, metavar="TIMESTAMP",
                    help="only show records at or after this ISO-8601 "
                         "UTC timestamp; a prefix like 2026-08 works "
                         "(applied before --limit)")
    hi.add_argument("--engine", type=str, default=None, metavar="NAME",
                    help="only show records produced by this engine")
    hi.add_argument("--json", action="store_true",
                    help="print raw JSON records instead of the table")

    cp = sub.add_parser(
        "compare", help="compare the latest matching history runs "
                        "against a committed baseline; exit 1 on "
                        "regression")
    cp.add_argument("--baseline", type=str, default="BENCH_table1.json",
                    metavar="PATH", help="baseline record file "
                                         "(default BENCH_table1.json)")
    cp.add_argument("--history", type=str, default=DEFAULT_HISTORY_PATH,
                    metavar="PATH", help="history file to read")
    cp.add_argument("--tolerance", type=float, default=None,
                    help="relative regression tolerance on gated "
                         "metrics (default 0.15)")
    cp.add_argument("--engine", type=str, default=None, metavar="NAME",
                    help="only compare history records produced by "
                         "this engine")

    pf = sub.add_parser(
        "profile", help="render the kernel profile of a run record or "
                        "span trace; export flamegraphs")
    pf.add_argument("run", help="a history record file / span trace "
                                "file, or a history selector: 'last', "
                                "a negative index like -2, or a trace "
                                "id like svc1-q3")
    pf.add_argument("--history", type=str, default=DEFAULT_HISTORY_PATH,
                    metavar="PATH",
                    help="history file for selector lookups")
    pf.add_argument("--flame", type=str, default=None, metavar="OUT",
                    help="write a Brendan-Gregg collapsed-stack file "
                         "(feed to flamegraph.pl / inferno / speedscope)")
    pf.add_argument("--chrome", type=str, default=None, metavar="OUT",
                    help="for span-trace inputs: also export the Chrome "
                         "trace (profile args + dp_cells counter track)")
    pf.add_argument("--weight", choices=("seconds", "cells"),
                    default="seconds",
                    help="flamegraph frame weight (default seconds)")
    pf.add_argument("--top", type=int, default=0, metavar="N",
                    help="show only the N hottest kernels (default all)")
    pf.add_argument("--per-call", action="store_true",
                    help="add per-call columns (seconds/call, "
                         "cells/call) — the batched-dispatch win shows "
                         "up here, not in call counts")
    pf.add_argument("--json", action="store_true",
                    help="print the profile rows as JSON")

    pd = sub.add_parser(
        "profdiff", help="differential kernel profile of two runs: "
                         "rank kernels by wall-clock / cells delta")
    pd.add_argument("a", help="baseline run: record file, span trace, "
                              "or history selector")
    pd.add_argument("b", help="fresh run: record file, span trace, or "
                              "history selector")
    pd.add_argument("--history", type=str, default=DEFAULT_HISTORY_PATH,
                    metavar="PATH",
                    help="history file for selector lookups")
    pd.add_argument("--by", choices=("seconds", "cells", "calls"),
                    default="seconds",
                    help="ranking column (default seconds)")
    pd.add_argument("--top", type=int, default=0, metavar="N",
                    help="show only the N largest deltas (default all)")
    pd.add_argument("--per-call", action="store_true",
                    help="add A/call and B/call columns for the ranking "
                         "metric (per-call cost of each kernel on both "
                         "sides)")
    pd.add_argument("--json", action="store_true",
                    help="print the diff rows as JSON")

    tr = sub.add_parser(
        "trace", help="render timeline and skew reports from a saved "
                      "JSONL span trace")
    tr.add_argument("path", help="trace file written by --trace")
    tr.add_argument("--chrome", type=str, default=None, metavar="OUT",
                    help="also export a Chrome trace-event JSON file "
                         "(loadable in https://ui.perfetto.dev)")
    tr.add_argument("--query", type=str, default=None, metavar="ID",
                    help="restrict every report to one query of a "
                         "service trace: a numeric query id or a trace "
                         "id like svc1-q3 (also prints the query's "
                         "exact round sequence)")

    tp = sub.add_parser(
        "top", help="poll a live exporter and print the service "
                    "status (pair with `repro serve --export`)")
    tp.add_argument("--url", type=str, default="http://127.0.0.1:9464",
                    help="exporter base URL "
                         "(default http://127.0.0.1:9464)")
    tp.add_argument("--interval", type=float, default=2.0,
                    help="seconds between samples (default 2)")
    tp.add_argument("--once", action="store_true",
                    help="print a single sample and exit")
    tp.add_argument("--iterations", type=int, default=0, metavar="N",
                    help="stop after N samples (default: until "
                         "interrupted)")
    return parser


def _build_tracer(args):
    """A :class:`~repro.mpc.telemetry.Tracer` from the telemetry CLI
    flags, or ``None`` when neither ``--trace`` nor ``--skew`` was given.

    This function (with ``repro.mpc`` itself) is the only sanctioned
    sink construction site — drivers receive a ready tracer and stay
    sink-agnostic (enforced by ``tools/check_api_boundary.py``).
    """
    if getattr(args, "trace", None) is None and not getattr(args, "skew",
                                                            False):
        return None
    from .mpc import InMemorySink, JsonlSink, Tracer
    sinks = []
    if args.trace is not None:
        sinks.append(JsonlSink(args.trace))
    if args.skew:
        sinks.append(InMemorySink())
    return Tracer(sinks)


def _build_sim(args, memory_limit: int):
    """Build the simulator the chaos/telemetry CLI flags ask for.

    Returns ``None`` when neither a fault plan nor telemetry was
    requested, so the driver creates its own default simulator."""
    tracer = _build_tracer(args)
    spec = getattr(args, "fault_plan", None)
    if spec is None and tracer is None:
        return None
    from .mpc import FaultPlan, MPCSimulator, RetryPolicy
    if spec is None:
        return MPCSimulator(memory_limit=memory_limit, tracer=tracer)
    return MPCSimulator(
        memory_limit=memory_limit, tracer=tracer,
        fault_plan=FaultPlan.from_spec(spec, seed=args.seed),
        retry_policy=RetryPolicy(max_attempts=args.retries,
                                 on_exhausted=args.on_exhausted),
        realtime=args.realtime)


def _run_traced(sim, label: str, thunk):
    """Run *thunk* under the simulator's run span (if telemetry is on)."""
    if sim is None or sim.tracer is None:
        return thunk()
    with sim.tracer.span("run", label):
        return thunk()


def _finish_telemetry(sim, args) -> None:
    """Close the tracer (flushing file sinks) and print the requested
    telemetry reports."""
    if sim is None or sim.tracer is None:
        return
    _finish_tracer(sim.tracer, args)


def _finish_tracer(tracer, args) -> None:
    """Tracer-level tail of :func:`_finish_telemetry` (the service path
    hands its tracer straight to the workload, with no simulator)."""
    tracer.close()
    if getattr(args, "skew", False):
        from .analysis import format_skew, format_timeline
        spans = tracer.spans
        print()
        print("Run timeline")
        print("------------")
        print(format_timeline(spans))
        print()
        print("Straggler analytics")
        print("-------------------")
        print(format_skew(spans))
    if getattr(args, "trace", None) is not None:
        print(f"\nspan trace written to {args.trace} "
              f"(render with: repro trace {args.trace})")


def _load_or_generate(args, kind: str):
    if (args.s_file is None) != (args.t_file is None):
        raise SystemExit("provide both --s-file and --t-file, or neither")
    if args.s_file is not None:
        with open(args.s_file) as fh:
            s = as_array(fh.read().strip())
        with open(args.t_file) as fh:
            t = as_array(fh.read().strip())
        return s, t
    budget = args.budget if args.budget is not None else args.n // 16
    if kind == "perm":
        s, t, _ = perm_pair(args.n, budget, seed=args.seed, style="mixed")
    else:
        s, t, _ = str_pair(args.n, budget, sigma=4, seed=args.seed)
    return s, t


def _print_result(title: str, answer: int, exact: Optional[int],
                  stats, extra: Optional[dict] = None,
                  show_comm: bool = False) -> None:
    data = {"answer": answer}
    if exact is not None:
        data["exact"] = exact
        data["ratio"] = (f"{answer / exact:.4f}" if exact else
                         ("1.0000" if answer == 0 else "inf"))
    data.update(extra or {})
    data.update(stats.summary())
    # The metrics delta is a nested dict; the human report shows only
    # its cardinality (the full block lives in the run record / --json).
    metrics = data.pop("metrics", None)
    if metrics:
        data["metrics_collected"] = len(metrics)
    # Likewise the kernel profile: the rows carry wall-clock seconds
    # (nondeterministic), so the human report names the kernels only
    # and `repro profile last` renders the full attribution.
    profile_rows = data.pop("profile", None)
    if profile_rows:
        data["profiled_kernels"] = ",".join(
            sorted({str(row["kernel"]) for row in profile_rows}))
    print(format_kv(title, data))
    if show_comm:
        from .analysis import format_communication
        print()
        print("Communication ledger")
        print("--------------------")
        print(format_communication(stats))


def _enable_metrics() -> None:
    """Turn on metrics and kernel-profile collection for this run.

    Per-run attribution comes from :func:`repro.metrics.scoped_snapshot`
    (the query runner wraps every execution in a scope), so the
    process-cumulative registry is *not* reset here: records stay
    identical across invocations sharing one process (tests, notebooks),
    and concurrent queries each see only their own delta.  The kernel
    profiler rides along: CLI runs always want wall-clock attribution
    in their records, and its accumulators are scoped per machine task,
    so enabling it globally cannot bleed between runs either.
    """
    from .metrics import enable
    from .obs.profile import enable as enable_profiling
    enable()
    enable_profiling()


def _effective_budget(args) -> Optional[int]:
    """The planted-distance budget actually used (None for file inputs)."""
    if args.s_file is not None:
        return None
    return args.budget if args.budget is not None else args.n // 16


def _finish_run(args, command: str, engine, eres, s, t,
                exact: Optional[int],
                extra: Optional[dict] = None) -> int:
    """Shared tail of every engine-running subcommand.

    Runs the guarantee checks (``--check-guarantees``) — the checker
    comes from the *resolved engine's* capabilities, never from string
    matching on the subcommand name — assembles the run record (tagged
    with the engine), appends it to the history (unless
    ``--no-history``) and prints it (``--json``) or the guarantee
    verdict (human mode).  Returns the process exit code (1 on
    guarantee violation).
    """
    from .registry import append_record, make_record
    report = None
    if args.check_guarantees:
        from .analysis import format_guarantees
        report = engine.check_guarantees(s, t, eres)
    summary = {"distance": eres.distance}
    if exact is not None:
        summary["exact"] = exact
        if exact:
            summary["ratio"] = round(eres.distance / exact, 4)
        elif eres.distance == 0:
            summary["ratio"] = 1.0
    summary.update(eres.stats.summary())
    params = {"n": len(s), "x": eres.params.get("x"),
              "eps": eres.params.get("eps"),
              "seed": args.seed, "budget": _effective_budget(args)}
    record = make_record(
        command, params, summary,
        guarantees=report.to_dict() if report is not None else None,
        extra=extra, engine=eres.engine)
    if not args.no_history:
        append_record(args.history, record)
    if args.json:
        print(json.dumps(record, sort_keys=True))
    elif report is not None:
        print()
        print(format_guarantees(report))
    return 0 if report is None or report.passed else 1


def _service_workload(n: int, budget: int, seed: int, queries: int,
                      algo: str, x: Optional[float],
                      eps: Optional[float],
                      engine: Optional[str] = None) -> List[dict]:
    """Build the query dicts for ``serve`` / ``serve-bench``.

    One generated corpus per input *kind* backs the whole batch — the
    registry says whether a distance needs a duplicate-free permutation
    pair or a plain string pair — so the service's content addressing
    publishes each at most once no matter how many queries run.  Query
    ``i`` uses ``seed + i`` so the batch exercises distinct sampling
    randomness deterministically.
    """
    from .engines import workload_kind
    pairs: dict = {}

    def corpus_for(distance: str):
        kind = workload_kind(distance)
        if kind not in pairs:
            if kind == "perm":
                s, t, _ = perm_pair(n, budget, seed=seed, style="mixed")
            else:
                s, t, _ = str_pair(n, budget, sigma=4, seed=seed)
            pairs[kind] = (s, t)
        return pairs[kind]

    out: List[dict] = []
    for i in range(queries):
        q_algo = _MIXED_CYCLE[i % len(_MIXED_CYCLE)] if algo == "mixed" \
            else algo
        s, t = corpus_for(q_algo)
        q: dict = {"algo": q_algo, "s": s, "t": t, "seed": seed + i}
        if x is not None:
            q["x"] = x
        if eps is not None:
            q["eps"] = eps
        if engine is not None:
            q["engine"] = engine
        out.append(q)
    return out


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted non-empty list."""
    idx = round(q * (len(sorted_values) - 1))
    return sorted_values[max(0, min(len(sorted_values) - 1, int(idx)))]


def _aggregate_service_summary(outcomes, wall: float) -> dict:
    """Batch-level ledger: additive fields summed, high-waters maxed.

    Aggregation runs in submission order over per-query summaries, so
    for a fixed seed the gated fields are deterministic regardless of
    how the event loop interleaved the queries (``wall_seconds`` is the
    only clock-derived field, and the gate does not compare it).
    """
    summaries = [o.stats.summary() for o in outcomes]
    agg: dict = {
        "distance": sum(o.distance for o in outcomes),
        "n_queries": len(outcomes),
    }
    for key in ("rounds", "total_work", "parallel_work",
                "total_communication_words", "shuffle_words",
                "broadcast_words", "data_plane_bytes_shipped",
                "data_plane_bytes_avoided"):
        values = [s[key] for s in summaries if key in s]
        if values:
            agg[key] = sum(values)
    for key in ("max_machines", "max_memory_words"):
        values = [s[key] for s in summaries if key in s]
        if values:
            agg[key] = max(values)
    agg["wall_seconds"] = round(wall, 6)
    return agg


def _serve_latency_report(outcomes, wall: float) -> dict:
    latencies = sorted(o.latency_seconds for o in outcomes)
    return {
        "p50_latency_seconds": round(_percentile(latencies, 0.50), 6),
        "p99_latency_seconds": round(_percentile(latencies, 0.99), 6),
        "queries_per_second": round(len(outcomes) / wall, 3) if wall
        else float("inf"),
    }


def _http_get(url: str, timeout: float = 5.0):
    """GET *url*; return ``(status, body)`` (HTTP errors carry bodies
    too — /healthz answers 503 with a JSON diagnosis, not a failure)."""
    import urllib.error
    import urllib.request
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.status, resp.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


def _parse_prometheus(text: str) -> dict:
    """``{sample_name_with_labels: float}`` from Prometheus text."""
    out: dict = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            out[name] = float(value)
        except ValueError:
            continue
    return out


def _cmd_top(args) -> int:
    """One `repro top` loop: poll /healthz + /metrics, print a view."""
    import time as _time
    base = args.url.rstrip("/")
    iterations = 1 if args.once else args.iterations
    shown = 0
    while True:
        try:
            h_code, h_body = _http_get(base + "/healthz")
            m_code, m_body = _http_get(base + "/metrics")
            p_code, p_body = _http_get(base + "/profile")
        except OSError as exc:
            print(f"top: {base}: {exc}", file=sys.stderr)
            return 1
        health = json.loads(h_body) if h_code in (200, 503) else {}
        samples = _parse_prometheus(m_body) if m_code == 200 else {}
        prof = json.loads(p_body) if p_code == 200 else {}
        view = {
            "service": health.get("service") or "-",
            "status": health.get("status", f"http {h_code}"),
            "admission": health.get("admission", "-"),
            "inflight": health.get("inflight", 0),
            "queued": health.get("queued", 0),
        }
        for label, prefix in (
                ("corpora", "repro_service_corpora"),
                ("shm_segments", "repro_service_active_shm_segments"),
                ("queries_failed", "repro_service_queries_failed_total")):
            total = sum(v for k, v in samples.items()
                        if k.startswith(prefix))
            view[label] = int(total)
        for key, value in sorted(samples.items()):
            if key.startswith("repro_service_queries_total"):
                engine = "all"
                if 'engine="' in key:
                    engine = key.split('engine="', 1)[1].split('"')[0]
                view[f"queries[{engine}]"] = int(value)
        kernels = prof.get("kernels") or {}
        if kernels:
            from .obs.profile import hot_kernels
            view["hot_kernels"] = "  ".join(
                f"{k} {share:.0%}" for k, _, share
                in hot_kernels(kernels, by="seconds", top=3))
        view["metric_samples"] = len(samples)
        print(format_kv(f"repro top — {base}", view))
        shown += 1
        if iterations and shown >= iterations:
            return 0 if health.get("healthy") else 1
        print()
        _time.sleep(args.interval)


def _resolve_profile_run(spec: str, history_path: str):
    """Resolve a ``repro profile`` / ``profdiff`` run argument.

    Returns ``("spans", [Span, ...])`` or ``("record", record_dict)``.
    A spec naming an existing file is loaded directly — a JSONL span
    trace if it parses as one, else a record file (JSON list or JSONL
    history, newest record wins).  Otherwise the spec selects from the
    history: ``last``, a negative index like ``-2``, or a trace id like
    ``svc1-q3`` (serve records carry their query's trace id).
    """
    import os
    if os.path.exists(spec):
        from .mpc import read_jsonl
        try:
            spans = read_jsonl(spec)
        except Exception:
            spans = []
        if spans:
            return "spans", spans
        from .registry import load_baseline
        try:
            records = load_baseline(spec)
        except (ValueError, json.JSONDecodeError) as exc:
            raise SystemExit(
                f"{spec}: neither a span trace nor a record file "
                f"({exc})")
        if not records:
            raise SystemExit(f"{spec}: no records")
        return "record", records[-1]
    from .registry import read_history
    records = read_history(history_path)
    if not records:
        raise SystemExit(f"{spec}: not a file, and no run history at "
                         f"{history_path} to select from")
    if spec == "last":
        return "record", records[-1]
    if spec.lstrip("-").isdigit():
        try:
            return "record", records[int(spec)]
        except IndexError:
            raise SystemExit(
                f"history index {spec} out of range "
                f"({len(records)} record(s) in {history_path})")
    matches = [r for r in records if r.get("trace_id") == spec]
    if not matches:
        raise SystemExit(
            f"{spec!r}: not a file, not 'last'/an index, and no "
            f"history record in {history_path} has this trace id")
    return "record", matches[-1]


def _profile_totals(payload):
    from .obs.profile import kernel_rows, kernel_totals
    return kernel_totals(kernel_rows(payload))


def _format_profile_totals(totals: dict, top: int = 0,
                           per_call: bool = False) -> str:
    """Per-kernel totals table, hottest wall-clock first."""
    from .obs.profile import _per_call, hot_kernels
    ranked = hot_kernels(totals, by="seconds", top=top or len(totals))
    header = (f"  {'kernel':<14} {'calls':>10} {'cells':>14} "
              f"{'seconds':>10} {'share':>7}")
    if per_call:
        header += f" {'s/call':>10} {'cells/call':>12}"
    lines = [header]
    for kernel, seconds, share in ranked:
        t = totals[kernel]
        line = (f"  {kernel:<14} {int(t['calls']):>10} "
                f"{int(t['cells']):>14} {seconds:>10.4f} "
                f"{share:>7.1%}")
        if per_call:
            calls = t["calls"]
            line += (f" {_per_call(seconds, calls, 'seconds'):>10}"
                     f" {_per_call(t['cells'], calls, 'cells'):>12}")
        lines.append(line)
    return "\n".join(lines)


def _cmd_profile(args) -> int:
    from .obs.profile import (collapsed_stacks, kernel_rows, kernel_totals,
                              write_collapsed)
    kind, payload = _resolve_profile_run(args.run, args.history)
    rows = kernel_rows(payload)
    totals = kernel_totals(rows)
    if not totals:
        print(f"{args.run}: no kernel profile data (was the run made "
              "with profiling on? CLI runs enable it automatically; "
              "library callers use repro.obs.profile.enable())",
              file=sys.stderr)
        return 1
    if args.json:
        out = {"source": kind, "kernels": totals}
        if kind == "record":
            from .registry import record_profile
            out["rows"] = record_profile(payload)
        print(json.dumps(out, sort_keys=True))
    else:
        title = (f"Kernel profile — {args.run} "
                 f"({'span trace' if kind == 'spans' else 'run record'})")
        print(title)
        print("-" * len(title))
        print(_format_profile_totals(totals, top=args.top,
                                     per_call=args.per_call))
    if args.flame is not None:
        lines = collapsed_stacks(rows, weight=args.weight)
        write_collapsed(lines, args.flame)
        print(f"collapsed stacks ({args.weight}) written to "
              f"{args.flame} ({len(lines)} frames; render with "
              "flamegraph.pl or speedscope)")
    if args.chrome is not None:
        if kind != "spans":
            raise SystemExit("--chrome needs a span-trace input "
                             "(records have no timeline)")
        from .mpc import export_chrome_trace
        export_chrome_trace(payload, args.chrome)
        print(f"Chrome trace written to {args.chrome} "
              "(open in https://ui.perfetto.dev)")
    return 0


def _cmd_profdiff(args) -> int:
    from .obs.profile import diff_profiles, format_profile_diff
    totals_a = _profile_totals(_resolve_profile_run(args.a, args.history)[1])
    totals_b = _profile_totals(_resolve_profile_run(args.b, args.history)[1])
    for label, totals in ((args.a, totals_a), (args.b, totals_b)):
        if not totals:
            print(f"{label}: no kernel profile data", file=sys.stderr)
            return 1
    rows = diff_profiles(totals_a, totals_b, by=args.by)
    if args.json:
        print(json.dumps({"by": args.by, "a": args.a, "b": args.b,
                          "rows": rows}, sort_keys=True))
        return 0
    title = f"Kernel profile diff — A={args.a}  B={args.b}  (by {args.by})"
    print(title)
    print("-" * len(title))
    print(format_profile_diff(rows, by=args.by, top=args.top,
                              per_call=args.per_call))
    if rows and rows[0][f"delta_{args.by}"] > 0:
        top_row = rows[0]
        change = top_row.get("change")
        change_s = "" if change is None else f" ({change:+.1%})"
        print(f"\nhottest regression: {top_row['kernel']} "
              f"+{top_row[f'delta_{args.by}']:.4f} {args.by}{change_s}"
              if args.by == "seconds" else
              f"\nhottest regression: {top_row['kernel']} "
              f"+{top_row[f'delta_{args.by}']} {args.by}{change_s}")
    return 0


def _kernel_attribution(baseline: dict, fresh: dict) -> str:
    """Top-3 kernel wall-clock deltas between two run records, or ``""``
    when either side predates the kernel profiler (tolerant, so the
    gate's attribution is best-effort)."""
    from .obs.profile import diff_profiles, format_profile_diff
    a = _profile_totals(baseline)
    b = _profile_totals(fresh)
    if not a or not b:
        return ""
    rows = diff_profiles(a, b, by="seconds")
    if not rows:
        return ""
    return (f"  kernel attribution (hottest delta: {rows[0]['kernel']}):\n"
            + format_profile_diff(rows, by="seconds", top=3))


def _execute_engine(args, engine, distance: str, s, t, label: str):
    """Run *engine* on ``(s, t)`` under the CLI-configured simulator.

    The simulator is built from the chaos/telemetry flags with the
    engine's own memory cap; absent any flag it stays ``None`` and the
    engine builds its canonical simulator — exactly the pre-registry
    driver behaviour, so ledgers are unchanged by the port.
    """
    caps = engine.caps
    x = getattr(args, "x", None)
    eps = getattr(args, "eps", None)
    mem = engine.memory_limit(
        len(s), x if x is not None else caps.default_x,
        eps if eps is not None else caps.default_eps)
    sim = _build_sim(args, mem)
    request = EngineRequest(
        distance=distance, s=s, t=t, x=x, eps=eps, seed=args.seed,
        sim=sim, data_plane=not getattr(args, "no_data_plane", False))
    eres = _run_traced(sim, label, lambda: engine.solve(request))
    return eres, sim


def _exact_distance(distance: str, s, t) -> int:
    return ulam_distance(s, t) if distance == "ulam" \
        else levenshtein(s, t)


def _generate_kind(distance: str) -> str:
    """Input kind for *distance* from the canonical engine's regime."""
    from .engines import workload_kind
    return workload_kind(distance)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("chaos", "serve") and args.x is not None:
        # The algorithm, hence the valid --x range, is known only now.
        for algo in _MIXED_CYCLE if args.algo == "mixed" else (args.algo,):
            try:
                _check_x(algo, args.x)
            except ValueError as exc:
                parser.error(f"argument --x: {exc}")

    if args.command == "table1":
        from .baselines.theory import table1_rows
        rows = table1_rows(args.n, args.x)
        print(f"Table 1 at n = {args.n}, x = {args.x}:")
        print(format_table(
            ["problem", "reference", "approx", "rounds",
             "memory/machine", "machines", "total time"],
            [[r.problem, r.reference, r.approximation, r.rounds,
              r.memory_per_machine, r.machines, r.total_time]
             for r in rows]))
        return 0

    if args.command == "ulam":
        _enable_metrics()
        engine = default_engine("ulam")
        s, t = _load_or_generate(args, "perm")
        eres, sim = _execute_engine(args, engine, "ulam", s, t, "ulam")
        exact = _exact_distance("ulam", s, t) if args.exact else None
        if not args.json:
            _print_result(engine.caps.title, eres.distance, exact,
                          eres.stats, eres.extra, show_comm=args.comm)
        code = _finish_run(args, "ulam", engine, eres, s, t, exact)
        _finish_telemetry(sim, args)
        return code

    if args.command == "edit":
        _enable_metrics()
        engine = default_engine("edit")
        s, t = _load_or_generate(args, "str")
        eres, sim = _execute_engine(args, engine, "edit", s, t, "edit")
        exact = _exact_distance("edit", s, t) if args.exact else None
        if not args.json:
            _print_result(engine.caps.title, eres.distance, exact,
                          eres.stats, eres.extra, show_comm=args.comm)
        code = _finish_run(args, "edit", engine, eres, s, t, exact,
                           extra={"regime": eres.extra["regime"],
                                  "accepted_guess":
                                      eres.extra["accepted_guess"]})
        _finish_telemetry(sim, args)
        return code

    if args.command == "solve":
        _enable_metrics()
        s, t = _load_or_generate(args, _generate_kind(args.distance))
        if args.engine == "auto":
            from .registry import read_history
            request = EngineRequest(
                distance=args.distance, s=s, t=t, x=args.x,
                eps=args.eps, guarantee=args.guarantee)
            try:
                engine = select_engine(
                    request, history=read_history(args.history))
            except NoEngineError as exc:
                raise SystemExit(f"solve: {exc}")
        else:
            engine = get_engine(args.engine)
        eres, sim = _execute_engine(args, engine, args.distance, s, t,
                                    f"solve-{engine.caps.name}")
        exact = _exact_distance(args.distance, s, t) if args.exact \
            else None
        if not args.json:
            _print_result(
                f"solve[{eres.engine}] — {engine.caps.title}",
                eres.distance, exact, eres.stats, eres.extra,
                show_comm=args.comm)
        code = _finish_run(args, "solve", engine, eres, s, t, exact,
                           extra={"distance": args.distance,
                                  "engine_spec": args.engine})
        _finish_telemetry(sim, args)
        return code

    if args.command == "engines":
        engines = all_engines()
        if args.distance:
            engines = [e for e in engines
                       if e.caps.supports(args.distance)]
        if args.json:
            for e in engines:
                c = e.caps
                print(json.dumps(
                    {"name": c.name, "title": c.title,
                     "distances": list(c.distances),
                     "guarantee": c.guarantee,
                     "guarantee_class": c.guarantee_class,
                     "model": c.model, "regime": c.regime.describe(),
                     "rounds": c.cost.rounds,
                     "work_exponent": c.cost.work_exponent,
                     "default_x": c.default_x,
                     "default_eps": c.default_eps,
                     "primary": c.primary}, sort_keys=True))
            return 0
        rows = []
        for e in engines:
            c = e.caps
            cost = f"n^{c.cost.work_exponent:g}"
            if c.cost.log_power:
                cost += f"*log^{c.cost.log_power:g}"
            rows.append([c.name, ",".join(c.distances), c.guarantee,
                         c.model, c.regime.describe(), cost,
                         "*" if c.primary else ""])
        print(format_table(
            ["engine", "distances", "guarantee", "model", "regime",
             "cost", "paper"], rows))
        return 0

    if args.command == "chaos":
        from .analysis import format_recovery
        _enable_metrics()
        if args.fault_plan is None:
            args.fault_plan = "crash=0.1,straggle=0.1x4"
        # Match the plain per-distance subcommands' defaults unless the
        # user overrode them.
        default_x, default_eps = _cli_defaults(args.algo)
        if args.x is None:
            args.x = default_x
        if args.eps is None:
            args.eps = default_eps
        engine = default_engine(args.algo)
        s, t = _load_or_generate(args, _generate_kind(args.algo))
        eres, sim = _execute_engine(args, engine, args.algo, s, t,
                                    f"chaos-{args.algo}")
        exact = _exact_distance(args.algo, s, t) if args.exact else None
        if not args.json:
            _print_result(f"Chaos run: {engine.caps.title}",
                          eres.distance, exact, eres.stats,
                          {"fault_plan": sim.fault_plan.to_spec(),
                           "retries": args.retries,
                           "on_exhausted": args.on_exhausted})
            print()
            print("Recovery ledger")
            print("---------------")
            print(format_recovery(eres.stats))
        code = _finish_run(args, "chaos", engine, eres, s, t, exact,
                           extra={"algo": args.algo,
                                  "fault_plan": sim.fault_plan.to_spec(),
                                  "retries": args.retries,
                                  "on_exhausted": args.on_exhausted})
        _finish_telemetry(sim, args)
        return code

    if args.command == "serve":
        from .registry import append_record, make_record
        from .service import run_workload
        _enable_metrics()
        budget = args.budget if args.budget is not None else args.n // 16
        queries = _service_workload(args.n, budget, args.seed,
                                    args.queries, args.algo,
                                    args.x, args.eps,
                                    engine=args.engine)
        tracer = _build_tracer(args)
        observer = None
        if args.export is not None:
            from .obs import ObservabilityServer
            observer = ObservabilityServer(port=args.export).start()
            print(f"exporter listening on {observer.url} "
                  "(/metrics /healthz /readyz)", file=sys.stderr)
        try:
            outcomes, wall = run_workload(
                queries, max_workers=args.workers or None,
                max_concurrent_queries=args.max_queries,
                max_inflight_rounds=args.max_inflight,
                data_plane=not args.no_data_plane,
                check_guarantees=args.check_guarantees,
                tracer=tracer, observer=observer,
                hold_seconds=args.export_linger)
        finally:
            if observer is not None:
                observer.stop()
        summary = _aggregate_service_summary(outcomes, wall)
        summary.update(_serve_latency_report(outcomes, wall))
        guarantees = None
        if args.check_guarantees:
            verdicts = [bool(o.guarantees_passed) for o in outcomes]
            guarantees = {"passed": all(verdicts),
                          "n_queries": len(verdicts),
                          "n_failed": verdicts.count(False)}
        slo_reports = None
        if args.slo:
            from .obs import SLOMonitor
            monitor = SLOMonitor()
            for o in outcomes:
                monitor.observe_outcome(o)
            slo_reports = [r.to_dict() for r in monitor.reports()]
            slo_alerts = monitor.alerts()
        if not args.no_history:
            # One history record per query: each carries its own exact
            # ledger and verdict, exactly like a one-shot run would.
            for o in outcomes:
                record = make_record(
                    "serve",
                    {"n": args.n, "x": o.params["x"],
                     "eps": o.params["eps"], "seed": o.params["seed"],
                     "budget": budget},
                    {"distance": o.distance, **o.stats.summary()},
                    guarantees=o.guarantees,
                    extra={"algo": o.algo, "query_id": o.query_id,
                           "trace_id": o.trace_id,
                           "latency_seconds":
                               round(o.latency_seconds, 6)},
                    engine=o.engine)
                append_record(args.history, record)
        if args.json:
            extra = {"queries": args.queries, "algo": args.algo,
                     "workers": args.workers}
            if slo_reports is not None:
                extra["slo"] = slo_reports
            batch = make_record(
                "serve",
                {"n": args.n, "x": args.x, "eps": args.eps,
                 "seed": args.seed, "budget": budget},
                summary, guarantees=guarantees, extra=extra)
            print(json.dumps(batch, sort_keys=True))
        else:
            for o in outcomes:
                verdict = ""
                if o.guarantees_passed is not None:
                    verdict = "  guarantees=" + \
                        ("PASS" if o.guarantees_passed else "FAIL")
                print(f"#{o.query_id:<3} [{o.trace_id}] {o.algo:<5} "
                      f"d={o.distance:<6} "
                      f"rounds={o.stats.n_rounds:<3} "
                      f"work={o.stats.total_work:<10} "
                      f"latency={o.latency_seconds * 1000:.1f}ms"
                      + verdict)
            print()
            print(format_kv(
                f"Service batch ({len(outcomes)} queries, "
                f"algo={args.algo})", summary))
            if slo_reports is not None:
                print()
                print("SLO burn rates")
                print("--------------")
                for rep in slo_reports:
                    dims = "  ".join(
                        f"{dim}={row['burn']:.2f}x"
                        for dim, row in rep["dimensions"].items())
                    print(f"{rep['engine']:<20} "
                          f"samples={rep['n_samples']:<4} {dims}  "
                          + ("ok" if rep["ok"] else "BURNING"))
                for alert in slo_alerts:
                    print(f"ALERT: {alert}")
        if tracer is not None:
            _finish_tracer(tracer, args)
        if guarantees is not None and not guarantees["passed"]:
            return 1
        if slo_reports is not None and slo_alerts:
            return 1
        return 0

    if args.command == "serve-bench":
        from .registry import append_record, make_record
        from .service import run_workload
        _enable_metrics()
        budget = args.budget if args.budget is not None else args.n // 16
        # The gate configuration is fixed: mixed workload, shared
        # x/eps (valid for both algorithms), serial executor — the
        # gated ledger fields are then deterministic for a seed.
        queries = _service_workload(args.n, budget, args.seed,
                                    args.queries, "mixed",
                                    args.x, args.eps)
        outcomes, wall = run_workload(
            queries, check_guarantees=args.check_guarantees)
        summary = _aggregate_service_summary(outcomes, wall)
        summary.update(_serve_latency_report(outcomes, wall))
        guarantees = None
        if args.check_guarantees:
            verdicts = [bool(o.guarantees_passed) for o in outcomes]
            guarantees = {"passed": all(verdicts),
                          "n_queries": len(verdicts),
                          "n_failed": verdicts.count(False)}
        # The per-query rows carry everything the SLO gate
        # (tools/check_slo.py) needs to rebuild one sample per query:
        # the deterministic ledger facts plus the clock-derived latency
        # and the trace id joining the row back to spans and history.
        record = make_record(
            "serve-bench",
            {"n": args.n, "x": args.x, "eps": args.eps,
             "seed": args.seed, "budget": budget},
            summary, guarantees=guarantees,
            extra={"queries": args.queries,
                   "per_query": [
                       {"query_id": o.query_id, "algo": o.algo,
                        "engine": o.engine,
                        "trace_id": o.trace_id,
                        "seed": o.params["seed"],
                        "distance": o.distance,
                        "rounds": o.stats.n_rounds,
                        "total_work": o.stats.total_work,
                        "latency_seconds": round(o.latency_seconds, 6),
                        "guarantees_passed": o.guarantees_passed,
                        "dropped_machines": o.stats.summary().get(
                            "dropped_machines", 0),
                        "failed_attempts": o.stats.summary().get(
                            "failed_attempts", 0)}
                       for o in outcomes]})
        if not args.no_history:
            append_record(args.history, record)
        if args.json:
            print(json.dumps(record, sort_keys=True))
        else:
            print(format_kv(
                f"Service workload gate ({len(outcomes)} queries)",
                dict(summary)))
            if guarantees is not None:
                print()
                print("guarantees: "
                      + ("PASS" if guarantees["passed"] else
                         f"FAIL ({guarantees['n_failed']} of "
                         f"{guarantees['n_queries']})"))
        return 0 if guarantees is None or guarantees["passed"] else 1

    if args.command == "history":
        from .registry import (filter_since, format_record, read_history,
                               record_engine)
        records = read_history(args.history)
        if args.engine:
            records = [r for r in records
                       if record_engine(r) == args.engine]
        if args.since:
            records = filter_since(records, args.since)
        if not records:
            where = args.history + (f" for engine {args.engine}"
                                    if args.engine else "")
            if args.since:
                where += f" since {args.since}"
            print(f"no run history at {where}")
            return 0
        shown = records[-args.limit:] if args.limit else records
        if args.json:
            for record in shown:
                print(json.dumps(record, sort_keys=True))
        else:
            print(f"{len(records)} run(s) in {args.history} "
                  f"(showing {len(shown)}):")
            for record in shown:
                print(format_record(record))
        return 0

    if args.command == "compare":
        from .registry import (REGRESSION_TOLERANCE, compare_records,
                               format_comparison, load_baseline,
                               read_history, record_engine, record_key)
        tolerance = args.tolerance if args.tolerance is not None \
            else REGRESSION_TOLERANCE
        baseline = load_baseline(args.baseline)
        if not baseline:
            raise SystemExit(f"{args.baseline}: no baseline records")
        history = read_history(args.history)
        if args.engine:
            history = [r for r in history
                       if record_engine(r) == args.engine]
        any_regression = False
        any_match = False
        for base in baseline:
            key = record_key(base)
            matches = [r for r in history if record_key(r) == key]
            label = (f"{base.get('command')} n={base['params'].get('n')} "
                     f"x={base['params'].get('x')} "
                     f"eps={base['params'].get('eps')} "
                     f"seed={base['params'].get('seed')}")
            if not matches:
                print(f"{label}: no matching run in {args.history}")
                continue
            any_match = True
            comparison = compare_records(base, matches[-1],
                                         tolerance=tolerance)
            regressed = any(row.get("regressed")
                            for row in comparison.values())
            any_regression = any_regression or regressed
            print(f"{label}: "
                  + ("REGRESSED" if regressed else "ok"))
            print(format_comparison(comparison))
            if regressed:
                attribution = _kernel_attribution(base, matches[-1])
                if attribution:
                    print(attribution)
        if not any_match:
            raise SystemExit(
                "no history run matches any baseline record; run the "
                "baseline configs first (see BENCH_table1.json)")
        return 1 if any_regression else 0

    if args.command == "trace":
        from .analysis import format_skew, format_timeline
        from .mpc import export_chrome_trace, read_jsonl
        spans = read_jsonl(args.path)
        if not spans:
            raise SystemExit(f"{args.path}: no spans")
        if args.query is not None:
            from .analysis import filter_spans, query_index, \
                round_sequence
            want = int(args.query) if args.query.lstrip("-").isdigit() \
                else args.query
            spans = filter_spans(spans, want)
            if not spans:
                present = [f"{qid} [{tid}]" for (qid, tid)
                           in query_index(read_jsonl(args.path))
                           if qid >= 0]
                raise SystemExit(
                    f"{args.path}: no spans for query {args.query!r}"
                    + (f"; queries in trace: {', '.join(present)}"
                       if present else
                       " (trace has no query-correlated spans)"))
            trace_id = next((s.trace_id for s in spans if s.trace_id),
                            "")
            print(f"Query {args.query} [{trace_id}] — "
                  f"{len(spans)} spans")
            seq = round_sequence(spans)
            if seq:
                print("round sequence: " + " -> ".join(seq))
            print()
        print("Run timeline")
        print("------------")
        print(format_timeline(spans))
        print()
        print("Straggler analytics")
        print("-------------------")
        print(format_skew(spans))
        if args.chrome is not None:
            export_chrome_trace(spans, args.chrome)
            print(f"\nChrome trace written to {args.chrome} "
                  "(open in https://ui.perfetto.dev)")
        return 0

    if args.command == "lcs":
        s, t = _load_or_generate(args, "str")
        res = mpc_lcs(s, t, x=args.x, eps=args.eps)
        from .strings import lcs_length
        exact = lcs_length(s, t) if args.exact else None
        _print_result("MPC LCS (extension)", res.lcs, exact, res.stats,
                      {"guarantee": f"additive {args.eps}*n"},
                      show_comm=args.comm)
        return 0

    if args.command == "lis":
        from .workloads.permutations import apply_moves, random_permutation
        budget = args.budget if args.budget is not None else args.n // 16
        seq = apply_moves(random_permutation(args.n, seed=args.seed),
                          budget, seed=args.seed + 1)
        res = mpc_lis(seq, x=args.x, eps=args.eps)
        from .strings import lis_length
        exact = lis_length(seq) if args.exact else None
        _print_result("MPC LIS (extension)", res.lis, exact, res.stats,
                      {"guarantee": f"additive 2*{args.eps}*n",
                       "buckets": res.n_buckets},
                      show_comm=args.comm)
        return 0

    if args.command == "beghs":
        _enable_metrics()
        engine = get_engine("beghs")
        s, t = _load_or_generate(args, "str")
        eres, sim = _execute_engine(args, engine, "edit", s, t, "beghs")
        exact = _exact_distance("edit", s, t) if args.exact else None
        if not args.json:
            _print_result(engine.caps.title, eres.distance, exact,
                          eres.stats, eres.extra, show_comm=args.comm)
        return _finish_run(args, "beghs", engine, eres, s, t, exact)

    if args.command == "hss":
        _enable_metrics()
        engine = get_engine("hss")
        s, t = _load_or_generate(args, "str")
        eres, sim = _execute_engine(args, engine, "edit", s, t, "hss")
        exact = _exact_distance("edit", s, t) if args.exact else None
        if not args.json:
            _print_result(engine.caps.title, eres.distance, exact,
                          eres.stats, eres.extra, show_comm=args.comm)
        return _finish_run(args, "hss", engine, eres, s, t, exact)

    if args.command == "profile":
        return _cmd_profile(args)

    if args.command == "profdiff":
        return _cmd_profdiff(args)

    if args.command == "top":
        return _cmd_top(args)

    raise SystemExit(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
