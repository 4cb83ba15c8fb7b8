"""Command-line interface: ``python -m repro <command>``.

Engine commands
---------------
``solve``   answer a distance query through the engine registry:
            ``--engine auto`` plans the cheapest admissible engine for
            the (distance, n, guarantee) point, ``--engine <name>``
            pins one.
``ulam``    run the Theorem-4 Ulam algorithm on a generated permutation
            pair (or two files) and print the resource ledger.
``edit``    run the Theorem-9 edit-distance algorithm likewise.
``hss``     run the HSS'19 baseline for comparison.
``beghs``   run the BEGHS'18-style O(log n)-round baseline.
``chaos``   run a registry engine under a seeded fault plan and print
            the per-round recovery ledger.

``ulam``/``edit``/``hss``/``beghs`` are aliases of ``solve --distance D
--engine E``: the run record is the same apart from ``command``.  All
six run through one handler; a small table (``_ENGINE_COMMANDS``) holds
what differs: how the engine is resolved, the report title, the
record's extra fields and chaos's defaults and recovery ledger.  Every
one collects the metrics registry and the kernel profile, appends a run
record to the JSONL history (disable with ``--no-history``), prints it
as JSON with ``--json`` and checks the paper's guarantees with
``--check-guarantees`` (exit 1 on violation) — see docs/ARCHITECTURE.md,
"Metrics vs spans vs registry".  ``ulam``/``edit``/``solve``/``chaos``
also take ``--fault-plan`` / ``--retries`` / ``--on-exhausted`` /
``--realtime`` ("Failure model & recovery"), ``--trace PATH`` /
``--skew`` ("Telemetry & span model") and ``--no-data-plane`` ("Data
plane: logical words vs physical bytes").

Other commands
--------------
``engines``     list every registered engine with its capabilities.
``table1``      print all four analytic Table 1 rows for a given (n, x).
``serve``       run a batch of concurrent mixed ulam/edit queries
                through the persistent :mod:`repro.service` layer and
                print per-query outcomes plus p50/p99 latency and
                queries/sec.  ``--export PORT`` serves live
                ``/metrics`` + ``/healthz`` + ``/readyz``,
                ``--export-linger SEC`` holds the drained service open
                for scrapers, ``--slo`` prints per-engine error-budget
                burn rates (exit 1 on alert), and ``--trace`` spans
                carry ``trace_id``/``query_id`` so ``repro trace FILE
                --query ID`` rebuilds one query's rounds.
``serve-bench`` the deterministic service workload the regression gate
                replays (fixed corpora, alternating algorithms, summed
                ledger) — the E23 configuration.
``top``         poll a live exporter and print the service status view.
``history``     print the local run history (``.repro/history.jsonl``).
``compare``     gate the latest matching history runs against a
                committed baseline (``BENCH_table1.json``) — the same
                loop as ``tools/check_regression.py``
                (:func:`repro.registry.match_baseline`); exit 1 on
                regression.
``profile``     render a run's kernel profile; export flamegraphs.
``profdiff``    rank kernels by their profile delta between two runs.
``trace``       render timeline/skew reports from a saved span trace.

A bad number (a length below 2, a count below 1, a negative
``--budget``, an ``--x`` outside the algorithm's range, a non-finite or
non-positive ``--eps``), a bad fault plan or a bad input file (only one
of ``--s-file`` / ``--t-file``, a file that cannot be read, repeated
symbols in an Ulam input) is an argparse usage error: exit 2 with one
``error:`` line, before any round runs.  File inputs are read as text;
otherwise a seeded workload with a planted distance is generated.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import sys
from typing import List, NamedTuple, Optional, Tuple

from .analysis import format_kv, format_table
from .engines import (EngineRequest, NoEngineError, all_engines,
                      default_engine, distances, get_engine,
                      select_engine, workload_kind)
from .params import EditParams, UlamParams, check_eps
from .strings import is_duplicate_free, levenshtein, ulam_distance
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
    """Raise ``ValueError`` for an ``--x`` outside *algo*'s range: its
    parameter class's for ulam/edit, (0, 1) for ``"unit"`` (Table 1),
    none for ``None`` (engines that ignore x)."""
    if algo in _PARAMS:
        _PARAMS[algo](n=2, x=x)
    elif algo == "unit" and not 0 < x < 1:
        raise ValueError("x must lie in (0, 1)")


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


def _int_at_least(low: int):
    """argparse type: an integer >= *low*."""
    def parse(text: str) -> int:
        if not text.isdigit() or int(text) < low:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {low}, got {text!r}")
        return int(text)
    return parse


#: Counts and caps; generated input lengths (every algorithm needs n >= 2).
_positive_int = _int_at_least(1)
_length = _int_at_least(2)


def build_parser() -> argparse.ArgumentParser:
    from .registry import DEFAULT_HISTORY_PATH, REGRESSION_TOLERANCE
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MPC edit distance / Ulam distance "
                    "(Boroujeni-Ghodsi-Seddighin, SPAA'19 / TPDS'21)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, default_x: float,
               default_eps: float, algo: Optional[str] = None) -> None:
        p.add_argument("--n", type=_length, default=512,
                       help="generated input length (default 512)")
        p.add_argument("--budget", type=_int_at_least(0), default=None,
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

    def history_opt(p: argparse.ArgumentParser, help_text: str) -> None:
        p.add_argument("--history", type=str, default=DEFAULT_HISTORY_PATH,
                       metavar="PATH", help=help_text)

    def registry_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true",
                       help="print the run record as JSON instead of "
                            "the human-readable report")
        p.add_argument("--check-guarantees", action="store_true",
                       help="check the run against the paper's "
                            "guarantees (approximation ratio, memory, "
                            "machines, rounds); exit 1 on violation")
        history_opt(p, "append the run record to this JSONL history "
                       f"(default {DEFAULT_HISTORY_PATH})")
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
    p_hss = sub.add_parser("hss", help="HSS'19 baseline (1+eps, 2 rounds)")
    common(p_hss, default_x=0.25, default_eps=1.0, algo="edit")
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
    t1.add_argument("--n", type=_length, default=10 ** 6)
    t1.add_argument("--x", type=_float_arg(lambda x: _check_x("unit", x)),
                    default=0.25)

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
    sv.add_argument("--queries", type=_positive_int, default=20,
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
    sv.add_argument("--n", type=_length, default=256,
                    help="generated input length (default 256)")
    sv.add_argument("--budget", type=_int_at_least(0), default=None,
                    help="planted distance budget (default n/16)")
    sv.add_argument("--x", type=float, default=None,
                    help="memory exponent (default: per-algorithm)")
    sv.add_argument("--eps", type=_float_arg(check_eps), default=None,
                    help="approximation slack (default: per-algorithm)")
    sv.add_argument("--seed", type=int, default=0,
                    help="root seed; query i runs with seed+i")
    sv.add_argument("--workers", type=_int_at_least(0), default=0,
                    help="process-pool workers shared by all queries "
                         "(0 = serial executor, the default)")
    sv.add_argument("--max-queries", type=_positive_int, default=8,
                    help="admission cap: queries executing rounds "
                         "concurrently (default 8)")
    sv.add_argument("--max-inflight", type=_positive_int, default=4,
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
    sb.add_argument("--n", type=_length, default=192,
                    help="generated input length (default 192)")
    sb.add_argument("--budget", type=_int_at_least(0), default=None,
                    help="planted distance budget (default n/16)")
    sb.add_argument("--x", type=_float_arg(
        lambda x: [_check_x(algo, x) for algo in _MIXED_CYCLE]),
        default=0.25,
                    help="memory exponent, shared by both algorithms "
                         "(default 0.25)")
    sb.add_argument("--eps", type=_float_arg(check_eps), default=0.5,
                    help="approximation slack, shared by both "
                         "algorithms (default 0.5)")
    sb.add_argument("--seed", type=int, default=0,
                    help="root seed; query i runs with seed+i")
    sb.add_argument("--queries", type=_positive_int, default=8,
                    help="number of concurrent queries (default 8)")
    registry_opts(sb)

    hi = sub.add_parser(
        "history", help="print the local run history")
    history_opt(hi, "history file to read")
    hi.add_argument("--limit", type=_int_at_least(0), default=20,
                    help="show at most the newest N records (default 20; "
                         "0 shows all)")
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
    history_opt(cp, "history file to read")
    cp.add_argument("--tolerance", type=float,
                    default=REGRESSION_TOLERANCE,
                    help="relative regression tolerance on gated "
                         "metrics (default %(default)s)")
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
    history_opt(pf, "history file for selector lookups")
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
    history_opt(pd, "history file for selector lookups")
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


def _build_sim(args, memory_limit: int, tracer):
    """The simulator the fault/telemetry flags ask for, or ``None`` (the
    engine then builds its canonical one) when neither was given."""
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


def _section(title: str, body: str, lead: bool = True) -> None:
    """Print *title* underlined, then *body* (after a blank line if
    *lead*)."""
    if lead:
        print()
    print(title)
    print("-" * len(title))
    print(body)


def _print_skew(spans, lead: bool = True) -> None:
    """The ``--skew`` / ``repro trace`` reports of a span list."""
    from .analysis import format_skew, format_timeline
    _section("Run timeline", format_timeline(spans), lead)
    _section("Straggler analytics", format_skew(spans))


def _finish_tracer(tracer, args) -> None:
    """Close the tracer (flushing file sinks) and print the telemetry
    reports the flags asked for."""
    tracer.close()
    if getattr(args, "skew", False):
        _print_skew(tracer.spans)
    if getattr(args, "trace", None) is not None:
        print(f"\nspan trace written to {args.trace} "
              f"(render with: repro trace {args.trace})")


def _budget(args) -> int:
    """The planted distance of generated inputs: ``--budget``, or n/16."""
    return args.budget if args.budget is not None else args.n // 16


def _planted_pair(kind: str, n: int, budget: int, seed: int):
    """A generated pair of input *kind* (``workload_kind``) with a
    planted distance."""
    if kind == "perm":
        s, t, _ = perm_pair(n, budget, seed=seed, style="mixed")
    else:
        s, t, _ = str_pair(n, budget, sigma=4, seed=seed)
    return s, t


def _load_or_generate(args, kind: str):
    """The input pair: the ``--s-file`` / ``--t-file`` texts, else a
    generated pair of *kind*.  A bad file input (one flag without the
    other, a file that cannot be read, repeated symbols where *kind* is
    ``"perm"``) raises ``argparse.ArgumentError``; :func:`main` reports
    it as a usage error.  Under ``--engine auto`` repeated symbols are
    left to the planner, whose refusal names each engine's reason."""
    if (args.s_file is None) != (args.t_file is None):
        raise argparse.ArgumentError(
            None, "provide both --s-file and --t-file, or neither")
    if args.s_file is None:
        return _planted_pair(kind, args.n, _budget(args), args.seed)
    pair = []
    for flag, path in (("--s-file", args.s_file), ("--t-file", args.t_file)):
        try:
            arr = as_array(pathlib.Path(path).read_text().strip())
        except (OSError, UnicodeDecodeError) as exc:
            raise argparse.ArgumentError(None, f"argument {flag}: {exc}")
        if (kind == "perm" and getattr(args, "engine", None) != "auto"
                and not is_duplicate_free(arr)):
            raise argparse.ArgumentError(
                None, f"argument {flag}: {path} repeats a symbol; "
                      "Ulam distance needs duplicate-free input")
        pair.append(arr)
    return tuple(pair)


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
        _section("Communication ledger", format_communication(stats))


def _enable_metrics() -> None:
    """Turn on metrics and kernel-profile collection for this run.

    Both ride the run's own ledger: every machine's meter collects its
    metrics snapshot and kernel map, and the simulator folds them into
    the run's :class:`~repro.mpc.accounting.RunStats`, so nothing needs
    resetting here — records stay identical across invocations sharing
    one process (tests, notebooks), concurrent queries each see only
    their own, and a process pool reports what the serial executor
    does.
    """
    from .metrics import enable
    from .obs.profile import enable as enable_profiling
    enable()
    enable_profiling()


class _EngineCommand(NamedTuple):
    """What sets one engine-running subcommand apart from the others;
    everything else is :func:`_run_engine_command`."""

    #: The distance, or ``None`` to read it from ``--algo``/``--distance``.
    distance: Optional[str]
    #: A pinned engine; ``None`` runs ``--engine`` where the command has
    #: one (``auto`` plans), else the distance's default engine.
    engine: Optional[str] = None
    #: Report title; ``{title}`` is the engine's title, ``{engine}`` its
    #: name.
    title: str = "{title}"
    #: Name of the run span (fields as for the title, plus ``{command}``
    #: and ``{distance}``).
    label: str = "{command}"
    #: ``EngineResult.extra`` fields the run record keeps.
    result_fields: Tuple[str, ...] = ()
    #: A chaos run: a default fault plan and the distance's own (x, eps)
    #: defaults; the report shows the fault settings instead of the
    #: engine's extras, then the recovery ledger.
    chaos: bool = False


#: Every engine-running subcommand.  ``ulam``/``edit``/``hss``/``beghs``
#: are aliases of ``solve --distance D --engine E``.
_ENGINE_COMMANDS = {
    "ulam": _EngineCommand("ulam"),
    "edit": _EngineCommand("edit",
                           result_fields=("regime", "accepted_guess")),
    "hss": _EngineCommand("edit", engine="hss"),
    "beghs": _EngineCommand("edit", engine="beghs"),
    "solve": _EngineCommand(None, title="solve[{engine}] — {title}",
                            label="solve-{engine}"),
    "chaos": _EngineCommand(None, title="Chaos run: {title}",
                            label="chaos-{distance}", chaos=True),
}

#: The fault plan ``chaos`` injects when ``--fault-plan`` is not given.
_CHAOS_FAULT_PLAN = "crash=0.1,straggle=0.1x4"


def _record_settings(args) -> dict:
    """The run's settings a replay needs, keyed by record field and read
    from the flags :data:`repro.registry.REPLAY_FIELDS` pairs them with
    (``registry.replay_argv`` reads the same table back)."""
    from .registry import REPLAY_FIELDS
    settings = {field: getattr(args, flag[2:].replace("-", "_"))
                for field, flag in REPLAY_FIELDS[args.command]}
    if settings.get("fault_plan") is None:
        # Retry settings mean nothing without faults to retry.
        for field in ("fault_plan", "retries", "on_exhausted"):
            settings.pop(field, None)
    # A switch is recorded only when set.
    return {field: value for field, value in settings.items()
            if value is not False}


def _run_engine_command(args) -> int:
    """Run one engine subcommand (a :data:`_ENGINE_COMMANDS` entry).

    Loads or generates the input pair, resolves the engine, runs it
    under the simulator the fault/telemetry flags ask for (absent any
    flag the engine builds its canonical one) and prints the report.
    Then it checks the guarantees (``--check-guarantees``; the checker
    comes from the resolved engine's capabilities), appends the run
    record to the history (unless ``--no-history``) and prints it
    (``--json``).  Returns the exit code: 1 on a guarantee violation.
    """
    from .registry import append_record, make_record
    cmd = _ENGINE_COMMANDS[args.command]
    distance = cmd.distance or getattr(args, "algo", None) or args.distance
    _enable_metrics()
    if cmd.chaos:
        if args.fault_plan is None:
            args.fault_plan = _CHAOS_FAULT_PLAN
        default_x, default_eps = _cli_defaults(distance)
        if args.x is None:
            args.x = default_x
        if args.eps is None:
            args.eps = default_eps
    s, t = _load_or_generate(args, workload_kind(distance))

    name = cmd.engine or getattr(args, "engine", None)
    if name is None:
        engine = default_engine(distance)
    elif name != "auto":
        engine = get_engine(name)
    else:
        from .registry import read_history
        request = EngineRequest(distance=distance, s=s, t=t, x=args.x,
                                eps=args.eps, guarantee=args.guarantee)
        try:
            engine = select_engine(request,
                                   history=read_history(args.history))
        except NoEngineError as exc:
            raise SystemExit(f"solve: {exc}")
    caps = engine.caps
    names = {"command": args.command, "distance": distance,
             "engine": caps.name, "title": caps.title}

    mem = engine.memory_limit(
        len(s), args.x if args.x is not None else caps.default_x,
        args.eps if args.eps is not None else caps.default_eps)
    tracer = _build_tracer(args)
    sim = _build_sim(args, mem, tracer)
    request = EngineRequest(
        distance=distance, s=s, t=t, x=args.x, eps=args.eps,
        seed=args.seed, sim=sim,
        data_plane=not getattr(args, "no_data_plane", False))
    with (tracer.span("run", cmd.label.format(**names))
          if tracer is not None else contextlib.nullcontext()):
        eres = engine.solve(request)
    exact = None
    if args.exact:
        exact = (ulam_distance if distance == "ulam" else levenshtein)(s, t)

    extra = _record_settings(args)
    if "fault_plan" in extra:
        # The plan the run injected, seed included.
        extra["fault_plan"] = sim.fault_plan.to_spec()
    extra.update((field, eres.extra[field]) for field in cmd.result_fields)
    if not args.json:
        shown = eres.extra
        if cmd.chaos:
            shown = {k: extra[k]
                     for k in ("fault_plan", "retries", "on_exhausted")}
        _print_result(cmd.title.format(**names), eres.distance, exact,
                      eres.stats, shown, show_comm=args.comm)
        if cmd.chaos:
            from .analysis import format_recovery
            _section("Recovery ledger", format_recovery(eres.stats))

    report = None
    if args.check_guarantees:
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
              "seed": args.seed,
              "budget": None if args.s_file is not None else _budget(args)}
    record = make_record(
        args.command, params, summary,
        guarantees=report.to_dict() if report is not None else None,
        extra=extra, engine=eres.engine)
    if not args.no_history:
        append_record(args.history, record)
    if args.json:
        print(json.dumps(record, sort_keys=True))
    elif report is not None:
        from .analysis import format_guarantees
        print()
        print(format_guarantees(report))
    if tracer is not None:
        _finish_tracer(tracer, args)
    return 0 if report is None or report.passed else 1


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted non-empty list."""
    idx = round(q * (len(sorted_values) - 1))
    return sorted_values[max(0, min(len(sorted_values) - 1, int(idx)))]


def _serve_batch(args, algo: str, engine: Optional[str] = None,
                 **service_kwargs):
    """Run the ``serve``/``serve-bench`` batch through the service.

    One generated corpus per input kind (``workload_kind``) backs the
    whole batch, so the service's content addressing publishes each at
    most once however many queries run; query ``i`` uses ``seed + i``,
    so the batch exercises distinct sampling randomness
    deterministically.

    Returns the outcomes, the batch ledger and the batch guarantee
    verdict (``None`` without ``--check-guarantees``).  The ledger sums
    the additive fields and maxes the high-waters, in submission order
    over per-query summaries, so for a fixed seed the gated fields are
    deterministic however the event loop interleaved the queries;
    wall-clock, latency and throughput come last and the gate does not
    compare them.
    """
    from .service import run_workload
    _enable_metrics()
    pairs: dict = {}
    queries: List[dict] = []
    for i in range(args.queries):
        q_algo = _MIXED_CYCLE[i % len(_MIXED_CYCLE)] if algo == "mixed" \
            else algo
        kind = workload_kind(q_algo)
        if kind not in pairs:
            pairs[kind] = _planted_pair(kind, args.n, _budget(args),
                                        args.seed)
        q: dict = {"algo": q_algo, "s": pairs[kind][0],
                   "t": pairs[kind][1], "seed": args.seed + i}
        q.update((k, v) for k, v in (("x", args.x), ("eps", args.eps),
                                     ("engine", engine)) if v is not None)
        queries.append(q)
    outcomes, wall = run_workload(
        queries, check_guarantees=args.check_guarantees, **service_kwargs)
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
    latencies = sorted(o.latency_seconds for o in outcomes)
    agg["p50_latency_seconds"] = round(_percentile(latencies, 0.50), 6)
    agg["p99_latency_seconds"] = round(_percentile(latencies, 0.99), 6)
    agg["queries_per_second"] = round(len(outcomes) / wall, 3) if wall \
        else float("inf")
    guarantees = None
    if args.check_guarantees:
        verdicts = [bool(o.guarantees_passed) for o in outcomes]
        guarantees = {"passed": all(verdicts),
                      "n_queries": len(verdicts),
                      "n_failed": verdicts.count(False)}
    return outcomes, agg, guarantees


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
        _section(f"Kernel profile — {args.run} "
                 f"({'span trace' if kind == 'spans' else 'run record'})",
                 _format_profile_totals(totals, top=args.top,
                                        per_call=args.per_call),
                 lead=False)
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
    _section(f"Kernel profile diff — A={args.a}  B={args.b}  (by {args.by})",
             format_profile_diff(rows, by=args.by, top=args.top,
                                 per_call=args.per_call), lead=False)
    if rows and rows[0][f"delta_{args.by}"] > 0:
        top_row = rows[0]
        change = top_row.get("change")
        change_s = "" if change is None else f" ({change:+.1%})"
        delta = top_row[f"delta_{args.by}"]
        delta_s = f"{delta:.4f}" if args.by == "seconds" else f"{delta}"
        print(f"\nhottest regression: {top_row['kernel']} "
              f"+{delta_s} {args.by}{change_s}")
    return 0


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

    if args.command in _ENGINE_COMMANDS:
        try:
            return _run_engine_command(args)
        except argparse.ArgumentError as exc:
            # A bad file input, found once the distance is known.
            parser.exit(2, f"{parser.prog} {args.command}: error: {exc}\n")

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

    if args.command == "serve":
        from .registry import append_record, make_record
        budget = _budget(args)
        tracer = _build_tracer(args)
        observer = None
        if args.export is not None:
            from .obs import ObservabilityServer
            observer = ObservabilityServer(port=args.export).start()
            print(f"exporter listening on {observer.url} "
                  "(/metrics /healthz /readyz)", file=sys.stderr)
        try:
            outcomes, summary, guarantees = _serve_batch(
                args, args.algo, engine=args.engine,
                max_workers=args.workers or None,
                max_concurrent_queries=args.max_queries,
                max_inflight_rounds=args.max_inflight,
                data_plane=not args.no_data_plane,
                tracer=tracer, observer=observer,
                hold_seconds=args.export_linger)
        finally:
            if observer is not None:
                observer.stop()
        monitor = None
        if args.slo:
            from .obs import SLOMonitor
            monitor = SLOMonitor()
            for o in outcomes:
                monitor.observe_outcome(o)
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
            if monitor is not None:
                extra["slo"] = [r.to_dict() for r in monitor.reports()]
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
            if monitor is not None:
                from .obs.slo import format_burn_rates
                _section("SLO burn rates", format_burn_rates(monitor))
        if tracer is not None:
            _finish_tracer(tracer, args)
        if guarantees is not None and not guarantees["passed"]:
            return 1
        if monitor is not None and monitor.alerts():
            return 1
        return 0

    if args.command == "serve-bench":
        from .registry import append_record, make_record
        # The gate configuration is fixed: mixed workload, shared
        # x/eps (valid for both algorithms), serial executor — the
        # gated ledger fields are then deterministic for a seed.
        outcomes, summary, guarantees = _serve_batch(args, "mixed")
        # The per-query rows carry everything the SLO gate
        # (tools/check_slo.py) needs to rebuild one sample per query:
        # the deterministic ledger facts plus the clock-derived latency
        # and the trace id joining the row back to spans and history.
        record = make_record(
            "serve-bench",
            {"n": args.n, "x": args.x, "eps": args.eps,
             "seed": args.seed, "budget": _budget(args)},
            summary, guarantees=guarantees,
            extra={**_record_settings(args),
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
        from .registry import (load_baseline, match_baseline, read_history,
                               record_engine)
        baseline = load_baseline(args.baseline)
        if not baseline:
            raise SystemExit(f"{args.baseline}: no baseline records")
        history = read_history(args.history)
        if args.engine:
            history = [r for r in history
                       if record_engine(r) == args.engine]
        matched, regressed = match_baseline(
            baseline, history, tolerance=args.tolerance, source=args.history)
        if not matched:
            raise SystemExit(
                "no history run matches any baseline record; run the "
                "baseline configs first (see BENCH_table1.json)")
        return 1 if regressed else 0

    if args.command == "trace":
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
        _print_skew(spans, lead=args.query is not None)
        if args.chrome is not None:
            export_chrome_trace(spans, args.chrome)
            print(f"\nChrome trace written to {args.chrome} "
                  "(open in https://ui.perfetto.dev)")
        return 0

    if args.command == "profile":
        return _cmd_profile(args)

    if args.command == "profdiff":
        return _cmd_profdiff(args)

    if args.command == "top":
        return _cmd_top(args)

    raise SystemExit(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
