#!/usr/bin/env python3
"""Enforce the MPC-layer API boundaries (stdlib only, CI-friendly).

Eight rules:

* Algorithm drivers must submit rounds through :mod:`repro.mpc.plan`
  (``Pipeline``/``RoundSpec``/``run_plan``) so that shuffle volume and
  broadcast charges are metered.  Direct ``sim.run_round(...)`` calls
  are the raw escape hatch and are allowed only *inside* the simulator
  package itself.
* Telemetry sinks (``InMemorySink``/``JsonlSink``) may be constructed
  only inside ``repro/mpc`` and ``repro/cli.py``.  Drivers and
  benchmarks receive a ready :class:`~repro.mpc.telemetry.Tracer` (or
  build one via ``Tracer.to_jsonl``/``Tracer.in_memory``) and stay
  sink-agnostic, so the choice of trace format remains with the caller.
* Metric *writes* — the snapshot writes ``inc``/``set_gauge``/
  ``observe``, the meter-side ``record_metric`` and the process
  registry's ``record``/``observe`` — are an internal privilege of
  ``src/repro/``.  Tests, examples and benchmarks read metrics only
  through ``RunStats.metrics`` or the ``/metrics`` snapshot
  (``get_registry().snapshot()``); the metrics module's own unit tests
  are the single sanctioned exception.
* Kernel charging (``charge(kernel, calls, cells)``, the one bracket
  through which a DP kernel reports work, counters and profile) is
  likewise internal to ``src/repro/``: everything outside consumes the
  results read-only (``WorkMeter.total``/``WorkMeter.kernels``,
  ``RunStats.profile_rows``, ``repro.obs.profile.global_profile``); the
  profiler's own unit tests are the single sanctioned exception.
* Raw ``multiprocessing.shared_memory`` is an internal privilege of
  ``src/repro/mpc/`` (the data plane owns segment lifecycle and
  refcounting).  Everything else publishes through
  :class:`repro.mpc.DataPlane` and ships :class:`~repro.mpc.SharedSlice`
  descriptors, so a leaked segment can only ever be a data-plane bug.
* Algorithm *drivers* (``repro.ulam``, ``repro.editdistance``,
  ``repro.baselines`` minus the dependency-free ``baselines.theory``
  tables) are an implementation detail of the engine registry: inside
  ``src/`` they may be imported only by ``repro/engines/`` (and by the
  driver packages themselves / the top-level facade).  Everything else
  — CLI, service, chaos, analysis — resolves algorithms through
  :mod:`repro.engines`, so adding an engine never means touching a
  dispatch table.  Tests and benchmarks may still import drivers
  directly (golden-equivalence suites compare both paths on purpose).
* Worker pools and data planes (``ProcessPoolExecutor``/``DataPlane``)
  may be constructed only inside ``repro/mpc`` and ``repro/service``:
  the service layer multiplexes every query over *one* executor and
  *one* plane per corpus, so ad-hoc pool/plane construction in drivers
  or tools would silently fork that resource model.  The executor A/B
  benchmark and the cluster example are the sanctioned stand-alone
  exceptions.
* HTTP server primitives (``http.server`` /
  ``ThreadingHTTPServer``/``BaseHTTPRequestHandler``) may be used only
  inside ``repro/obs`` and ``repro/cli.py``: the exporter is the single
  network surface of the codebase, so health semantics, content types
  and the read-only-handler discipline live in exactly one place —
  engines, drivers and the service layer stay network-free.

Exit status 0 when clean; 1 with a per-offence listing otherwise.

Usage::

    python tools/check_api_boundary.py [repo_root]
"""

from __future__ import annotations

import pathlib
import re
import sys

#: rule name -> (pattern, scanned dirs, allowed path prefixes,
#:               offence text, fix hint).
RULES = {
    "run_round": (
        re.compile(r"\.run_round\s*\("),
        ("src", "benchmarks"),
        ("src/repro/mpc/",),
        "direct run_round call outside src/repro/mpc/",
        "Route rounds through repro.mpc.plan (Pipeline/RoundSpec) "
        "instead.",
    ),
    "sink": (
        re.compile(r"\b(?:InMemorySink|JsonlSink)\s*\("),
        ("src", "benchmarks"),
        ("src/repro/mpc/", "src/repro/cli.py"),
        "direct telemetry sink construction outside src/repro/mpc/ "
        "and src/repro/cli.py",
        "Accept a repro.mpc.Tracer (or use Tracer.to_jsonl / "
        "Tracer.in_memory) so drivers stay sink-agnostic.",
    ),
    "metrics-mutation": (
        re.compile(r"(?<![\w.])(?:inc|set_gauge|observe|record_metric)"
                   r"\s*\(|get_registry\(\)\s*\.\s*(?:record|observe)\s*\("),
        ("src", "benchmarks", "tests", "examples"),
        # test_metrics.py exercises the writes themselves;
        # test_api_boundary.py holds offending lines as string fixtures.
        ("src/repro/", "tests/test_metrics.py",
         "tests/test_api_boundary.py"),
        "metric write outside src/repro/",
        "Metric writes are internal to src/repro/; read RunStats.metrics "
        "or the /metrics snapshot (get_registry().snapshot()) instead "
        "(tests/test_metrics.py is the sanctioned exception).",
    ),
    "kernel-charge": (
        re.compile(r"(?<![\w.])charge\s*\("),
        ("src", "benchmarks", "tests", "examples"),
        # test_obs_profile.py exercises the bracket itself;
        # test_api_boundary.py holds offending lines as string fixtures.
        ("src/repro/", "tests/test_obs_profile.py",
         "tests/test_api_boundary.py"),
        "kernel charge outside src/repro/",
        "Kernel charging is internal to the instrumented kernels: read "
        "work and profiles via WorkMeter (total, kernels), "
        "RunStats.profile_rows or repro.obs.profile.global_profile "
        "(tests/test_obs_profile.py is the sanctioned exception).",
    ),
    "shared-memory": (
        re.compile(r"\bshared_memory\b|\bSharedMemory\s*\("),
        ("src", "benchmarks", "tests", "examples"),
        # test_api_boundary.py holds offending lines as string fixtures.
        ("src/repro/mpc/", "tests/test_api_boundary.py"),
        "raw multiprocessing.shared_memory use outside src/repro/mpc/",
        "Segment lifecycle belongs to the data plane: publish via "
        "repro.mpc.DataPlane and ship SharedSlice descriptors "
        "(resolve_payload runs inside execute_task).",
    ),
    # Two patterns because relative imports are resolved by location:
    # ``from .ulam`` means the driver package only at repro's top level
    # (subpackages like repro.strings have their own local ``ulam``),
    # while ``repro.ulam`` / ``..ulam`` mean the driver from anywhere.
    "driver-imports": (
        re.compile(r"(?:^|[^\w.])(?:from|import)\s+(?:repro\.|\.{2,})"
                   r"(?:ulam\b|editdistance\b|"
                   r"baselines(?!\.theory\b)\b)"),
        ("src",),
        # The driver packages and the facade re-export themselves; the
        # engine registry is the one sanctioned consumer.
        ("src/repro/engines/", "src/repro/ulam/",
         "src/repro/editdistance/", "src/repro/baselines/",
         "src/repro/__init__.py"),
        "direct driver import outside repro.engines",
        "Resolve algorithms through the engine registry "
        "(repro.engines.get_engine / select_engine) instead of "
        "importing driver modules; only repro/engines/ may import "
        "repro.ulam, repro.editdistance or repro.baselines "
        "(baselines.theory tables excepted).",
    ),
    "driver-imports-toplevel": (
        re.compile(r"(?:^|[^\w.])(?:from|import)\s+\.(?!\.)"
                   r"(?:ulam\b|editdistance\b|"
                   r"baselines(?!\.theory\b)\b)"),
        ("src",),
        # Inside a subpackage a single-dot import is a sibling module,
        # not the driver package — exempt them all.
        ("src/repro/analysis/", "src/repro/baselines/",
         "src/repro/editdistance/", "src/repro/engines/",
         "src/repro/mpc/", "src/repro/service/", "src/repro/strings/",
         "src/repro/ulam/", "src/repro/workloads/",
         "src/repro/__init__.py"),
        "direct driver import outside repro.engines",
        "Resolve algorithms through the engine registry "
        "(repro.engines.get_engine / select_engine) instead of "
        "importing driver modules; only repro/engines/ may import "
        "repro.ulam, repro.editdistance or repro.baselines "
        "(baselines.theory tables excepted).",
    ),
    "pool-plane-construction": (
        re.compile(r"\b(?:DataPlane|ProcessPoolExecutor)\s*\("),
        ("src", "benchmarks", "examples"),
        # The executor A/B benchmark and the cluster example exercise
        # pool construction itself; test fixtures are exempt wholesale.
        ("src/repro/mpc/", "src/repro/service/",
         "benchmarks/bench_executor_speedup.py",
         "examples/cluster_simulation.py"),
        "worker-pool / data-plane construction outside repro.mpc and "
        "repro.service",
        "One executor and one plane per corpus: go through "
        "repro.service (DistanceService / run_workload) or accept a "
        "ready simulator instead of constructing pools or planes.",
    ),
    "http-exporter": (
        re.compile(r"\bhttp\.server\b|\bfrom\s+http\s+import\b|"
                   r"\b(?:ThreadingHTTPServer|HTTPServer|"
                   r"BaseHTTPRequestHandler)\b"),
        ("src", "benchmarks", "examples"),
        ("src/repro/obs/", "src/repro/cli.py"),
        "HTTP server construction outside src/repro/obs/ and "
        "src/repro/cli.py",
        "The exporter is the one network surface: serve endpoints "
        "through repro.obs.ObservabilityServer (bind/start/stop) "
        "instead of building HTTP servers elsewhere.",
    ),
}

#: Union of every rule's scan dirs (computed, not configured).
SCANNED = tuple(sorted({d for _, dirs, _, _, _ in RULES.values()
                        for d in dirs}))


def offences(root: pathlib.Path):
    for top in SCANNED:
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            for lineno, line in enumerate(
                    path.read_text().splitlines(), start=1):
                stripped = line.split("#", 1)[0]
                for rule, (pattern, dirs, allowed, text,
                           hint) in RULES.items():
                    if top not in dirs:
                        continue
                    if rel.startswith(allowed):
                        continue
                    if pattern.search(stripped):
                        yield rule, rel, lineno, line.strip(), text, hint


def main(argv):
    root = pathlib.Path(argv[1]) if len(argv) > 1 else \
        pathlib.Path(__file__).resolve().parent.parent
    found = list(offences(root))
    hints = []
    for rule, rel, lineno, line, text, hint in found:
        print(f"{rel}:{lineno}: {text}: {line}")
        if hint not in hints:
            hints.append(hint)
    if found:
        print(f"\n{len(found)} boundary violation(s).")
        for hint in hints:
            print(hint)
        return 1
    print("API boundary clean: no direct run_round calls, sink "
          "constructions, metric writes, kernel charges, "
          "raw shared_memory use, driver imports, pool/data-plane "
          "construction, or HTTP server construction outside their "
          "sanctioned modules")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
