"""Append-only run history: every CLI run leaves a JSONL record.

Telemetry traces answer "where did *this* run's time go"; the registry
answers "how does this run compare to every run before it".  Each record
is one JSON object per line — append-only, so concurrent runs and
crashed runs can never corrupt earlier history — carrying the run's
identity (command, parameters, seed, git SHA, timestamp), its outcome
(distance, approximation ratio when known), the resource ledger
(:meth:`~repro.mpc.accounting.RunStats.summary`, which embeds the
metrics-registry delta when metrics were enabled) and the guarantee
verdict (:class:`~repro.analysis.guarantees.GuaranteeReport`).

Two consumers:

* the ``repro history`` / ``repro compare`` CLI subcommands, for humans;
* ``tools/check_regression.py``, which replays the committed baseline
  (``BENCH_table1.json``) and fails CI when a fresh run regresses by
  more than :data:`REGRESSION_TOLERANCE` on any gated metric or
  violates a guarantee.

Both gate through one loop, :func:`match_baseline`.  A record maps back
to the command line that reproduces it through one table,
:data:`REPLAY_FIELDS`: :func:`record_key` (which runs are comparable),
:func:`replay_argv` (how to re-run one) and the CLI's record extras are
all read from it, so a setting that tells two runs apart is also one a
replay passes on.

Reading is tolerant of a truncated final line (a run killed mid-append),
mirroring :func:`repro.mpc.telemetry.read_jsonl`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

__all__ = ["SCHEMA_VERSION", "DEFAULT_HISTORY_PATH", "GATED_METRICS",
           "REGRESSION_TOLERANCE", "git_sha", "utc_timestamp",
           "make_record", "record_engine", "record_profile",
           "append_record", "read_history",
           "REPLAY_FIELDS", "record_key", "replay_argv",
           "replay", "filter_since",
           "load_baseline", "match_baseline", "compare_records",
           "format_record", "format_comparison"]

SCHEMA_VERSION = 1

#: Default history location, relative to the working directory.
DEFAULT_HISTORY_PATH = os.path.join(".repro", "history.jsonl")

#: Summary fields gated by :func:`compare_records` (higher = worse).
#: ``data_plane_bytes_shipped`` is the physical payload-pickle volume
#: (deterministic for a fixed seed, like the word counts); records
#: predating the data plane simply lack the field and are not gated on
#: it (compare_records skips metrics absent from either side).
GATED_METRICS = ("total_work", "parallel_work",
                 "total_communication_words", "max_memory_words",
                 "data_plane_bytes_shipped")

#: Relative headroom a fresh run gets over the baseline before the
#: comparison counts as a regression.  Abstract work and word counts are
#: deterministic for a fixed seed, so 15 % absorbs parameter-derived
#: rounding differences without masking a real asymptotic change.
REGRESSION_TOLERANCE = 0.15


def git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """Current commit SHA, or ``None`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd, capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def utc_timestamp() -> str:
    """ISO-8601 UTC timestamp with second precision."""
    import datetime
    return datetime.datetime.now(datetime.timezone.utc) \
        .strftime("%Y-%m-%dT%H:%M:%SZ")


# ---------------------------------------------------------------------------
# Record construction / IO

def make_record(command: str, params: Dict[str, object],
                summary: Dict[str, object],
                guarantees: Optional[dict] = None,
                extra: Optional[Dict[str, object]] = None,
                engine: Optional[str] = None) -> dict:
    """Assemble one run record (plain JSON-serialisable dict).

    ``params`` is the run's identity (n, x, eps, seed, budget, ...);
    ``summary`` the result summary — distance plus the RunStats ledger
    (and its ``metrics`` block when metrics collection was on).
    ``engine`` names the registry engine that produced the run; records
    predating the engine registry simply lack the field, and every
    reader treats it as optional (:func:`record_engine`).
    """
    record = {
        "schema": SCHEMA_VERSION,
        "command": command,
        "timestamp": utc_timestamp(),
        "git_sha": git_sha(),
        "params": dict(params),
        "summary": dict(summary),
    }
    if engine is not None:
        record["engine"] = engine
    if guarantees is not None:
        record["guarantees"] = guarantees
    if extra:
        record.update(extra)
    return record


def record_engine(record: dict) -> Optional[str]:
    """The engine that produced *record*, or ``None`` for records
    predating the engine registry (tolerant read)."""
    engine = record.get("engine")
    return engine if isinstance(engine, str) else None


def record_profile(record: dict) -> List[dict]:
    """The record's kernel-profile rows (``summary.profile``), or ``[]``.

    Tolerant read: records written before the kernel profiler, or runs
    where it was off, simply lack the block.  Rows are per (round,
    kernel) — see :meth:`repro.mpc.accounting.RunStats.profile_rows`.
    """
    summary = record.get("summary")
    if not isinstance(summary, dict):
        return []
    rows = summary.get("profile")
    return rows if isinstance(rows, list) else []


def append_record(path: str, record: dict) -> None:
    """Append one record to the JSONL history, creating parents.

    Safe under concurrent writers: the record is encoded up front and
    written with a single ``write()`` on an ``O_APPEND`` descriptor.
    POSIX serialises the offset update with the write itself, so two
    simultaneous appends (parallel CLI runs, service queries finishing
    together) interleave at *record* granularity — neither can tear the
    other's line the way buffered ``open(path, "a")`` writes could.
    """
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    data = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, data)
    finally:
        os.close(fd)


def read_history(path: str) -> List[dict]:
    """All parseable records of a JSONL history, oldest first.

    A truncated final line (interrupted append) is ignored; a malformed
    line elsewhere raises — the file is append-only, so mid-file damage
    means something other than this module wrote it.
    """
    records: List[dict] = []
    if not os.path.exists(path):
        return records
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    lines = raw.split("\n")
    ends_complete = raw.endswith("\n")
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            if i == len(lines) - 1 and not ends_complete:
                break  # torn final append
            raise
        if not isinstance(obj, dict):
            raise ValueError(f"{path}:{i + 1}: record is not an object")
        records.append(obj)
    return records


# ---------------------------------------------------------------------------
# Baseline matching and comparison

#: The ``params`` every replayable run records, each with the CLI flag
#: that sets it: they identify "the same experiment" across commits.
_REPLAY_PARAMS = (("n", "--n"), ("x", "--x"), ("eps", "--eps"),
                 ("seed", "--seed"), ("budget", "--budget"))

#: Fault injection settings (``ulam``/``edit``/``solve`` record them only
#: when a fault plan is given, so a fault-free run keeps the key of the
#: fault-free baselines).
_FAULT_FIELDS = (("fault_plan", "--fault-plan"), ("retries", "--retries"),
                 ("on_exhausted", "--on-exhausted"))

#: ``--no-data-plane`` changes the gated ``data_plane_bytes_shipped``.
#: It is a switch: recorded as ``true`` and replayed as the bare flag,
#: only when set.
_DATA_PLANE_FIELDS = (("no_data_plane", "--no-data-plane"),)

#: Replayable commands -> the top-level record fields (beyond the
#: params above) that are settings of the run, each with its
#: CLI flag.  Outputs such as ``edit``'s ``regime`` are not listed.
REPLAY_FIELDS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "ulam": _FAULT_FIELDS + _DATA_PLANE_FIELDS,
    "edit": _FAULT_FIELDS + _DATA_PLANE_FIELDS,
    "hss": (), "beghs": (),
    "solve": ((("distance", "--distance"), ("engine_spec", "--engine"))
              + _FAULT_FIELDS + _DATA_PLANE_FIELDS),
    "chaos": (("algo", "--algo"),) + _FAULT_FIELDS + _DATA_PLANE_FIELDS,
    "serve-bench": (("queries", "--queries"),),
}


def record_key(record: dict) -> Tuple:
    """Identity key: same command + same settings = comparable runs."""
    command = record.get("command")
    params = record.get("params", {})
    return ((command,)
            + tuple(params.get(field) for field, _ in _REPLAY_PARAMS)
            + tuple(record.get(field)
                    for field, _ in REPLAY_FIELDS.get(command, ())))


def replay_argv(record: dict) -> List[str]:
    """The ``repro`` argv that re-runs *record*'s configuration.

    Settings the record holds as ``None`` (e.g. ``solve``'s engine-default
    x/eps) are left out, so the CLI fills in the same defaults the
    recorded run used.  Raises ``ValueError`` for commands without a
    :data:`REPLAY_FIELDS` entry.
    """
    command = record.get("command")
    if command not in REPLAY_FIELDS:
        raise ValueError(f"{command!r} records cannot be replayed")
    argv = [command]
    for source, fields in ((record.get("params", {}), _REPLAY_PARAMS),
                           (record, REPLAY_FIELDS[command])):
        for field, flag in fields:
            value = source.get(field)
            if value is True:
                argv.append(flag)
            elif value is not None:
                argv += [flag, str(value)]
    return argv


def replay(argv: List[str], cwd: Optional[str] = None) -> dict:
    """Run ``python -m repro <argv> --json --no-history
    --check-guarantees`` on this package's source; return its record.

    A guarantee violation exits 1 but still prints the record (its
    ``guarantees`` block carries the verdict), so only a run that prints
    no record raises.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-m", "repro", *argv,
           "--json", "--no-history", "--check-guarantees"]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          cwd=cwd, timeout=600)
    out = proc.stdout.strip()
    if not out:
        raise RuntimeError(f"{' '.join(cmd)} produced no record "
                           f"(exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(out.splitlines()[-1])


def filter_since(records: List[dict], since: str) -> List[dict]:
    """Records whose timestamp is at or after *since* (ISO-8601 prefix).

    Timestamps are zero-padded UTC ISO-8601 strings, so lexicographic
    comparison is chronological and a prefix like ``2026-08`` works as a
    month filter.  Records without a timestamp are excluded (they cannot
    be shown to satisfy the cutoff).
    """
    return [r for r in records
            if isinstance(r.get("timestamp"), str)
            and r["timestamp"] >= since]


def load_baseline(path: str) -> List[dict]:
    """Load a committed baseline file (JSON list or JSONL both accepted)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("["):
        data = json.loads(text)
        if not isinstance(data, list):
            raise ValueError(f"{path}: baseline must be a JSON list")
        return data
    return read_history(path)


def match_baseline(baseline: List[dict], fresh: List[dict],
                   tolerance: float = REGRESSION_TOLERANCE,
                   source: str = "the fresh records"
                   ) -> Tuple[List[dict], bool]:
    """The baseline gate of ``repro compare`` and the regression tool.

    Matches every baseline record to the newest *fresh* record with the
    same :func:`record_key`, compares the two (:func:`compare_records`)
    and prints the verdict, the comparison table and the kernel
    attribution.  Returns the matched fresh records and whether any of
    them regressed.
    """
    from .obs.profile import kernel_attribution
    matched: List[dict] = []
    regressed = False
    for base in baseline:
        params = base.get("params", {})
        label = (f"{base.get('command')} n={params.get('n')} "
                 f"x={params.get('x')} eps={params.get('eps')} "
                 f"seed={params.get('seed')}")
        key = record_key(base)
        matches = [r for r in fresh if record_key(r) == key]
        if not matches:
            print(f"{label}: no matching run in {source}")
            continue
        matched.append(matches[-1])
        comparison = compare_records(base, matches[-1], tolerance=tolerance)
        bad = any(row.get("regressed") for row in comparison.values())
        regressed = regressed or bad
        print(f"{label}: " + ("REGRESSED" if bad else "ok"))
        print(format_comparison(comparison))
        attribution = kernel_attribution(base, matches[-1])
        if attribution:
            print(attribution)
    return matched, regressed


def compare_records(baseline: dict, fresh: dict,
                    tolerance: float = REGRESSION_TOLERANCE
                    ) -> Dict[str, dict]:
    """Per-metric comparison of two records with the same identity.

    Returns ``{metric: {baseline, fresh, change, regressed}}`` for every
    gated metric present in both summaries, plus a ``distance`` row
    (informational: distances may legitimately differ across algorithm
    changes, so it never sets ``regressed``) and a ``guarantees`` row
    when the fresh record carries a verdict.
    """
    out: Dict[str, dict] = {}
    b_sum = baseline.get("summary", {})
    f_sum = fresh.get("summary", {})
    for metric in GATED_METRICS:
        b = b_sum.get(metric)
        f = f_sum.get(metric)
        if b is None or f is None:
            continue
        change = (f - b) / b if b else (0.0 if not f else float("inf"))
        out[metric] = {"baseline": b, "fresh": f,
                       "change": round(change, 4),
                       "regressed": change > tolerance}
    if "distance" in b_sum or "distance" in f_sum:
        out["distance"] = {"baseline": b_sum.get("distance"),
                           "fresh": f_sum.get("distance"),
                           "change": None, "regressed": False}
    # Latency is informational only — wall-clock varies with the host,
    # so it never sets ``regressed`` — but surfacing the drift lets
    # ``repro compare`` answer "did queries get slower" alongside the
    # deterministic ledger.  Per-query serve records carry the field at
    # top level; batch records fall back to the summary's p99.
    b_lat = baseline.get("latency_seconds",
                         b_sum.get("p99_latency_seconds"))
    f_lat = fresh.get("latency_seconds",
                      f_sum.get("p99_latency_seconds"))
    if b_lat is not None or f_lat is not None:
        change = None
        if b_lat and f_lat is not None:
            change = round((f_lat - b_lat) / b_lat, 4)
        out["latency_seconds"] = {"baseline": b_lat, "fresh": f_lat,
                                  "change": change, "regressed": False}
    g = fresh.get("guarantees")
    if g is not None:
        out["guarantees"] = {"baseline": None, "fresh": g.get("passed"),
                             "change": None,
                             "regressed": not g.get("passed", False)}
    return out


def format_record(record: dict) -> str:
    """One-line rendering for ``repro history``."""
    params = record.get("params", {})
    summary = record.get("summary", {})
    sha = (record.get("git_sha") or "-")[:10]

    def get(mapping, key):
        # Single-machine engines legitimately record x/eps as null.
        value = mapping.get(key)
        return "-" if value is None else value

    parts = [f"{get(record, 'timestamp'):<20}",
             f"{get(record, 'command'):<6}",
             f"n={get(params, 'n'):<7}",
             f"x={get(params, 'x'):<5}",
             f"eps={get(params, 'eps'):<5}",
             f"seed={get(params, 'seed'):<3}",
             f"d={get(summary, 'distance'):<7}",
             f"work={get(summary, 'total_work'):<12}",
             f"sha={sha}"]
    engine = record_engine(record)
    if engine is not None:
        parts.append(f"engine={engine}")
    g = record.get("guarantees")
    if g is not None:
        parts.append("guarantees=" + ("PASS" if g.get("passed") else "FAIL"))
    return " ".join(str(p) for p in parts)


def format_comparison(comparison: Dict[str, dict]) -> str:
    """Readable table for ``repro compare`` / the regression gate."""
    lines = [f"  {'metric':<28} {'baseline':>14} {'fresh':>14} "
             f"{'change':>9}  verdict"]
    for metric, row in comparison.items():
        change = row.get("change")
        change_s = "-" if change is None else f"{change:+.1%}"
        verdict = "REGRESSED" if row.get("regressed") else "ok"
        lines.append(f"  {metric:<28} {str(row['baseline']):>14} "
                     f"{str(row['fresh']):>14} {change_s:>9}  {verdict}")
    return "\n".join(lines)
