"""Run-ledger serialisation: export/import measured MPC executions.

Benchmark pipelines and notebooks want the per-round ledger as data, not
as Python objects; this module round-trips :class:`RunStats` through
plain dicts / JSON files so experiment results can be archived next to
``benchmarks/results/`` and re-plotted without re-running.

Field typing is explicit: every serialised round field has the target
type its :class:`RoundStats` annotation declares (:data:`_FIELD_TYPES`),
and a stored value that does not fit it raises (a float in an int field
used to be silently truncated by the old default-value-derived
coercion).  Ledgers written before the recovery or shuffle/broadcast
counters existed load fine — missing fields keep their dataclass
defaults.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import tempfile
from dataclasses import fields
from typing import Dict, List, Union, get_origin, get_type_hints

from .accounting import RoundStats, RunStats

__all__ = ["run_stats_to_dict", "run_stats_from_dict", "save_run_stats",
           "load_run_stats"]

# Serialisation schema: RoundStats field -> target type (the annotation's
# origin, so ``Dict[str, list]`` reads as ``dict``), in declaration
# order, which is the column order of the exported per-round dicts.
_HINTS = get_type_hints(RoundStats)
_FIELD_TYPES: Dict[str, type] = {
    f.name: get_origin(_HINTS[f.name]) or _HINTS[f.name]
    for f in fields(RoundStats)}

#: Per-entry layout of a ``kernel_profile`` value
#: (see RoundStats.kernel_profile).
_PROFILE_LAYOUT = (int, int, float, int, float, int)

_ROUND_FIELDS = tuple(_FIELD_TYPES)


def _coerce(field: str, value: object) -> object:
    """Convert *value* to the declared type of *field*, or raise.

    ``int`` fields accept bools/ints and floats that are exact integers
    (JSON readers may produce ``3.0``); anything lossy raises
    ``ValueError`` instead of silently truncating.  ``float`` fields
    accept any real number; ``str`` fields accept only strings.
    """
    target = _FIELD_TYPES[field]
    if target is str:
        if not isinstance(value, str):
            raise ValueError(
                f"field {field!r} expects str, got {value!r}")
        return value
    if target is int:
        if isinstance(value, bool) or isinstance(value, int):
            return int(value)
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise ValueError(
            f"field {field!r} expects an integer, got {value!r}")
    if target is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        raise ValueError(
            f"field {field!r} expects a number, got {value!r}")
    if target is dict:
        # kernel_profile: {kernel: [calls, cells, seconds, machines,
        # max_seconds, max_machine]}; every slot re-typed to the layout
        # so a float never sneaks into a count slot.
        if not isinstance(value, dict):
            raise ValueError(
                f"field {field!r} expects a mapping, got {value!r}")
        out = {}
        for kernel, rec in value.items():
            if not isinstance(kernel, str) or \
                    not isinstance(rec, (list, tuple)) or \
                    len(rec) != len(_PROFILE_LAYOUT):
                raise ValueError(
                    f"field {field!r} expects "
                    f"{{kernel: {len(_PROFILE_LAYOUT)}-entry list}}, "
                    f"got {kernel!r}: {rec!r}")
            row = []
            for slot, (want, v) in enumerate(zip(_PROFILE_LAYOUT, rec)):
                if want is int:
                    if isinstance(v, bool) or not isinstance(
                            v, (int, float)) or (
                            isinstance(v, float) and not v.is_integer()):
                        raise ValueError(
                            f"field {field!r}[{kernel!r}][{slot}] "
                            f"expects an integer, got {v!r}")
                    row.append(int(v))
                else:
                    if isinstance(v, bool) or not isinstance(
                            v, (int, float)):
                        raise ValueError(
                            f"field {field!r}[{kernel!r}][{slot}] "
                            f"expects a number, got {v!r}")
                    row.append(float(v))
            out[kernel] = row
        return out
    raise AssertionError(f"unhandled target type for {field!r}")


def run_stats_to_dict(stats: RunStats) -> Dict[str, object]:
    """Full ledger (per-round detail + the summary block) as plain data.

    The run-level metrics snapshot (when the run carried one) is stored
    as its own top-level key — it is not per-round data, and keeping it
    out of ``rounds`` preserves the strict round schema.
    """
    out: Dict[str, object] = {
        "summary": stats.summary(),
        "rounds": [{f: ({k: list(v) for k, v in getattr(r, f).items()}
                        if _FIELD_TYPES[f] is dict else getattr(r, f))
                    for f in _ROUND_FIELDS}
                   for r in stats.rounds],
    }
    if stats.metrics:
        out["metrics"] = stats.metrics
    return out


def run_stats_from_dict(data: Dict[str, object]) -> RunStats:
    """Inverse of :func:`run_stats_to_dict` (summary is recomputed).

    Raises ``ValueError`` when a stored value does not fit its field's
    declared type, and when a round carries fields this version does not
    know (schema drift from a newer writer must be loud, not silently
    dropped).  Fields absent from the stored dict (ledgers written by
    older versions) keep their :class:`RoundStats` defaults.
    """
    rounds: List[RoundStats] = []
    unknown: Dict[str, List[int]] = {}
    for ri, rd in enumerate(data["rounds"]):   # type: ignore[index]
        for f in set(rd) - set(_ROUND_FIELDS):
            unknown.setdefault(f, []).append(ri)
        r = RoundStats(name=_coerce("name", rd["name"]))
        for f in _ROUND_FIELDS[1:]:
            if f in rd:
                setattr(r, f, _coerce(f, rd[f]))
        rounds.append(r)
    if unknown:
        detail = ", ".join(
            f"{f!r} (round{'s' if len(ris) > 1 else ''} "
            f"{', '.join(map(str, ris))})"
            for f, ris in sorted(unknown.items()))
        raise ValueError(
            f"unknown round field(s) {detail}; was this ledger written "
            "by a newer version?")
    metrics = data.get("metrics", {})
    if not isinstance(metrics, dict):
        raise ValueError(
            f"'metrics' must be a snapshot dict, got {metrics!r}")
    return RunStats(rounds=rounds, metrics=dict(metrics))


def save_run_stats(stats: RunStats,
                   path: Union[str, pathlib.Path]) -> None:
    """Write the ledger to a JSON file, atomically.

    The document is written to a temporary file in the same directory
    and moved into place with :func:`os.replace`, so an interrupted
    benchmark never leaves a truncated, unparseable ledger — readers see
    either the old file or the complete new one.
    """
    path = pathlib.Path(path)
    payload = json.dumps(run_stats_to_dict(stats), indent=2, sort_keys=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent,
                                    prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise


def load_run_stats(path: Union[str, pathlib.Path]) -> RunStats:
    """Read a ledger written by :func:`save_run_stats`."""
    return run_stats_from_dict(json.loads(pathlib.Path(path).read_text()))
