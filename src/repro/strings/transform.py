"""Edit scripts as first-class objects: apply, validate, compose.

An edit script is a list of ``(kind, i, j)`` operations with ``kind`` in
``{"substitute", "delete", "insert"}``, where ``i``/``j`` are 0-based
positions in the *original* source/target strings (the convention of
:func:`repro.strings.edit_distance.levenshtein_script`).  Scripts are
generated left-to-right, so they can be replayed with a single running
index shift.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .types import StringLike, as_array

__all__ = ["EditOp", "apply_script", "gap_script"]

EditOp = Tuple[str, int, int]


def apply_script(source: StringLike, target: StringLike,
                 ops: Sequence[EditOp]) -> np.ndarray:
    """Replay *ops* on *source*; with a correct script the result equals
    *target*.

    ``target`` supplies the characters that substitutions and insertions
    write (ops reference target positions rather than carrying symbols,
    which keeps scripts compact and MPC-shippable).
    """
    S, T = as_array(source), as_array(target)
    out = S.tolist()
    shift = 0
    for kind, i, j in ops:
        if kind == "substitute":
            out[i + shift] = int(T[j])
        elif kind == "delete":
            del out[i + shift]
            shift -= 1
        elif kind == "insert":
            out.insert(i + shift, int(T[j]))
            shift += 1
        else:
            raise ValueError(f"unknown edit op kind {kind!r}")
    return np.asarray(out, dtype=np.int64)


def gap_script(s_lo: int, s_hi: int, t_lo: int, t_hi: int,
               mode: str = "max") -> List[EditOp]:
    """Script for an *unaligned gap*: turn ``source[s_lo:s_hi]`` into
    ``target[t_lo:t_hi]`` without looking at the characters.

    ``mode="max"`` substitutes the overlap and indels the imbalance
    (cost ``max(a, b)`` — Algorithm 2's gap rule); ``mode="sum"`` deletes
    everything and inserts everything (cost ``a + b`` — Algorithm 4's).
    """
    a = s_hi - s_lo
    b = t_hi - t_lo
    if a < 0 or b < 0:
        raise ValueError("gap bounds must be non-decreasing")
    ops: List[EditOp] = []
    if mode == "max":
        common = min(a, b)
        for k in range(common):
            ops.append(("substitute", s_lo + k, t_lo + k))
        for k in range(common, a):
            ops.append(("delete", s_lo + k, t_lo + b))
        for k in range(common, b):
            ops.append(("insert", s_hi, t_lo + k))
    elif mode == "sum":
        for k in range(a):
            ops.append(("delete", s_lo + k, t_lo))
        for k in range(b):
            ops.append(("insert", s_hi, t_lo + k))
    else:
        raise ValueError(f"unknown gap mode {mode!r}")
    return ops
