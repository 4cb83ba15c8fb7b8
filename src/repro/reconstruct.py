"""Transformation recovery: turn an MPC run's tuples into an edit script.

The combining DPs (Algorithm 2 / Algorithm 4) select a monotone chain of
``⟨block, window, distance⟩`` tuples; this module re-runs the DP with
parent tracking (:func:`repro.chain.chain_tuples`), then stitches a full
edit script: per-tuple scripts from the exact aligner on the (short)
block/window substrings, gap scripts for the unaligned regions between
tuples.

The recovered script is an explicit transformation of ``s`` into ``t``
whose cost equals the DP value — i.e. the same certified upper bound the
drivers report, now as an actionable operation list.  (The large-distance
overlap rule is not supported: overlapping windows do not decompose into
position-disjoint scripts.)
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .chain import Tuple5, chain_tuples
from .strings.edit_distance import levenshtein_script
from .strings.transform import EditOp, gap_script
from .strings.types import StringLike, as_array

__all__ = ["chain_tuples", "chain_script", "ulam_script"]


def chain_script(s: StringLike, t: StringLike,
                 chain: Sequence[Tuple5],
                 mode: str = "max") -> List[EditOp]:
    """Stitch a full edit script from a monotone tuple chain.

    Tuple segments use the exact aligner on the substrings (so the
    per-tuple script cost is *at most* the tuple's recorded distance);
    gaps use :func:`repro.strings.transform.gap_script`.  The script's
    total cost therefore never exceeds the chain's DP cost.
    """
    S, T = as_array(s), as_array(t)
    ops: List[EditOp] = []
    cur_s, cur_t = 0, 0
    for (lo, hi, sp, ep, _d) in chain:
        if lo < cur_s or sp < cur_t:
            raise ValueError("chain is not monotone / non-overlapping")
        ops.extend(gap_script(cur_s, lo, cur_t, sp, mode=mode))
        _, seg_ops = levenshtein_script(S[lo:hi], T[sp:ep])
        ops.extend((kind, i + lo, j + sp) for kind, i, j in seg_ops)
        cur_s, cur_t = hi, ep
    ops.extend(gap_script(cur_s, len(S), cur_t, len(T), mode=mode))
    return ops


def ulam_script(s: StringLike, t: StringLike, result
                ) -> Tuple[int, List[EditOp]]:
    """Edit script for an :class:`repro.ulam.UlamResult`.

    Requires the result to have been produced with ``keep_tuples=True``.
    Returns ``(cost, ops)`` with ``cost == len(ops) <= result.distance``
    (re-aligning tuple substrings exactly can only improve on the
    recorded distances).
    """
    if result.tuples is None:
        raise ValueError("run mpc_ulam with keep_tuples=True to "
                         "reconstruct a script")
    S, T = as_array(s), as_array(t)
    _, chain = chain_tuples(result.tuples, len(S), len(T), mode="max")
    ops = chain_script(S, T, chain, mode="max")
    return len(ops), ops
