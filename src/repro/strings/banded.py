"""Banded (Ukkonen) edit distance: threshold tests in ``O(k·min(m,n))``.

If ``ed(a, b) ≤ k``, every cell of an optimal alignment path stays within
``k`` of the main diagonal, so the DP can be restricted to a band of width
``2k+1``.  :func:`levenshtein_banded` evaluates that band exactly and
reports ``None`` when the distance certifiably exceeds ``k``;
:func:`levenshtein_doubling` wraps it in the classic exponential search,
giving exact distance in ``O(d·min(m, n))`` work for distance ``d``.

These kernels power the ``inner="banded"`` option of the MPC edit-distance
algorithm and every distance-threshold query (``ed ≤ τ``) of the
large-distance phases.  Each scalar entry point is a batch of one: the
early exits live once, in the batch loops, and every band evaluation is
charged once, by the :class:`~repro.mpc.accounting.charge` bracket in
:func:`_banded_values_group` around
:func:`repro.strings.native.banded_values_batch`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..mpc.accounting import add_work, charge
from . import native
from .types import StringLike, as_array

__all__ = ["levenshtein_banded", "levenshtein_doubling", "within_threshold",
           "within_threshold_batch", "levenshtein_doubling_batch"]


def _banded_values_group(pairs: Sequence[Tuple[np.ndarray, np.ndarray]],
                         k: int) -> np.ndarray:
    """Metered band-constrained DP optima for many pairs at one ``k``.

    Every pair needs ``m, n > 0`` and ``|m - n| <= k`` (callers handle
    the early exits).  Each value is the cost of the best alignment whose
    path stays inside the band: always an upper bound on the distance,
    and exact whenever it is ``<= k``.  Values above ``k`` certify
    ``ed > k`` without being the distance themselves.

    Each pair is one logical call of ``(2k+1)·m + n + 1`` cells (row
    ``i`` covers columns ``[i-k, i+k]`` clipped to ``[0, n]``), charged
    as ``len(pairs)`` calls in one bracket.
    """
    total = sum((2 * k + 1) * len(A) + len(B) + 1 for A, B in pairs)
    with charge("banded", len(pairs), total):
        return native.banded_values_batch(pairs, k)


def _banded_batch(pairs: Sequence[Tuple[StringLike, StringLike]],
                  k: int) -> List[Optional[int]]:
    """Exact distance per pair if it is at most ``k``, else ``None``.

    A length gap beyond ``k`` certifies ``None`` in ``O(1)`` (no
    conversion, no band): every edit changes the length by at most one,
    so ``|len(a) - len(b)|`` lower-bounds the distance.  An empty side
    is decided directly; every other pair runs in one metered band group.
    """
    results: List[Optional[int]] = [None] * len(pairs)
    jobs: List[Tuple[int, np.ndarray, np.ndarray]] = []
    for i, (a, b) in enumerate(pairs):
        if abs(len(a) - len(b)) > k:
            add_work(1)
            continue
        A, B = as_array(a), as_array(b)
        if len(A) == 0 or len(B) == 0:
            d = len(A) + len(B)
            results[i] = d if d <= k else None
            continue
        jobs.append((i, A, B))
    if jobs:
        vals = _banded_values_group([(A, B) for _, A, B in jobs], k)
        for (i, _, _), v in zip(jobs, vals):
            if v <= k:
                results[i] = int(v)
    return results


def levenshtein_banded(a: StringLike, b: StringLike,
                       k: int) -> Optional[int]:
    """Exact edit distance if it is at most ``k``, else ``None``.

    Work is ``O((2k+1)·min(m, n))``; the band is laid out per-row so each
    row is a vectorised slice update.
    """
    if k < 0:
        raise ValueError("threshold k must be non-negative")
    return _banded_batch([(a, b)], k)[0]


def levenshtein_doubling(a: StringLike, b: StringLike,
                         k0: int = 1) -> int:
    """Exact edit distance via exponential band doubling.

    Starts with band ``k0`` and widens until the banded DP certifies the
    answer.  Total work ``O(d·min(m, n))`` where ``d`` is the distance —
    the standard output-sensitive trick; much faster than full
    Wagner–Fischer for similar strings.  A batch of one
    :func:`levenshtein_doubling_batch`.
    """
    return levenshtein_doubling_batch([(a, b)], k0)[0]


def within_threshold(a: StringLike, b: StringLike, tau: int) -> bool:
    """Decide ``ed(a, b) ≤ tau`` in ``O(tau·min(m, n))`` work.

    A length difference beyond ``tau`` certifies ``False`` in ``O(1)``.
    """
    return within_threshold_batch([(a, b)], tau)[0]


def within_threshold_batch(pairs: Sequence[Tuple[StringLike, StringLike]],
                           tau: int) -> List[bool]:
    """:func:`within_threshold` over many pairs at one ``tau``.

    The pairs that survive the early exits run as one batched band
    evaluation.
    """
    if tau < 0:
        raise ValueError("threshold tau must be non-negative")
    return [d is not None for d in _banded_batch(pairs, tau)]


def levenshtein_doubling_batch(pairs: Sequence[Tuple[StringLike,
                                                     StringLike]],
                               k0: int = 1) -> List[int]:
    """:func:`levenshtein_doubling` over many pairs.

    Each pair follows its own band schedule; pairs currently at the same
    band width run as one batched band evaluation per round.

    A failed band is not thrown away: the band-constrained optimum is
    the cost of a *real* alignment, hence an upper bound on the
    distance.  A value of exactly ``k + 1`` pins the distance (the band
    proved ``d > k``), and otherwise the next band is clamped to that
    upper bound, so the widened run is guaranteed to certify.
    """
    out: List[Optional[int]] = [None] * len(pairs)
    # Mutable per-pair state: [result slot, A, B, current k, bound].
    active: List[list] = []
    for i, (a, b) in enumerate(pairs):
        A, B = as_array(a), as_array(b)
        m, n = len(A), len(B)
        if m == 0 or n == 0:
            add_work(1)
            out[i] = m + n
            continue
        active.append([i, A, B, max(k0, abs(m - n), 1), m + n])
    while active:
        rounds: dict = {}
        for rec in active:
            kk = min(rec[3], rec[4])
            rounds.setdefault(kk, []).append(rec)
        still = []
        for kk, recs in rounds.items():
            vals = _banded_values_group([(r[1], r[2]) for r in recs], kk)
            for rec, v in zip(recs, vals):
                value = int(v)
                if value <= kk + 1:
                    # value <= kk is certified exact; value == kk + 1
                    # combines the band's lower bound d > kk with the
                    # alignment's upper bound d <= kk + 1: exact too.
                    out[rec[0]] = value
                    continue
                if rec[3] >= rec[4]:
                    # Distance never exceeds m + n: the full band is exact.
                    raise AssertionError(
                        "banded DP failed at full band width")
                rec[3] = min(2 * rec[3], value)
                still.append(rec)
        active = still
    return out  # type: ignore[return-value]
