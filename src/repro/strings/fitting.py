"""Fitting (substring) alignment: align a whole pattern inside a text.

The fitting distance of ``p`` in ``t``, ``min over substrings w of t of
ed(p, w)``, is exactly the *local Ulam distance* contract of the paper's
Appendix A (`lulam`), generalised to arbitrary strings.  The DP is the
Wagner–Fischer recurrence with a free start (``D[0][j] = 0``) and a
free end (answer = min of the last row).

Endpoint recovery uses a second, reversed pass instead of storing the full
table: once the best end ``κ`` is known, the best start is found by a
*prefix* alignment of the reversed pattern against the reversed text
prefix ``t[:κ]`` — ``ed(p, t[γ:κ]) = ed(reverse(p), reverse(t[:κ])[0 : κ-γ])``.
Both passes are Myers bit-parallel last rows, so the kernel runs in
``O(m·n)`` abstract work and ``O(n)`` memory.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .bitparallel import myers_last_rows
from .edit_distance import levenshtein_last_row
from .types import StringLike, as_array

__all__ = ["fitting_last_row", "fitting_alignment"]


def fitting_last_row(pattern: StringLike, text: StringLike) -> np.ndarray:
    """Final row of the free-start DP.

    Entry ``j`` is ``min over g ≤ j of ed(pattern, text[g:j])``: a batch
    of one of :func:`~repro.strings.myers_last_rows` in fitting mode.
    """
    return myers_last_rows(pattern, [text], fitting=True)[0]


def fitting_alignment(pattern: StringLike, text: StringLike
                      ) -> Tuple[int, int, int]:
    """Best-matching substring of *text* for *pattern*.

    Returns ``(gamma, kappa, dist)`` with a half-open window
    ``text[gamma:kappa]`` achieving ``ed(pattern, text[gamma:kappa]) ==
    dist == fitting_last_row(pattern, text).min()``.  Among optimal
    windows, the reported one ends at the earliest optimal ``κ`` and is
    shortest for that ``κ`` — callers must only rely on optimality, not
    on a specific tie-break.
    """
    P, T = as_array(pattern), as_array(text)
    m, n = len(P), len(T)
    if m == 0:
        return 0, 0, 0
    if n == 0:
        return 0, 0, m
    last = fitting_last_row(P, T)
    kappa = int(np.argmin(last))
    dist = int(last[kappa])
    if kappa == 0:
        return 0, 0, dist
    # Reversed prefix pass recovers the start without the full table.
    rev_row = levenshtein_last_row(P[::-1], T[:kappa][::-1])
    j_rev = int(np.argmin(rev_row))
    gamma = kappa - j_rev
    if int(rev_row[j_rev]) != dist:  # pragma: no cover - internal invariant
        raise AssertionError("fitting alignment passes disagree")
    return gamma, kappa, dist
