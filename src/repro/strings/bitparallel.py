"""Myers' bit-parallel last-row DP, lane-packed across texts.

Myers (JACM 1999) encodes a DP column in two bit-vectors of vertical
deltas (+1 / −1) and advances one symbol per step with a dozen word
operations; Hyyrö's global variant shifts a carry bit into the
horizontal positive vector.  Python's unbounded integers act as
arbitrary-width words.

:func:`myers_last_rows` runs the DP transposed, so that K texts share one
sweep over the pattern: the bit-vectors span the texts, lane ``k``
holding text ``k`` in bits ``[k·W, (k+1)·W)`` with
``W = 8·(max_len//8 + 1)``, so every lane is byte-aligned and has a
guard bit.  The add's carry stays inside the lane, the top bit of a
shifted ``Ph`` lands on the next lane's bit 0, which the carry sets
anyway, and one mask of ``Pv`` per step keeps lanes apart; positions
past a short text's end match nothing.  Each of the pattern's ``m``
symbols is one step, and its Eq word is one row of a per-call table of
(distinct pattern symbols × lane bytes), scattered from the texts'
positions.  After the last step the vertical vectors are the deltas of
the last rows, decoded once with ``unpackbits`` and ``cumsum`` from
``D[m][0] = m``.  The top row of the transposed table is ``D[i][0] = i``
in both modes (carry 1); the free start ``D[0][j] = 0`` of the fitting
row is the initial ``Pv = 0``.  This is the one last-row kernel: the
scalar entry points are batches of one, and a small-regime block machine
(Algorithm 3) runs all its starting points as one batch.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..mpc.accounting import charge
from .types import StringLike, as_array

__all__ = ["myers_last_rows", "myers_levenshtein"]


def _cells(m: int, n: int) -> int:
    """Ledger cells of one last row: the full table, plus the Myers scan
    for patterns of 96+ symbols (the figure the goldens pin)."""
    if m == 0 or n == 0:
        return max(m, 1) * max(n, 1)
    return m * n + (n * (1 + m // 64) if m >= 96 and n >= 8 else 0)


def myers_last_rows(pattern: StringLike, texts: Sequence[StringLike],
                    fitting: bool = False) -> List[np.ndarray]:
    """Last DP rows of *pattern* against each of *texts*, in one sweep.

    Entry ``j`` of row ``k`` is ``ed(pattern, texts[k][:j])``, or with
    ``fitting=True`` ``min over g ≤ j of ed(pattern, texts[k][g:j])``.
    One ``bitparallel`` charge covers the batch: ``len(texts)`` calls
    and the per-text cells of :func:`_cells`.
    """
    P = as_array(pattern)
    Ts = [as_array(t) for t in texts]
    m, K = len(P), len(Ts)
    if K == 0:
        return []
    lens = [len(T) for T in Ts]
    ncols = max(lens)
    with charge("bitparallel", K, sum(_cells(m, n) for n in lens)):
        nbytes = ncols // 8 + 1             # lane width W = 8·nbytes bits
        mask = int.from_bytes(((1 << ncols) - 1).to_bytes(nbytes, "little")
                              * K, "little")
        carry = int.from_bytes((1).to_bytes(nbytes, "little") * K,
                               "little")
        # Eq table: row r has bit k·W + j set iff texts[k][j] == syms[r],
        # scattered from the texts' positions into (symbols × lane bytes).
        syms = np.unique(P)
        flat = np.concatenate(Ts)
        row = np.searchsorted(syms, flat, side="right") - 1
        hit = (syms.take(row, mode="clip") == flat if m
               else np.zeros(len(flat), dtype=bool))
        at = np.flatnonzero(np.arange(8 * nbytes)
                            < np.array(lens)[:, None])[hit]
        table = np.zeros((len(syms), K * nbytes), dtype=np.uint8)
        np.add.at(table.reshape(-1), row[hit] * (K * nbytes) + (at >> 3),
                  np.left_shift(1, at & 7).astype(np.uint8))
        words = [int.from_bytes(r, "little") for r in table]
        pv, mv = (0 if fitting else mask), 0
        for eq in map(words.__getitem__,
                      np.searchsorted(syms, P).tolist()):
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | (mask ^ (xh | pv))
            mh = pv & xh
            ph = (ph << 1) | carry
            mv = ph & xv
            pv = ((mh << 1) | (mask ^ (xv | ph))) & mask
        # The last vertical deltas are the steps of the last rows.
        bits = np.unpackbits(np.frombuffer(
            pv.to_bytes(K * nbytes, "little")
            + mv.to_bytes(K * nbytes, "little"), dtype=np.uint8),
            bitorder="little").view(np.int8).reshape(2, K, -1)
        rows = np.empty((K, ncols + 1), dtype=np.int64)
        rows[:, 0] = m
        rows[:, 1:] = bits[0, :, :ncols] - bits[1, :, :ncols]
        rows.cumsum(axis=1, out=rows)
        return [rows[k, :n + 1] for k, n in enumerate(lens)]


def myers_levenshtein(a: StringLike, b: StringLike) -> int:
    """Exact edit distance via Myers' bit-parallel algorithm.

    Equivalent to :func:`repro.strings.levenshtein`, ledger included;
    the bit-vectors span the *second* argument.
    """
    return int(myers_last_rows(a, [b])[0][-1])
