"""Myers' bit-parallel last-row DP, lane-packed across texts.

Myers (JACM 1999) encodes a DP column in two bit-vectors of vertical
deltas (+1 / −1) and advances one text character per step with a dozen
word operations; Hyyrö's global variant shifts a carry bit into the
horizontal positive vector, realising ``D[0][j] = j``, and a zero carry
realises the free start ``D[0][j] = 0`` of the fitting row.  Python's
unbounded integers act as arbitrary-width words.

:func:`myers_last_rows` packs K texts against one pattern into one word:
lane ``k`` holds bits ``[k·W, (k+1)·W)`` with ``W = 8·(m//8 + 1)``, so
every lane has a guard bit and is byte-aligned.  Each column's Eq word
is one ``int.from_bytes`` of a NumPy gather, the add is masked per lane
so no carry crosses lanes, short lanes are padded with a symbol that
matches nothing, and only each lane's high bit of ``Ph``/``Mh`` is kept
and decoded at the end.  This is the one last-row kernel: the scalar
entry points are batches of one, and a small-regime block machine
(Algorithm 3) runs all its starting points as one batch.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

import numpy as np

from ..mpc.accounting import charge
from .types import StringLike, as_array

__all__ = ["myers_last_rows", "myers_levenshtein", "myers_last_row",
           "myers_fitting_row"]


def _cells(m: int, n: int) -> int:
    """Ledger cells of one last row: the full table, plus the Myers scan
    for patterns of 96+ symbols (the figure the goldens pin)."""
    if m == 0 or n == 0:
        return max(m, 1) * max(n, 1)
    return m * n + (n * (1 + m // 64) if m >= 96 and n >= 8 else 0)


def _eq_words(P: np.ndarray, texts: List[np.ndarray], ncols: int,
              nbytes: int) -> Iterator[int]:
    """Packed Eq word of every column, lazily: bit ``i`` of lane ``k`` is
    set iff ``texts[k][j] == P[i]``."""
    if len(texts) == 1:
        peq: dict = {}
        for i, ch in enumerate(P.tolist()):
            peq[ch] = peq.get(ch, 0) | (1 << i)
        return (peq.get(ch, 0) for ch in texts[0].tolist())
    # One byte row per pattern symbol plus a zero row for every other
    # symbol and for the padding of short lanes; column j gathers row
    # codes[k, j] into lane k.  Row r is the one-hot of the positions of
    # syms[r] in P, packed little-endian.
    syms = np.unique(P)
    none = len(syms)
    onehot = np.zeros((none + 1, 8 * nbytes), dtype=np.uint8)
    onehot[:none, :len(P)] = syms[:, None] == P
    table = np.packbits(onehot, axis=1, bitorder="little")
    flat = np.concatenate(texts)
    idx = np.searchsorted(syms, flat)
    hit = syms[np.minimum(idx, none - 1)] == flat
    codes = np.full((len(texts), ncols), none, dtype=np.intp)
    codes[np.arange(ncols) < np.array([len(T) for T in texts])[:, None]] = \
        np.where(hit, idx, none)
    data = memoryview(table[codes.T].reshape(-1))
    stride, from_bytes = len(texts) * nbytes, int.from_bytes
    return (from_bytes(data[i:i + stride], "little")
            for i in range(0, ncols * stride, stride))


def _score_steps(groups: List[int], K: int, nbytes: int, m: int
                 ) -> np.ndarray:
    """Unfold the high bits of :func:`myers_last_rows`: word ``g`` holds
    column ``g·m + c`` at bit ``m−1−c`` of every lane.  Returns a
    ``(len(groups)·m, K)`` 0/1 array, one row per column."""
    buf = b"".join(g.to_bytes(K * nbytes, "little") for g in groups)
    bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8).reshape(
        len(groups), K, nbytes), axis=2, bitorder="little")
    return bits[:, :, m - 1::-1].transpose(0, 2, 1).reshape(-1, K)


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
        if m == 0:
            return [np.arange(n + 1, dtype=np.int64) * (not fitting)
                    for n in lens]
        nbytes = m // 8 + 1                 # lane width W = 8·nbytes bits
        lanes = range(0, 8 * nbytes * K, 8 * nbytes)
        mask = sum(((1 << m) - 1) << s for s in lanes)
        carry = 0 if fitting else sum(1 << s for s in lanes)
        hi = sum(1 << (m - 1 + s) for s in lanes)
        pv, mv = mask, 0
        # Only each lane's high bit of Ph / Mh (the score step of the
        # last DP row) is kept: m columns share one word, column c of a
        # group shifted down to bit m−1−c of its lane.
        hp: List[int] = []
        hm: List[int] = []
        acc_p = acc_m = shift = 0
        for eq in _eq_words(P, Ts, ncols, nbytes):
            xv = eq | mv
            xh = ((((eq & pv) + pv) & mask) ^ pv) | eq
            ph = mv | (mask ^ (xh | pv))
            mh = pv & xh
            acc_p |= (ph & hi) >> shift
            acc_m |= (mh & hi) >> shift
            shift += 1
            if shift == m:
                hp.append(acc_p)
                hm.append(acc_m)
                acc_p = acc_m = shift = 0
            ph = ((ph << 1) | carry) & mask
            mh = (mh << 1) & mask
            pv = mh | (mask ^ (xv | ph))
            mv = ph & xv
        hp.append(acc_p)
        hm.append(acc_m)
        steps = _score_steps(hp + hm, K, nbytes, m).astype(np.int64)
        rows = np.full((ncols + 1, K), m, dtype=np.int64)
        np.cumsum(steps[:ncols] - steps[len(hp) * m:len(hp) * m + ncols],
                  axis=0, out=rows[1:])
        rows[1:] += m
        return [rows[:n + 1, k] for k, n in enumerate(lens)]


def myers_last_row(a: StringLike, b: StringLike) -> np.ndarray:
    """``j ↦ ed(a, b[:j])`` — a batch of one of :func:`myers_last_rows`."""
    return myers_last_rows(a, [b])[0]


def myers_fitting_row(a: StringLike, b: StringLike) -> np.ndarray:
    """``j ↦ min over g ≤ j of ed(a, b[g:j])`` — a batch of one of
    :func:`myers_last_rows` in fitting mode (Myers' matching variant)."""
    return myers_last_rows(a, [b], fitting=True)[0]


def myers_levenshtein(a: StringLike, b: StringLike) -> int:
    """Exact edit distance via Myers' bit-parallel algorithm.

    Equivalent to :func:`repro.strings.levenshtein`, ledger included;
    the bit-vectors span the *first* argument.
    """
    return int(myers_last_row(a, b)[-1])
