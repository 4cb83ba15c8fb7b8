"""Extension: MPC longest common subsequence (the dual problem).

The paper frames edit distance/LCS and Ulam distance/LIS as dual pairs
(§1), and the baseline it improves (HSS SODA'19) treats LCS alongside
edit distance with the same block/candidate machinery.  This module
applies this repository's machinery to LCS:

* blocks of ``s`` × a ``G``-gridded set of candidate windows of ``t``
  (starting points ``G`` apart, geometric window lengths);
* one shared LCS DP row per (block, starting point) gives every
  endpoint's exact LCS at once;
* a combining DP selects a monotone chain *maximising* the summed LCS —
  gaps are free, because skipping characters costs nothing in LCS.

Guarantee: the result never exceeds the true LCS (every chain is an
explicit common subsequence) and misses it by at most an additive
``O(ε·n)`` — each of the ``n^y`` blocks loses at most the grid slack
``2G = 2εB`` matched characters.  That is the HSS-style additive-``λn``
regime: the answer is a ``(1-O(ε))`` multiplicative approximation
whenever the LCS is ``Ω(n)``.  Two rounds, same memory discipline as the
main algorithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..chain import Tuple5, TupleTable, shipping_cap
from ..mpc.accounting import RunStats, add_work
from ..mpc.plan import Pipeline, RoundSpec
from ..mpc.simulator import MPCSimulator
from ..strings.types import StringLike, as_array

__all__ = ["LcsResult", "mpc_lcs", "run_lcs_block_machine",
           "combine_lcs_tuples"]


def _lcs_last_row(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row ``j`` ↦ ``lcs(a, b[:j])`` (vectorised, running-max trick)."""
    m, n = len(a), len(b)
    add_work(max(m, 1) * max(n, 1))
    row = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, m + 1):
        eq = (b == a[i - 1]).astype(np.int64)
        t = np.maximum(row[1:], row[:-1] + eq)
        cur = np.empty(n + 1, dtype=np.int64)
        cur[0] = 0
        cur[1:] = t
        np.maximum.accumulate(cur, out=cur)
        row = cur
    return row


def run_lcs_block_machine(payload: Dict[str, object]) -> TupleTable:
    """Round-1 machine: one block vs the windows of several starts.

    Output: ``⟨block, window, lcs⟩`` tuples with a positive LCS, capped
    per block at the highest-value, shortest-window *top_k*.
    """
    lo = int(payload["lo"])
    hi = int(payload["hi"])
    block: np.ndarray = payload["block"]        # type: ignore
    text: np.ndarray = payload["text"]          # type: ignore
    text_off = int(payload["text_off"])
    starts: List[int] = payload["starts"]       # type: ignore
    lengths: List[int] = payload["lengths"]     # type: ignore
    n_t = int(payload["n_t"])
    top_k: Optional[int] = payload["top_k"]     # type: ignore

    # One LCS row per start serves all of its windows (row-major).
    ep = np.minimum(np.add.outer(starts, lengths), n_t)
    v = np.concatenate([
        _lcs_last_row(block, text[sp - text_off:e.max() - text_off])[e - sp]
        for sp, e in zip(starts, ep)])
    keep = v > 0
    return TupleTable.from_columns(
        lo, hi, np.repeat(starts, len(lengths))[keep], ep.ravel()[keep],
        v[keep]).capped(top_k, largest=True)


def combine_lcs_tuples(tuples: Union[TupleTable, Sequence[Tuple5]],
                       n_s: int, n_t: int) -> int:
    """Round-2 DP: maximum summed LCS over a monotone tuple chain.

    Gaps cost nothing (LCS skips for free), so the DP is a pure weighted
    chain maximisation — a different objective from the edit-distance
    chain of :mod:`repro.chain`; the empty chain scores 0.  Tuples given
    as a list are checked (:meth:`TupleTable.checked`).
    """
    table = TupleTable.checked(tuples, n_s, n_t)
    if not len(table):
        return 0
    rows = table.rows[np.lexsort((table.rows[:, 2], table.rows[:, 0]))]
    L, R, SP, EP, V = (np.ascontiguousarray(col) for col in rows.T)
    m = len(rows)
    add_work(m * m)
    best = np.empty(m, dtype=np.int64)
    for a in range(m):
        value = V[a]
        if a > 0:
            ok = (R[:a] <= L[a]) & (EP[:a] <= SP[a])
            if ok.any():
                value = max(value,
                            int(np.where(ok, best[:a], 0).max()) + V[a])
        best[a] = value
    return int(best.max())


def _run_combine(payload: Dict[str, object]) -> int:
    return combine_lcs_tuples(payload["tuples"],      # type: ignore
                              int(payload["n_s"]), int(payload["n_t"]))


@dataclass
class LcsResult:
    """Outcome of one MPC LCS execution."""

    lcs: int
    n: int
    x: float
    eps: float
    stats: RunStats
    n_tuples: int

    def summary(self) -> Dict[str, object]:
        out = {"lcs": self.lcs, "n": self.n, "x": self.x,
               "eps": self.eps, "n_tuples": self.n_tuples}
        out.update(self.stats.summary())
        return out


def mpc_lcs(s: StringLike, t: StringLike, x: float = 0.25,
            eps: float = 0.25, sim: Optional[MPCSimulator] = None,
            top_k: Optional[int] = 256) -> LcsResult:
    """Approximate ``lcs(s, t)`` in two MPC rounds.

    Parameters mirror :func:`repro.mpc_edit_distance`.  The result is a
    certified *lower* bound on the true LCS (every chain is an explicit
    common subsequence) with additive error ``O(ε·n)`` — a ``1-O(ε)``
    factor whenever the LCS is a constant fraction of ``n``.
    """
    S, T = as_array(s), as_array(t)
    n, n_t = len(S), len(T)
    if n == 0 or n_t == 0:
        return LcsResult(lcs=0, n=n, x=x, eps=eps, stats=RunStats(),
                         n_tuples=0)
    if not 0 < x < 1:
        raise ValueError("x must lie in (0, 1)")
    if eps <= 0:
        raise ValueError("eps must be positive")

    B = max(1, int(round(n ** (1 - x))))
    gap = max(1, int(eps * B))
    polylog = max(math.log2(n), 1.0)
    memory_limit = int(8 * B * polylog / min(eps, 1.0) ** 2) + 64
    if sim is None:
        sim = MPCSimulator(memory_limit=memory_limit)

    # window lengths: geometric around B, capped at 2B (longer windows
    # monotonically help LCS but block later chain links)
    lengths = sorted({B} | {
        max(1, B + off) for off in
        [int(math.ceil((1 + eps) ** a)) for a in range(0, 64)]
        if B + off <= 2 * B
    } | {
        max(1, B - off) for off in
        [int(math.ceil((1 + eps) ** a)) for a in range(0, 64)]
        if B - off >= 1
    })
    max_len = max(lengths)

    budget = max((sim.memory_limit or 10 ** 9) - 2 * B - 64,
                 max_len + gap)
    starts_per_machine = max(1, (budget - max_len) // gap)
    top_k = shipping_cap(top_k, sim.memory_limit, -(-n // B))

    payloads = []
    for lo in range(0, n, B):
        hi = min(lo + B, n)
        starts = list(range(0, n_t + 1, gap)) or [0]
        for i in range(0, len(starts), starts_per_machine):
            chunk = starts[i:i + starts_per_machine]
            text_off = chunk[0]
            text_end = min(chunk[-1] + max_len, n_t)
            payloads.append({
                "lo": lo, "hi": hi, "block": S[lo:hi],
                "text": T[text_off:text_end], "text_off": text_off,
                "starts": chunk,
            })

    # Per-block cap across machines.
    pipe = Pipeline(sim)
    tuples = pipe.round(RoundSpec(
        "lcs/1-block-windows", run_lcs_block_machine,
        partitioner=lambda _: payloads,
        broadcast={"lengths": lengths, "n_t": n_t, "top_k": top_k},
        collector=lambda outs, _: TupleTable.concat(outs).capped(
            top_k, largest=True)))
    value = pipe.round(RoundSpec(
        "lcs/2-combine", _run_combine,
        partitioner=lambda tups: [{"tuples": tups, "n_s": n, "n_t": n_t}],
        collector=lambda outs, _: outs[0]), tuples)
    return LcsResult(lcs=int(value), n=n, x=x, eps=eps,
                     stats=sim.stats.snapshot(), n_tuples=len(tuples))
