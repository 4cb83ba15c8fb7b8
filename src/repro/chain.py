"""Round-output tuple tables and the one combining DP over them.

Every MPC algorithm here ends the same way: round 1 emits
``⟨[ℓ, r), [γ, κ), d⟩`` tuples — a block of ``s``, a window of ``s̄``
and a score — and one machine chains them into a full transformation
with the paper's combining DP (Algorithm 2 for Ulam, Algorithm 4 and the
§5.2.3 overlap rule for edit distance; CGKS'18 chains window tuples the
same way).  This module is the one home of that format: the
:class:`TupleTable`, the two tuple caps and the DP.

Gap rules of the DP (all coordinates 0-based half-open; a chain is
ordered by ``ℓ`` and a tuple ``b`` may precede ``a`` only if
``r_b ≤ ℓ_a``):

``"max"`` (Algorithm 2)
    substitute the overlap, delete/insert the imbalance: head
    ``max(ℓ, γ)`` (the paper's ``max{ℓ_i-1, γ-1}``), gap
    ``max(ℓ_a - r_b, γ_a - κ_b)`` with ``κ_b ≤ γ_a``, tail
    ``max(n_s - r, n_t - κ)``.
``"sum"`` (Algorithm 4, §5.1.2)
    delete the skipped part of ``s``, insert the skipped part of ``s̄``:
    the same with ``+`` for ``max``.
``"overlap"`` (§5.2.3, the large-distance phase 4)
    ``"sum"``, except that consecutive windows may intersect as long as
    they stay ordered by start (``γ_b ≤ γ_a``), "adding the cost of
    removing the common part": the prefix transformation already emitted
    ``s̄`` up to ``κ_b``, so the duplicated region ``[γ_a, κ_b)`` is
    deleted again, and the gap is ``(ℓ_a - r_b) + |γ_a - κ_b|``.

Every rule prices an explicit transformation, so every DP value is a
valid upper bound on the true distance; the empty chain (``max(n_s,
n_t)`` resp. ``n_s + n_t``) is always available.

The DP is charged ``O(m²)`` work for ``m`` tuples, as Algorithm 2 states
it, but runs as one vector step per group of tuples sharing ``ℓ``: what
an earlier tuple costs a group's rows is one or two linear pieces of
``γ``, each on a run of those rows, and one running minimum or reverse
sparse table per piece takes the minimum over every earlier tuple at
once.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .mpc.accounting import add_work

__all__ = ["Tuple5", "WORDS_PER_TUPLE", "TupleTable", "shipping_cap",
           "chain_tuples", "combine_tuples", "run_combine_machine"]

#: ``(block_lo, block_hi, win_lo, win_hi, score)`` — all half-open.
Tuple5 = Tuple[int, int, int, int, int]

#: MPC words per shipped tuple: five integers plus the tuple's framing
#: word (:func:`repro.mpc.sizeof.sizeof` of a 5-tuple).
WORDS_PER_TUPLE = 6


class TupleTable:
    """``k`` tuples ``(ℓ, r, γ, κ, d)`` as a C-contiguous ``(k, 5)`` int64
    array (:attr:`rows`).

    The constructor trusts its rows: machines build tables from arrays
    they computed.  Rows from callers go through :meth:`checked` instead.
    Iteration yields 5-tuples of Python ints and a table equals the list
    of those tuples, so ``for lo, hi, sp, ep, d in table`` reads it like
    the tuple list it replaces.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Union[np.ndarray, Sequence[Tuple5]] = ()
                 ) -> None:
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        if rows.size == 0:
            rows = rows.reshape(0, 5)
        if rows.ndim != 2 or rows.shape[1] != 5:
            raise ValueError(f"tuple rows must have shape (k, 5), "
                             f"got {rows.shape}")
        self.rows = rows

    @classmethod
    def from_columns(cls, lo, hi, sp, ep, d) -> "TupleTable":
        """Table from five columns; scalars broadcast (one block's ``ℓ``,
        ``r``)."""
        return cls(np.column_stack(np.broadcast_arrays(lo, hi, sp, ep, d)))

    @classmethod
    def concat(cls, tables: Iterable[Optional["TupleTable"]]
               ) -> "TupleTable":
        """The rows of *tables* in order.

        ``None`` entries — machines a ``"drop"`` retry policy gave up on —
        contribute nothing: their candidates are only pruned.
        """
        parts = [t.rows for t in tables if t is not None]
        return cls(np.concatenate(parts) if parts else ())

    @classmethod
    def checked(cls, tuples: Union["TupleTable", Sequence[Tuple5]],
                n_s: int, n_t: int) -> "TupleTable":
        """A table of *tuples* given by a caller, for strings of lengths
        *n_s* and *n_t*.

        Raises ``ValueError`` unless every tuple is a block ``0 ≤ ℓ ≤ r ≤
        n_s``, a window ``0 ≤ γ ≤ κ ≤ n_t`` and a score ``d ≥ 0`` — a
        chain of anything else is not a transformation, and its DP value
        not an upper bound.  A :class:`TupleTable` was built by a machine
        and passes unchecked.
        """
        if isinstance(tuples, cls):
            return tuples
        table = cls(tuples)
        lo, hi, sp, ep, d = table.rows.T
        bad = ((lo < 0) | (lo > hi) | (hi > n_s) | (sp < 0) | (sp > ep)
               | (ep > n_t) | (d < 0))
        if bad.any():
            row = tuple(table.rows[int(np.argmax(bad))].tolist())
            raise ValueError(
                f"tuple {row} is not ⟨[ℓ, r), [γ, κ), d⟩ with "
                f"0 ≤ ℓ ≤ r ≤ {n_s}, 0 ≤ γ ≤ κ ≤ {n_t} and d ≥ 0")
        return table

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return map(tuple, self.rows.tolist())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TupleTable):
            return np.array_equal(self.rows, other.rows)
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"TupleTable({list(self)!r})"

    def __reduce__(self):
        # Rows are string positions and distances: pickle them in the
        # narrowest integer type that holds them (the constructor widens
        # back to int64), so shipping a table between processes costs no
        # more bytes than the tuple list it replaces.
        span = (self.rows.min(), self.rows.max()) if self.rows.size else (0,)
        dtype = np.result_type(*map(np.min_scalar_type, span))
        return TupleTable, (self.rows.astype(dtype),)

    def __mpc_size__(self) -> int:
        """MPC words of the list of 5-tuples this table stands for."""
        return 1 + WORDS_PER_TUPLE * len(self.rows)

    def capped(self, top_k: Optional[int]) -> "TupleTable":
        """The stable per-block top-k cap.

        Every block (rows sharing ``ℓ``) keeps its *top_k* best rows by
        ``(d, κ - γ)``, smallest first: a short window of the same
        distance leaves more room for the rest of the chain.  Ties keep
        row order.  A table with no block over the cap is returned as it
        is; otherwise the rows come out ordered by ``(ℓ, d, κ - γ)``.
        """
        if top_k is None or len(self) <= top_k:
            return self
        lo, _, sp, ep, d = self.rows.T
        order = np.lexsort((ep - sp, d, lo))
        lo_sorted = lo[order]
        rank = np.arange(len(order)) - np.searchsorted(lo_sorted, lo_sorted)
        if rank.max() < top_k:
            return self
        return TupleTable(self.rows[order[rank < top_k]])


def shipping_cap(top_k: Optional[int], memory_limit: Optional[int],
                 n_blocks: int) -> Optional[int]:
    """Per-block tuple cap for a combining machine of *memory_limit* words.

    The combining machine must hold every shipped tuple, so each of the
    *n_blocks* blocks ships at most what half of its memory holds
    (:data:`WORDS_PER_TUPLE` words per tuple), and never more than
    *top_k* (``None``: uncapped).  Without a memory limit *top_k* stands.
    """
    if memory_limit is None:
        return top_k
    budget = max(1, (memory_limit // 2) // (WORDS_PER_TUPLE * n_blocks))
    return budget if top_k is None else min(top_k, budget)


def chain_tuples(tuples: Union[TupleTable, Sequence[Tuple5]], n_s: int,
                 n_t: int, mode: str = "max") -> Tuple[int, List[Tuple5]]:
    """The combining DP: the cheapest monotone chain of *tuples*.

    *mode* is the gap rule (``"max"``, ``"sum"`` or ``"overlap"``; see
    the module docstring).  Returns ``(cost, chain)`` with ``chain`` the
    selected tuples in order; an empty chain means the trivial
    transformation won.  Tuples given as a list are checked
    (:meth:`TupleTable.checked`).

    The charged work is ``O(m²)`` in the number of tuples, as Algorithm 2
    states it.  The run takes one vector step per *group* of tuples —
    a run of equal ``ℓ`` in ``(ℓ, γ)`` order, closed after a zero-length
    block — since no tuple of a group can precede another, and every
    earlier tuple's value is final by then.  Overlapping and empty
    blocks need nothing else.  Tuples are taken in stable ``(ℓ, γ)``
    order, and ties between equally cheap predecessors go to the first
    in that order: every minimum is taken over ``value·2^S + index``.
    """
    if mode not in ("max", "sum", "overlap"):
        raise ValueError(f"unknown gap mode {mode!r}")
    empty_chain = max(n_s, n_t) if mode == "max" else n_s + n_t
    table = TupleTable.checked(tuples, n_s, n_t)
    m = len(table)
    if m == 0:
        return empty_chain, []
    rows = table.rows[np.lexsort((table.rows[:, 2], table.rows[:, 0]))]
    L, R, SP, EP, D = (np.ascontiguousarray(col) for col in rows.T)
    add_work(m * m)

    # Every chain through a tuple costs at least its score, and every
    # head is at most the empty chain: a tuple scoring that much never
    # improves a successor, so capping scores there changes no parent
    # and no returned cost.  It bounds every DP value by 2·empty_chain,
    # and the guard keeps the packed keys below clear of int64 overflow.
    shift = m.bit_length()
    if (n_s + n_t) << (shift + 3) >= 1 << 62:
        raise ValueError(f"strings of lengths {n_s} and {n_t} are too "
                         f"long to chain {m} tuples")
    D = np.minimum(D, empty_chain)
    best = (np.maximum(L, SP) if mode == "max" else L + SP) + D
    parent = np.full(m, -1, dtype=np.int64)
    # Chaining b → a costs best_b + gap(b, a) + d_a; the part of the gap
    # that depends on a alone is added after the minimum.
    enter = {"max": 0 * L, "sum": L + SP, "overlap": L}[mode]
    starts = np.flatnonzero(np.r_[True, (L[1:] != L[:-1])
                                  | (L[:-1] == R[:-1])])
    for g0, g1 in zip(starts.tolist(), starts[1:].tolist() + [m]):
        pred = np.flatnonzero(R[:g0] <= L[g0])
        if not pred.size:
            continue
        packed = _cheapest_predecessors(mode, int(L[g0]), SP[g0:g1], best,
                                        R, SP, EP, pred, shift)
        value = (packed >> shift) + enter[g0:g1] + D[g0:g1]
        better = value < best[g0:g1]
        best[g0:g1] = np.where(better, value, best[g0:g1])
        parent[g0:g1] = np.where(better, packed & ((1 << shift) - 1),
                                 parent[g0:g1])

    if mode == "max":
        tails = np.maximum(n_s - R, n_t - EP)
    else:
        tails = (n_s - R) + np.maximum(n_t - EP, 0)
    totals = best + tails
    a = int(totals.argmin())
    cost = int(totals[a])
    if cost >= empty_chain:
        return empty_chain, []
    picked: List[int] = []
    while a != -1:
        picked.append(a)
        a = int(parent[a])
    return cost, list(map(tuple, rows[picked[::-1]].tolist()))


#: Packed key of "no predecessor": above every real key, with room to
#: add or subtract a shifted window start without wrapping.
_NO_KEY = 1 << 62


def _cheapest_predecessors(mode: str, ell: int, sp: np.ndarray,
                           best: np.ndarray, R: np.ndarray, SP: np.ndarray,
                           EP: np.ndarray, pred: np.ndarray, shift: int
                           ) -> np.ndarray:
    """For each row of one group — block start *ell*, window starts *sp*
    in ascending order — the cheapest predecessor among rows *pred*, as
    the packed key ``(best_b + gap(b, a) − enter_a)·2^shift + b``.

    Each predecessor's cost is one linear piece of ``γ_a`` on a run of
    the group's rows (a run of slots), so every rule is a few
    :func:`_cover_min` calls over those runs:

    * sum: ``best_b − r_b − κ_b`` for rows with ``γ_a ≥ κ_b``;
    * max: with the block gap ``c = ℓ − r_b``, ``best_b + c`` while
      ``κ_b ≤ γ_a ≤ κ_b + c``, then ``best_b − κ_b + γ_a``;
    * overlap: ``best_b − r_b − κ_b + γ_a`` once ``γ_a ≥ κ_b``, and
      ``best_b − r_b + κ_b − γ_a`` for ``γ_b ≤ γ_a < κ_b``.
    """
    b_best, b_r, b_ep = best[pred], R[pred], EP[pred]
    q = len(sp)
    at_sp = sp << shift

    def cover(values, lo, hi=None):
        return _cover_min((values << shift) | pred, lo, q, hi)

    after = np.searchsorted(sp, b_ep, "left")   # first row with γ_a ≥ κ_b
    if mode == "sum":
        return cover(b_best - b_r - b_ep, after)
    if mode == "max":
        far = np.searchsorted(sp, b_ep + ell - b_r, "right")
        return np.minimum(cover(b_best + ell - b_r, after, far),
                          cover(b_best - b_ep, far) + at_sp)
    leave = b_best - b_r
    return np.minimum(
        cover(leave - b_ep, after) + at_sp,
        cover(leave + b_ep, np.searchsorted(sp, SP[pred], "left"), after)
        - at_sp)


def _cover_min(keys: np.ndarray, lo: np.ndarray, q: int,
               hi: Optional[np.ndarray] = None) -> np.ndarray:
    """Per slot ``i < q``, ``min(keys[j] : lo_j ≤ i < hi_j)`` (:data:`_NO_KEY`
    where no run covers it); without *hi* every run reaches the last slot.

    A run to the end is a running minimum from its first slot.  Other
    runs are written at the two power-of-two spans that tile them (a
    sparse table in reverse); halving the spans level by level then
    brings every minimum down to single slots.
    """
    if hi is None:
        out = np.full(q + 1, _NO_KEY)
        np.minimum.at(out, lo, keys)
        return np.minimum.accumulate(out[:q])
    span = hi - lo
    hit = span > 0
    if not hit.any():
        return np.full(q, _NO_KEY)
    keys, lo, span = keys[hit], lo[hit], span[hit]
    level = np.frexp(span)[1] - 1          # ⌊log2 span⌋
    table = np.full((int(level.max()) + 1, q), _NO_KEY)
    np.minimum.at(table, (level, lo), keys)
    np.minimum.at(table, (level, lo + span - (1 << level)), keys)
    for j in range(len(table) - 1, 0, -1):
        w = 1 << (j - 1)
        np.minimum(table[j - 1], table[j], out=table[j - 1])
        np.minimum(table[j - 1, w:], table[j, :-w], out=table[j - 1, w:])
    return table[0]


def combine_tuples(tuples: Union[TupleTable, Sequence[Tuple5]], n_s: int,
                   n_t: int, mode: str = "max") -> int:
    """Cost of the cheapest chain of *tuples* (see :func:`chain_tuples`)."""
    return chain_tuples(tuples, n_s, n_t, mode)[0]


def run_combine_machine(payload: Dict[str, object]) -> int:
    """Combining machine (single machine, every tuple): the chain cost.

    ``payload["tuples"]`` is a :class:`TupleTable` or, when the driver
    published its rows on a data plane, their resolved flat view.
    ``payload["mode"]`` is the gap rule; edit-distance rounds send
    ``payload["allow_overlap"]`` instead (``"overlap"`` or ``"sum"``),
    the payload their ledgers were recorded with.
    """
    tuples = payload["tuples"]
    if isinstance(tuples, np.ndarray):
        tuples = TupleTable(tuples.reshape(-1, 5))
    if "mode" in payload:
        mode = str(payload["mode"])
    else:
        mode = "overlap" if payload["allow_overlap"] else "sum"
    return combine_tuples(tuples, int(payload["n_s"]),     # type: ignore
                          int(payload["n_t"]), mode=mode)
