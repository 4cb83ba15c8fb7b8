"""The grouped combining DP equals the per-tuple reference loop.

:func:`reference_chain` is the combining DP as one NumPy step per tuple,
each over every earlier tuple — the direct reading of Algorithms 2 and 4
and the §5.2.3 overlap rule.  :func:`repro.chain.chain_tuples` runs one
vector step per group of tuples instead; both must pick the same cost
*and* the same chain (ties go to the first predecessor in ``(ℓ, γ)``
order), on arbitrary tuple sets as well as block-partitioned ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import TupleTable, chain_tuples
from repro.mpc import WorkMeter

MODES = ("max", "sum", "overlap")

_INF = np.iinfo(np.int64).max // 4


def reference_chain(tuples, n_s, n_t, mode="max"):
    """The combining DP, one step per tuple over every earlier tuple."""
    empty_chain = max(n_s, n_t) if mode == "max" else n_s + n_t
    table = TupleTable.checked(tuples, n_s, n_t)
    m = len(table)
    if m == 0:
        return empty_chain, []
    rows = table.rows[np.lexsort((table.rows[:, 2], table.rows[:, 0]))]
    L, R, SP, EP, D = (np.ascontiguousarray(col) for col in rows.T)

    best = (np.maximum(L, SP) if mode == "max" else L + SP) + D
    parent = np.full(m, -1, dtype=np.int64)
    win_order = SP if mode == "overlap" else EP
    exit_cost, enter = {"max": (0 * L, 0 * L), "sum": (R + EP, L + SP),
                        "overlap": (R, L)}[mode]
    leave = best - exit_cost
    for a in range(1, m):
        ok = (R[:a] <= L[a]) & (win_order[:a] <= SP[a])
        if mode == "max":
            step = leave[:a] + np.maximum(L[a] - R[:a], SP[a] - EP[:a])
        elif mode == "sum":
            step = leave[:a]
        else:
            step = leave[:a] + np.abs(SP[a] - EP[:a])
        cand = np.where(ok, step, _INF)
        k = int(cand.argmin())
        value = int(cand[k]) + int(enter[a]) + int(D[a])
        if value < best[a]:
            best[a] = value
            leave[a] = value - exit_cost[a]
            parent[a] = k

    if mode == "max":
        tails = np.maximum(n_s - R, n_t - EP)
    else:
        tails = (n_s - R) + np.maximum(n_t - EP, 0)
    totals = best + tails
    a = int(totals.argmin())
    cost = int(totals[a])
    if cost >= empty_chain:
        return empty_chain, []
    picked = []
    while a != -1:
        picked.append(a)
        a = int(parent[a])
    return cost, list(map(tuple, rows[picked[::-1]].tolist()))


@st.composite
def arbitrary_tuples(draw):
    """Any valid tuples over small coordinates: dense ties, overlapping
    blocks and zero-length blocks and windows."""
    n_s, n_t = draw(st.integers(0, 10)), draw(st.integers(0, 10))
    span = st.tuples(st.integers(0, n_s), st.integers(0, n_s),
                     st.integers(0, n_t), st.integers(0, n_t),
                     st.integers(0, 4))
    tuples = [(min(a, b), max(a, b), min(c, e), max(c, e), d)
              for a, b, c, e, d in draw(st.lists(span, max_size=16))]
    return tuples, n_s, n_t


@st.composite
def partitioned_tuples(draw):
    """Blocks that partition ``s``, each with several windows."""
    n_s, n_t = draw(st.integers(1, 24)), draw(st.integers(0, 24))
    cuts = sorted(set(draw(st.lists(st.integers(1, n_s - 1), max_size=5))
                      if n_s > 1 else []))
    edges = [0] + cuts + [n_s]
    tuples = []
    for lo, hi in zip(edges, edges[1:]):
        for _ in range(draw(st.integers(0, 6))):
            sp = draw(st.integers(0, n_t))
            ep = draw(st.integers(sp, n_t))
            tuples.append((lo, hi, sp, ep, draw(st.integers(0, 5))))
    order = draw(st.permutations(range(len(tuples))))
    return [tuples[i] for i in order], n_s, n_t


class TestGroupedEqualsReference:
    @given(case=arbitrary_tuples(), mode=st.sampled_from(MODES))
    @settings(max_examples=400, deadline=None)
    def test_arbitrary_tuples(self, case, mode):
        tuples, n_s, n_t = case
        assert chain_tuples(tuples, n_s, n_t, mode) == \
            reference_chain(tuples, n_s, n_t, mode)

    @given(case=partitioned_tuples(), mode=st.sampled_from(MODES))
    @settings(max_examples=400, deadline=None)
    def test_partitioned_tuples(self, case, mode):
        tuples, n_s, n_t = case
        assert chain_tuples(tuples, n_s, n_t, mode) == \
            reference_chain(tuples, n_s, n_t, mode)

    def test_large_scores_keep_the_reference_chain(self):
        # A score past the empty chain never improves a successor; one
        # near the int64 range must not wrap the packed keys.
        tuples = [(0, 2, 0, 2, 2 ** 60), (2, 4, 2, 4, 0), (0, 2, 0, 1, 1),
                  (4, 6, 4, 6, 10 ** 12)]
        for mode in MODES:
            assert chain_tuples(tuples, 6, 6, mode) == \
                reference_chain(tuples, 6, 6, mode)


class TestRealisticSize:
    """About 1500 tuples over 6 blocks, the size of an ``n = 1024`` query."""

    @staticmethod
    def _tuples(rng, n=1024, blocks=6, per_block=250):
        edges = np.linspace(0, n, blocks + 1).astype(int)
        rows = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            sp = np.clip(lo + rng.integers(-40, 41, per_block), 0, n)
            ep = np.clip(sp + (hi - lo) + rng.integers(-40, 41, per_block),
                         sp, n)
            d = rng.integers(0, 60, per_block)
            rows.append(np.column_stack(np.broadcast_arrays(lo, hi, sp, ep,
                                                            d)))
        return TupleTable(np.concatenate(rows)), n

    def test_matches_reference_and_charges_m_squared(self, rng):
        table, n = self._tuples(rng)
        m = len(table)
        for mode in MODES:
            with WorkMeter() as meter:
                got = chain_tuples(table, n, n, mode)
            assert meter.total == m * m
            assert got == reference_chain(table, n, n, mode)
            assert got[1], "the chain should use tuples"


def test_rejects_lengths_past_the_packed_key_range():
    # Every minimum is over value·2^S + index in int64: lengths that
    # could wrap it are refused instead of chained wrongly.
    with pytest.raises(ValueError, match="too long"):
        chain_tuples([(0, 1, 0, 1, 0)], 2 ** 58, 2 ** 58, "sum")
