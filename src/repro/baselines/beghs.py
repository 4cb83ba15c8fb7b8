"""BEGHS'18-style MPC edit distance — Table 1 row 3, implemented.

Boroujeni–Ehsani–Ghodsi–HajiAghayi–Seddighin (SODA'18) gave the first
MPC edit-distance algorithm: a ``1+ε`` approximation in ``O(log n)``
rounds with ``Õ_ε(n^(8/9))`` machines of memory ``Õ_ε(n^(8/9))``.  Its
engine is a balanced divide-and-conquer over ``s`` with quantised
windows of ``s̄``:

* ``s`` is halved recursively down to base segments of size
  ``~n^(8/9)`` (configurable);
* every node (segment ``[a, b)``) of the recursion tree gets the window
  set ``{(st, en) : st, en ∈ g·Z, |st - a| ≤ D, |en - b| ≤ D}`` for the
  current distance guess ``D`` — if ``ed(s, s̄) ≤ D``, *every* segment's
  true image has both endpoints within ``D`` of the segment's own
  position (the prefix-imbalance bound), and putting both endpoints on
  one absolute grid makes parent windows split exactly into child
  windows at grid points;
* the base level computes exact distances (one shared DP row per start);
* each upper level is one MPC round: a parent's value is
  ``min over grid split m of V_left(st, m) + V_right(m, en)``, where the
  split is searched only within ``D`` of the left child's diagonal;
* the root's value at the full window ``(0, n_t)`` answers the guess,
  and the driver doubles ``D`` until accepted.

Quantisation costs an additive ``O(g)`` per segment boundary of the
optimal decomposition (there are ``#leaves + 1`` of them), so the grid
is ``g = max(1, ⌊ε·D / (4·#leaves)⌋)``, keeping the total inside
``ε·D`` — the driver then guarantees ``1 + O(ε)`` overall, which the
tests measure.  Rounds are ``1 + depth = O(log n)``; window counts per
node are ``O((D/g)²)``.

This file exists so that *every* row of Table 1 is a measured
implementation rather than an analytic formula (benchmark E16).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..mpc.accounting import RunStats, add_work
from ..mpc.plan import Pipeline, RoundSpec
from ..mpc.simulator import MPCSimulator
from ..params import check_eps
from ..strings.edit_distance import levenshtein_last_row
from ..strings.types import INF, as_array

__all__ = ["BeghsResult", "beghs_edit_distance"]

#: A node of the halving tree: half-open segment of ``s``.
Node = Tuple[int, int]


def _grid_points(lo: int, hi: int, g: int, n_t: int) -> List[int]:
    """Absolute multiples of ``g`` in ``[lo, hi] ∩ [0, n_t]``, plus the
    text boundaries when they fall inside the range (so the full-text
    window is always expressible)."""
    lo = max(lo, 0)
    hi = min(hi, n_t)
    if hi < lo:
        return []
    first = ((lo + g - 1) // g) * g
    pts = set(range(first, hi + 1, g))
    if lo == 0:
        pts.add(0)
    if hi == n_t:
        pts.add(n_t)
    return sorted(pts)


def _windows_for(node: Node, D: int, g: int, n_t: int
                 ) -> List[Tuple[int, int]]:
    a, b = node
    outs = []
    ens_all = _grid_points(b - D, b + D, g, n_t)
    for st in _grid_points(a - D, a + D, g, n_t):
        for en in ens_all:
            if en >= st:
                outs.append((st, en))
    return outs


def _base_payload(S: np.ndarray, T: np.ndarray, node: Node,
                  glist: List[Tuple[int, List[int]]]) -> Dict[str, object]:
    a, b = node
    lo = min(st for st, _ in glist)
    hi = max(max(ens) for _, ens in glist)
    return {"segment": S[a:b], "text": T[lo:hi], "text_off": lo,
            "groups": glist}


def _run_base_machine(payload: Dict[str, object]) -> np.ndarray:
    """Base level: exact distances, one shared DP row per start."""
    seg: np.ndarray = payload["segment"]             # type: ignore
    text: np.ndarray = payload["text"]               # type: ignore
    text_off = int(payload["text_off"])
    groups: List[Tuple[int, List[int]]] = payload["groups"]  # type: ignore
    out: List[int] = []
    for st, ens in groups:
        row = levenshtein_last_row(seg, text[st - text_off:
                                             max(ens) - text_off])
        for en in ens:
            out.append(int(row[en - st]))
    return np.asarray(out, dtype=np.int64)


def _run_combine_machine(payload: Dict[str, object]) -> np.ndarray:
    """Upper level: parent value = min over grid splits of left + right.

    Child tables arrive as flat ``(st, en, value)`` arrays (cheap to ship
    and to size); the machine builds its own lookup.
    """
    left_arr: np.ndarray = payload["left"]                # type: ignore
    right_arr: np.ndarray = payload["right"]              # type: ignore
    jobs: List[Tuple[int, int, List[int]]] = payload["jobs"]  # type: ignore
    left = {(int(a), int(b)): int(v) for a, b, v in left_arr}
    right = {(int(a), int(b)): int(v) for a, b, v in right_arr}
    out: List[int] = []
    for st, en, splits in jobs:
        best = INF
        for m in splits:
            lv = left.get((st, m))
            rv = right.get((m, en))
            if lv is not None and rv is not None and lv + rv < best:
                best = lv + rv
        add_work(len(splits))
        out.append(int(best))
    return np.asarray(out, dtype=np.int64)


@dataclass
class BeghsResult:
    """Outcome of one BEGHS-style execution."""

    distance: int
    n: int
    eps: float
    stats: RunStats
    accepted_guess: Optional[int]
    depth: int
    per_guess: List[Dict[str, object]] = field(default_factory=list)

    def summary(self) -> Dict[str, object]:
        out = {"distance": self.distance, "n": self.n, "eps": self.eps,
               "depth": self.depth,
               "accepted_guess": self.accepted_guess}
        out.update(self.stats.summary())
        return out


def _tree_levels(n: int, base_size: int) -> List[List[Node]]:
    """Halving tree of ``range(n)``; ``levels[0]`` is the base layer."""
    levels: List[List[Node]] = [[(0, n)]]
    while levels[-1][0][1] - levels[-1][0][0] > base_size and \
            levels[-1][0][1] - levels[-1][0][0] > 1:
        nxt: List[Node] = []
        for a, b in levels[-1]:
            mid = (a + b) // 2
            nxt.extend([(a, mid), (mid, b)])
        levels.append(nxt)
    levels.reverse()
    return levels


def beghs_edit_distance(s, t, eps: float = 1.0,
                        base_exponent: float = 8.0 / 9.0,
                        sim: Optional[MPCSimulator] = None) -> BeghsResult:
    """``(1+O(ε))``-approximate ``ed(s, t)`` in ``O(log n)`` MPC rounds.

    ``base_exponent`` sets the base segment size ``n^(8/9)`` (the BEGHS
    machine-memory regime).  Returns a certified upper bound (every value
    is the cost of an explicit transformation assembled from exact base
    distances and concatenations).
    """
    S, T = as_array(s), as_array(t)
    n, n_t = len(S), len(T)
    check_eps(eps)
    if n == 0 or n_t == 0:
        return BeghsResult(distance=n + n_t, n=n, eps=eps,
                           stats=RunStats(), accepted_guess=None, depth=0)

    base_size = max(2, int(round(n ** base_exponent)))
    levels = _tree_levels(n, base_size)
    depth = len(levels) - 1
    polylog = max(math.log2(max(n, 2)), 1.0)
    # A combine machine holds two child window tables; the per-node
    # window count is bounded by (2D/g + 3)^2 <= (8·#leaves/eps + 3)^2
    # regardless of the guess (the grid scales with D).
    n_leaves = len(levels[0])
    max_windows = (int(8 * n_leaves / min(eps, 1.0)) + 3) ** 2
    memory_limit = int(16 * base_size * polylog / min(eps, 1.0) ** 2
                       + 12 * max_windows) + 64
    if sim is None:
        sim = MPCSimulator(memory_limit=memory_limit)

    if n == n_t and bool(np.array_equal(S, T)):
        return BeghsResult(distance=0, n=n, eps=eps,
                           stats=sim.stats.snapshot(),
                           accepted_guess=0, depth=depth)

    best: Optional[int] = None
    accepted: Optional[int] = None
    per_guess: List[Dict[str, object]] = []

    guess = max(1, abs(n - n_t))
    while True:
        D = guess
        g = max(1, int(eps * D / (4 * n_leaves)))
        sub = sim.spawn()
        values = _run_one_guess(S, T, levels, D, g, sub)
        sim.absorb(sub)
        bound = values.get((0, n_t))
        bound = int(bound) if bound is not None and bound < INF \
            else n + n_t
        bound = min(bound, n + n_t)
        per_guess.append({"guess": D, "bound": bound, "grid": g,
                          "accepted": bound <= (1 + eps) * D})
        if best is None or bound < best:
            best = bound
        if bound <= (1 + eps) * D:
            accepted = D
            break
        if D >= n + n_t:
            break
        guess = min(2 * D, n + n_t)

    assert best is not None
    return BeghsResult(distance=int(best), n=n, eps=eps,
                       stats=sim.stats.snapshot(),
                       accepted_guess=accepted, depth=depth,
                       per_guess=per_guess)


def _run_one_guess(S: np.ndarray, T: np.ndarray,
                   levels: List[List[Node]], D: int, g: int,
                   sim: MPCSimulator) -> Dict[Tuple[int, int], int]:
    """Execute base + combine rounds for one distance guess."""
    n, n_t = len(S), len(T)
    mem = sim.memory_limit or (1 << 60)

    # ---- base level ------------------------------------------------------
    base_values: Dict[Node, Dict[Tuple[int, int], int]] = {}
    payloads = []
    layouts = []
    for node in levels[0]:
        a, b = node
        wins = _windows_for(node, D, g, n_t)
        if (0, n_t) == (a, b) == (0, n):  # single-level tree edge case
            wins = sorted(set(wins) | {(0, n_t)})
        groups: Dict[int, List[int]] = {}
        for st, en in wins:
            groups.setdefault(st, []).append(en)
        glist = sorted((st, sorted(ens)) for st, ens in groups.items())
        # pack groups into machines by text footprint + output size
        cur: List[Tuple[int, List[int]]] = []
        cur_in, cur_out = b - a, 0
        for st, ens in glist:
            gin = max(ens) - st + 2
            gout = len(ens)
            if cur and (cur_in + gin > mem - 64 or cur_out + gout
                        > mem - 64):
                payloads.append(_base_payload(S, T, node, cur))
                layouts.append((node, cur))
                cur, cur_in, cur_out = [], b - a, 0
            cur.append((st, ens))
            cur_in += gin
            cur_out += gout
        if cur:
            payloads.append(_base_payload(S, T, node, cur))
            layouts.append((node, cur))
    def collect_base(outs, _state):
        for out, (node, glist) in zip(outs, layouts):
            if out is None:     # dropped machine: windows pruned
                continue
            table = base_values.setdefault(node, {})
            k = 0
            for st, ens in glist:
                for en in ens:
                    table[(st, en)] = int(out[k])
                    k += 1
        return base_values

    pipe = Pipeline(sim)
    pipe.round(RoundSpec(f"beghs/base(D={D})", _run_base_machine,
                         partitioner=lambda _: payloads,
                         collector=collect_base))

    # ---- combine levels --------------------------------------------------
    values = base_values
    for li in range(1, len(levels)):
        parent_values: Dict[Node, Dict[Tuple[int, int], int]] = {}
        payloads = []
        layouts2 = []
        for node in levels[li]:
            a, b = node
            mid = (a + b) // 2
            left = values.get((a, mid), {})
            right = values.get((mid, b), {})
            left_arr = np.asarray([(st, en, v) for (st, en), v
                                   in left.items()], dtype=np.int64)
            right_arr = np.asarray([(st, en, v) for (st, en), v
                                    in right.items()], dtype=np.int64)
            jobs = []
            wins = _windows_for(node, D, g, n_t)
            if (a, b) == (0, n) and (0, n_t) not in wins:
                wins.append((0, n_t))
            split_grid = _grid_points(mid - D, mid + D, g, n_t)
            for st, en in wins:
                if en < st:
                    continue
                splits = [m for m in split_grid if st <= m <= en]
                jobs.append((st, en, splits))
            # chunk jobs so tables + jobs fit in memory: each table
            # entry is ~5 words, each job ~5 + |splits| words
            table_words = 3 * (len(left) + len(right)) + 64
            budget = max(mem - table_words, 256)
            chunk: List[Tuple[int, int, List[int]]] = []
            used = 0
            for job in jobs:
                jw = 5 + len(job[2])
                if chunk and used + jw > budget:
                    payloads.append({"left": left_arr, "right": right_arr,
                                     "jobs": chunk})
                    layouts2.append((node, chunk))
                    chunk, used = [], 0
                chunk.append(job)
                used += jw
            if chunk:
                payloads.append({"left": left_arr, "right": right_arr,
                                 "jobs": chunk})
                layouts2.append((node, chunk))
        def collect_level(outs, _state, layouts2=layouts2,
                          parent_values=parent_values):
            for out, (node, chunk) in zip(outs, layouts2):
                if out is None:     # dropped machine: windows pruned
                    continue
                table = parent_values.setdefault(node, {})
                for (st, en, _splits), v in zip(chunk, out.tolist()):
                    prev = table.get((st, en))
                    if prev is None or v < prev:
                        table[(st, en)] = int(v)
            return parent_values

        values = pipe.round(RoundSpec(f"beghs/combine-l{li}(D={D})",
                                      _run_combine_machine,
                                      partitioner=lambda _: payloads,
                                      collector=collect_level,
                                      allow_empty=True))

    return values.get(levels[-1][0], {})
