"""Large-distance regime (§5.2): Algorithms 5–7 + phase-4 DP, four rounds.

Round 1 (Algorithm 5) samples representative nodes and computes their
distances to every node of ``G_τ``; the driver then generates, for every
block, the triangle-inequality edges of Lemma 7 (dense nodes get their
whole neighbourhood, false positives stretch at most ``3τ``).

Round 2 (Algorithm 6) samples blocks with a shared-seed coin; a sampled
block that is *not* covered by a representative (sparse at its relevant
thresholds) computes its distance to every one of its candidate
substrings.

Round 3 (Algorithm 7) *extends* each sampled sparse block's close
candidates to the other blocks of its larger (``n^(1-y')``-sized) block:
if ``s[ℓ_i, r_i)`` maps near ``s̄[γ, κ)``, then a sibling ``s[ℓ_j, r_j)``
maps near ``s̄[γ + (ℓ_j - ℓ_i), κ + (r_j - r_i))`` — those shifted pairs
get exact distances.

Round 4 chains everything with the overlap-tolerant combining DP.

Performance note: candidate-substring nodes that share a starting point
are nested prefixes of one text slice, so rounds 1–2 evaluate each
(string, start-group) with a *single* Wagner–Fischer last row and read
off every endpoint — exactly the paper's distances, a large constant
factor cheaper than per-pair DPs.
"""

from __future__ import annotations

import math
from typing import Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from ..chain import TupleTable, run_combine_machine
from ..metrics import get_registry
from ..mpc.distcache import cached_batch, distance_cache, pair_key
from ..mpc.plan import Pipeline, RoundSpec
from ..mpc.shm import DataPlane
from ..mpc.simulator import MPCSimulator
from ..params import EditParams
from ..service.runner import drive
from ..strings.approx import make_inner
from ..strings.banded import levenshtein_doubling_batch
from ..strings.edit_distance import levenshtein_last_row
from .config import EditConfig
from .graph import NodeId, RepDistances, build_candidate_nodes

__all__ = ["run_rep_distance_machine", "run_pair_distance_machine",
           "run_block_vs_groups_machine", "large_distance_phases",
           "large_distance_upper_bound", "group_candidates_by_start"]

_M_REPS = get_registry().counter("edit.large.representatives")
_M_SPARSE_BLOCKS = get_registry().counter("edit.large.sparse_blocks")
_M_EXT_PAIRS = get_registry().counter("edit.large.ext_pairs")
_M_TUPLES_DENSE = get_registry().counter("edit.candidate_tuples",
                                         regime="large", phase="dense")
_M_TUPLES_SPARSE = get_registry().counter("edit.candidate_tuples",
                                          regime="large", phase="sparse")
_M_TUPLES_EXT = get_registry().counter("edit.candidate_tuples",
                                       regime="large", phase="extension")

#: ``(start, [end, ...])`` — all candidate nodes sharing one start.
CsGroup = Tuple[int, List[int]]


def group_candidates_by_start(cs_nodes: Sequence[NodeId]
                              ) -> List[CsGroup]:
    """Group candidate-substring nodes by starting point (sorted)."""
    groups: Dict[int, List[int]] = {}
    for kind, st, en in cs_nodes:
        if kind != "c":  # pragma: no cover - caller passes cs nodes only
            raise ValueError("expected candidate nodes")
        groups.setdefault(st, []).append(en)
    return [(st, sorted(ens)) for st, ens in sorted(groups.items())]


def _solver_pair_distances(pairs: List[Tuple[np.ndarray, np.ndarray]],
                           solver_kind: str, eps_inner: float) -> List[int]:
    """Inner-solver distances for explicit (string, window) pairs.

    Cache misses are evaluated as one batch (through
    :func:`~repro.mpc.distcache.cached_batch`): one
    :func:`levenshtein_doubling_batch` call for the ``banded`` solver,
    one solver call per pair otherwise.
    """
    solver = make_inner(solver_kind, eps_inner)

    def key_of(pair: Tuple[np.ndarray, np.ndarray]) -> Tuple:
        return pair_key("ed-pair", pair[0], pair[1], solver_kind, eps_inner)

    evaluate = levenshtein_doubling_batch if solver_kind == "banded" \
        else (lambda misses: [solver(a, b) for a, b in misses])
    return cached_batch(distance_cache(), pairs, key_of, evaluate)


def run_rep_distance_machine(payload: Dict[str, object]) -> np.ndarray:
    """Algorithm 5: distances from a representative chunk to a node chunk.

    Nodes arrive in two shapes: explicit ``(node_id, array)`` pairs (block
    nodes) and start-grouped candidate slices (one shared DP row each).
    Returns a flat ``int64`` array of distances in deterministic
    (rep-major, block-nodes-then-group-endpoints) order; the driver — who
    built the payload — reconstructs the (rep, node) pairing.  Shipping
    one word per distance keeps the machine output within its memory cap.
    """
    solver_kind = str(payload["solver"])
    eps_inner = float(payload["eps_inner"])
    reps: List[Tuple[int, np.ndarray]] = payload["reps"]       # type: ignore
    blocks: List[Tuple[NodeId, np.ndarray]] = payload["blocks"]  # type: ignore
    groups: List[Tuple[int, np.ndarray, List[int]]] = \
        payload["cs_groups"]                                   # type: ignore
    # All (rep, block) pairs batch as one kernel call (rep-major
    # order, matching the output layout); the start-grouped candidate
    # slices keep their shared-last-row evaluation, which is already one
    # kernel call per group.
    pair_dists = _solver_pair_distances(
        [(rep_arr, node_arr) for _, rep_arr in reps
         for _, node_arr in blocks], solver_kind, eps_inner)
    out: List[object] = []
    k = 0
    for rep_idx, rep_arr in reps:
        out.append(pair_dists[k:k + len(blocks)])
        k += len(blocks)
        out.extend(levenshtein_last_row(rep_arr, seg)[np.subtract(ens, st)]
                   for st, seg, ens in groups)
    return np.concatenate(out).astype(np.int64)


def run_block_vs_groups_machine(payload: Dict[str, object]) -> np.ndarray:
    """Algorithm 6 distance part: one block vs grouped candidates.

    Returns a flat distance array in group-endpoint order (the driver
    reconstructs the windows from its payload bookkeeping).
    """
    block: np.ndarray = payload["block"]                       # type: ignore
    groups: List[Tuple[int, np.ndarray, List[int]]] = \
        payload["cs_groups"]                                   # type: ignore
    return np.concatenate(
        [np.zeros(0, dtype=np.int64)]
        + [levenshtein_last_row(block, seg)[np.subtract(ens, st)]
           for st, seg, ens in groups])


def run_pair_distance_machine(payload: Dict[str, object]) -> np.ndarray:
    """Algorithm 7: exact distances for explicit (block, window) pairs.

    Returns a flat distance array in item order.
    """
    solver_kind = str(payload["solver"])
    eps_inner = float(payload["eps_inner"])
    out = _solver_pair_distances(
        [(block_arr, win_arr)
         for _, _, block_arr, _, _, win_arr in payload["items"]],  # type: ignore
        solver_kind, eps_inner)
    return np.asarray(out, dtype=np.int64)


def large_distance_phases(S: np.ndarray, T: np.ndarray,
                          params: EditParams, guess: int,
                          sim: MPCSimulator, config: EditConfig,
                          seed: int = 0,
                          round_prefix: str = "ed-large",
                          plane: Optional[DataPlane] = None
                          ) -> Generator[str, None,
                                         Tuple[int, Dict[str, int]]]:
    """Resumable form of the four-round large-distance algorithm.

    A generator executing one MPC round per step (yielding the round's
    name after it completes) and returning ``(upper_bound,
    diagnostics)`` via ``StopIteration``; the bound is the cost of an
    explicit transformation (always valid) and approximates
    ``ed(S, T) ≤ guess`` within ``3+ε`` w.h.p. (Lemma 8).  The service
    layer steps it round by round; :func:`large_distance_upper_bound`
    is the one-shot wrapper — both execute identical rounds.

    *plane* is an optional data plane with ``S``/``T`` already published
    (see :func:`repro.editdistance.driver.mpc_edit_distance`): payloads
    then carry slice descriptors instead of array copies.
    """
    n, n_t = len(S), len(T)
    if plane is not None:
        def s_part(lo: int, hi: int):
            return plane.slice("S", lo, hi)

        def t_part(lo: int, hi: int):
            return plane.slice("T", lo, hi)
    else:
        def s_part(lo: int, hi: int):
            return S[lo:hi]

        def t_part(lo: int, hi: int):
            return T[lo:hi]

    def node_part(node: NodeId):
        # Block nodes live in S, candidate nodes in T (see graph.node_string).
        kind, a, b = node
        return s_part(a, b) if kind == "b" else t_part(a, b)

    rng = np.random.default_rng(seed)
    B = params.block_size_large
    gap = params.gap(guess, B)
    eps_prime = params.eps_prime

    block_nodes: List[NodeId] = [("b", lo, min(lo + B, n))
                                 for lo in range(0, n, B)]
    cs_nodes = build_candidate_nodes(n_t, B, gap, guess, eps_prime)
    all_nodes = block_nodes + cs_nodes
    cs_groups_all = group_candidates_by_start(cs_nodes)
    max_len = int(B / eps_prime)

    def group_payload_entries(groups: Sequence[CsGroup]
                              ) -> List[Tuple[int, np.ndarray, List[int]]]:
        return [(st, t_part(st, max(st, min(max(ens), n_t))), list(ens))
                for st, ens in groups]

    # ---- round 1: representatives --------------------------------------
    p_rep = min(1.0, config.rep_rate_constant
                * math.log(max(n, 2)) / params.degree_threshold)
    rep_mask = rng.random(len(all_nodes)) < p_rep
    rep_ids = [i for i in range(len(all_nodes)) if rep_mask[i]]
    if config.max_representatives is not None \
            and len(rep_ids) > config.max_representatives:
        rep_ids = sorted(rng.choice(rep_ids,
                                    size=config.max_representatives,
                                    replace=False))
    if not rep_ids:
        rep_ids = [int(rng.integers(0, len(all_nodes)))]

    # Chunking honours both budgets: input words (strings shipped) and
    # output words (one distance per (rep, endpoint) pair).
    in_budget = max(params.memory_limit - 64, 2 * max_len + 2)
    out_budget = max(params.memory_limit - 64, 8)
    strings_per_machine = max(4, in_budget // max(max_len, 1))
    rep_chunk = max(1, strings_per_machine // 2)

    payloads = []
    layouts: List[Tuple[List[int], List[NodeId], List[CsGroup]]] = []
    for ri in range(0, len(rep_ids), rep_chunk):
        rids = rep_ids[ri:ri + rep_chunk]
        rchunk = [(i, node_part(all_nodes[i])) for i in rids]
        rep_words = sum(max(len(a), 1) for _, a in rchunk)
        first = True

        def flush(gchunk: List[CsGroup], bchunk: List[NodeId]) -> None:
            payloads.append({
                "reps": rchunk,
                "blocks": [(b, node_part(b)) for b in bchunk],
                "cs_groups": group_payload_entries(gchunk)})
            layouts.append((rids, list(bchunk), list(gchunk)))

        gchunk: List[CsGroup] = []
        in_words = rep_words + len(block_nodes) * B
        out_words = len(rids) * len(block_nodes)
        for st, ens in cs_groups_all:
            g_in = max(ens) - st + 4
            g_out = len(rids) * len(ens)
            if gchunk and (in_words + g_in > in_budget
                           or out_words + g_out > out_budget):
                flush(gchunk, block_nodes if first else [])
                first = False
                gchunk, in_words, out_words = [], rep_words, 0
            gchunk.append((st, ens))
            in_words += g_in
            out_words += g_out
        flush(gchunk, block_nodes if first else [])

    pipe = Pipeline(sim)
    solver_blob = {"solver": config.rep_solver,
                   "eps_inner": config.eps_inner}

    def collect_repdist(outs: List[object], _state: object) -> RepDistances:
        if len(outs) != len(layouts):  # pragma: no cover - sim contract
            raise AssertionError("round-1 output/layout count mismatch")
        repdist = RepDistances()
        for out, (rids, bchunk, gchunk) in zip(outs, layouts):
            if out is None:  # dropped machine (retry policy "drop")
                continue
            k = 0
            for rep_idx in rids:
                for node_id in bchunk:
                    repdist.add(node_id, rep_idx, int(out[k]))
                    k += 1
                for st, ens in gchunk:
                    for en in ens:
                        repdist.add(("c", st, en), rep_idx, int(out[k]))
                        k += 1
            if k != len(out):  # pragma: no cover - layout invariant
                raise AssertionError("round-1 output layout mismatch")
        return repdist

    repdist = pipe.round(RoundSpec(
        f"{round_prefix}/1-representatives", run_rep_distance_machine,
        partitioner=lambda _: payloads,
        broadcast=solver_blob,
        collector=collect_repdist))
    yield f"{round_prefix}/1-representatives"

    edge_tuples = TupleTable([
        (b[1], b[2], u[1], u[2], w)
        for (b, u), w in repdist.triangle_edges(block_nodes,
                                                cs_nodes).items()
    ]).capped(config.phase2_top_k)
    _M_REPS.inc(len(rep_ids))
    _M_TUPLES_DENSE.inc(len(edge_tuples))

    # ---- round 2: sampled sparse blocks --------------------------------
    exponent = (params.y_large - params.y_prime)  # = 0.4x
    denom = (n ** exponent) * (guess / n)
    p_low = min(1.0, config.low_rate_constant
                * (math.log(max(n, 2)) ** 2) / (eps_prime ** 2) / denom) \
        if denom > 0 else 1.0
    coins = rng.random(len(block_nodes))
    sampled = [i for i in range(len(block_nodes)) if coins[i] < p_low]
    cap_low = config.max_low_degree_samples
    if cap_low is not None and len(sampled) > cap_low:
        sampled = sorted(rng.choice(sampled, size=cap_low, replace=False))

    payloads = []
    # Per machine: its block and its candidates' (start, end) columns in
    # group-endpoint order, the order of its distance array.
    layouts2: List[Tuple[int, int, np.ndarray, np.ndarray]] = []

    def add_sample_machine(lo: int, hi: int, gchunk: List[CsGroup]) -> None:
        payloads.append({"lo": lo, "hi": hi, "block": s_part(lo, hi),
                         "cs_groups": group_payload_entries(gchunk)})
        layouts2.append((
            lo, hi,
            np.repeat([st for st, _ in gchunk], [len(e) for _, e in gchunk]),
            np.array([en for _, ens in gchunk for en in ens])))

    for i in sampled:
        _, lo, hi = block_nodes[i]
        mine = [(st, ens) for st, ens in cs_groups_all
                if abs(st - lo) <= guess]
        gchunk: List[CsGroup] = []
        in_words, out_words = B, 0
        for st, ens in mine:
            g_in = max(ens) - st + 4
            g_out = len(ens)
            if gchunk and (in_words + g_in > in_budget
                           or out_words + g_out > out_budget):
                add_sample_machine(lo, hi, gchunk)
                gchunk, in_words, out_words = [], B, 0
            gchunk.append((st, ens))
            in_words += g_in
            out_words += g_out
        if gchunk:
            add_sample_machine(lo, hi, gchunk)

    def collect_direct(outs: List[object], _state: object) -> TupleTable:
        if len(outs) != len(layouts2):  # pragma: no cover - sim contract
            raise AssertionError("round-2 output/layout count mismatch")
        # A dropped machine's (None) candidates are pruned.
        return TupleTable.concat(
            None if out is None
            else TupleTable.from_columns(lo, hi, sp, ep, out)
            for out, (lo, hi, sp, ep) in zip(outs, layouts2))

    direct_tuples = pipe.round(RoundSpec(
        f"{round_prefix}/2-sparse-samples", run_block_vs_groups_machine,
        partitioner=lambda _: payloads,
        collector=collect_direct,
        allow_empty=True))
    yield f"{round_prefix}/2-sparse-samples"
    _M_SPARSE_BLOCKS.inc(len(sampled))
    _M_TUPLES_SPARSE.inc(len(direct_tuples))

    # ---- round 3: extension of sparse pairs ----------------------------
    larger_B = params.larger_block_size
    degree_cap = config.max_extensions_per_pair_source
    if degree_cap is None:
        degree_cap = params.degree_threshold
    direct = direct_tuples.rows
    ext_pairs: List[Tuple[int, int, int, int]] = []
    seen_pairs = set()
    for i in sampled:
        _, lo_i, hi_i = block_nodes[i]
        tau_i = repdist.nearest_rep_distance(block_nodes[i])
        mine = direct[direct[:, 0] == lo_i]
        mine = mine[np.argsort(mine[:, 4], kind="stable")]
        # Only thresholds below the rep-coverage point need the sparse
        # path (at tau >= tau_i the block was handled by a representative),
        # and a sparse node has at most n^alpha close candidates.
        if tau_i is not None:
            mine = mine[mine[:, 4] < tau_i]
        group = lo_i // larger_B
        for (_, _, st, en, d) in mine[:degree_cap].tolist():
            for bj in block_nodes:
                _, lo_j, hi_j = bj
                if lo_j // larger_B != group or lo_j == lo_i:
                    continue
                st_j = max(0, min(st + (lo_j - lo_i), n_t))
                en_j = max(st_j, min(en + (hi_j - hi_i), n_t))
                key = (lo_j, hi_j, st_j, en_j)
                if key not in seen_pairs:
                    seen_pairs.add(key)
                    ext_pairs.append(key)

    pairs_per_machine = max(1, params.memory_limit // max(2 * max_len, 1))
    payloads = []
    pair_chunks: List[np.ndarray] = []    # (lo, hi, st, en) rows
    for pi in range(0, len(ext_pairs), pairs_per_machine):
        chunk = ext_pairs[pi:pi + pairs_per_machine]
        pair_chunks.append(np.array(chunk, dtype=np.int64))
        payloads.append({
            "items": [(lo, hi, s_part(lo, hi), st, en, t_part(st, en))
                      for (lo, hi, st, en) in chunk]})

    def collect_ext(outs: List[object], _state: object) -> TupleTable:
        if len(outs) != len(pair_chunks):  # pragma: no cover - sim contract
            raise AssertionError("round-3 output/chunk count mismatch")
        # A dropped machine's (None) candidates are pruned.
        return TupleTable.concat(
            None if out is None else TupleTable(np.column_stack((chunk, out)))
            for out, chunk in zip(outs, pair_chunks))

    ext_tuples = pipe.round(RoundSpec(
        f"{round_prefix}/3-extension", run_pair_distance_machine,
        partitioner=lambda _: payloads,
        broadcast=solver_blob,
        collector=collect_ext,
        allow_empty=True))
    yield f"{round_prefix}/3-extension"
    _M_EXT_PAIRS.inc(len(ext_pairs))
    _M_TUPLES_EXT.inc(len(ext_tuples))

    # ---- round 4: combining DP ------------------------------------------
    all_tuples = TupleTable.concat(
        [edge_tuples, direct_tuples, ext_tuples]).capped(config.phase2_top_k)
    bound = pipe.round(RoundSpec(
        f"{round_prefix}/4-combine", run_combine_machine,
        partitioner=lambda tups: [{"tuples": tups, "n_s": n, "n_t": n_t,
                                   "allow_overlap": True}],
        collector=lambda outs, _: outs[0]), all_tuples)
    yield f"{round_prefix}/4-combine"
    diag = {
        "n_nodes": len(all_nodes),
        "n_reps": len(rep_ids),
        "n_sampled_blocks": len(sampled),
        "n_edge_tuples": len(edge_tuples),
        "n_direct_tuples": len(direct_tuples),
        "n_ext_tuples": len(ext_tuples),
        "n_tuples": len(all_tuples),
    }
    return int(min(bound, n + n_t)), diag


def large_distance_upper_bound(S: np.ndarray, T: np.ndarray,
                               params: EditParams, guess: int,
                               sim: MPCSimulator, config: EditConfig,
                               seed: int = 0,
                               round_prefix: str = "ed-large",
                               plane: Optional[DataPlane] = None
                               ) -> Tuple[int, Dict[str, int]]:
    """Run the four-round large-distance algorithm for one guess.

    One-shot wrapper over :func:`large_distance_phases`; see there for
    the guarantee and the *plane* contract.
    """
    return drive(large_distance_phases(S, T, params, guess, sim, config,
                                       seed=seed, round_prefix=round_prefix,
                                       plane=plane))
