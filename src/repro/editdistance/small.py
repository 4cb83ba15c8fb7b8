"""Small-distance regime (§5.1): Algorithm 3 + Algorithm 4, two rounds.

For a distance guess ``n^δ ≤ n^(1-x/5)``, blocks have size ``B = n^(1-x)``
and candidate starting points span ``[ℓ_i - n^δ, ℓ_i + n^δ]`` on a
``G``-grid.  The machine-count saving over HSS'19 (§5.1.1) comes from
packing *consecutive* starting points of one block onto one machine: the
machine's feed is the block plus one contiguous slice
``s̄[γ_1, γ_η + B/ε']`` covering all of its candidates, so
``Õ_ε(n^δ)/n^(1-x)`` machines per block suffice instead of one machine
per (block, candidate) pair.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from ..chain import TupleTable, run_combine_machine
from ..metrics import get_registry
from ..mpc.distcache import cached_batch, distance_cache
from ..mpc.plan import Pipeline, RoundSpec
from ..mpc.shm import DataPlane
from ..mpc.simulator import MPCSimulator
from ..params import EditParams
from ..service.runner import drive
from ..strings.approx import make_inner
from ..strings.bitparallel import myers_last_rows
from .candidates import candidate_windows, length_offsets, start_grid
from .config import EditConfig

__all__ = ["run_small_block_machine", "small_distance_phases",
           "small_distance_upper_bound"]

_M_WINDOWS = get_registry().counter("edit.candidate_windows", regime="small")
_M_TUPLES = get_registry().counter("edit.candidate_tuples", regime="small")


def run_small_block_machine(payload: Dict[str, object]) -> TupleTable:
    """Algorithm 3: one block vs the candidates of several starting points.

    Payload carries the block, one contiguous text slice covering every
    candidate of the machine's starting points, and the endpoint-offset
    schedule.  Output: ``⟨block, candidate, distance⟩`` tuples.

    Two inner modes:

    * ``"row"`` (default) — all candidates sharing a starting point are
      prefixes of one text slice, so a single last DP row gives every
      endpoint's exact distance at once: ``O(B·B/ε')`` per starting
      point instead of per candidate.  All rows share the block as
      pattern, so one :func:`~repro.strings.myers_last_rows` sweep
      serves every starting point.  Exact, and empirically ~50× faster
      than per-pair solving.
    * ``"cgks"`` / ``"exact"`` / ``"banded"`` — per-pair solvers (the
      paper's configuration; kept for the E11 ablation).
    """
    lo = int(payload["lo"])
    hi = int(payload["hi"])
    block: np.ndarray = payload["block"]            # type: ignore
    text: np.ndarray = payload["text"]              # type: ignore
    text_off = int(payload["text_off"])
    starts: List[int] = payload["starts"]           # type: ignore
    offsets: List[int] = payload["offsets"]         # type: ignore
    eps_prime = float(payload["eps_prime"])
    n_t = int(payload["n_t"])
    inner_kind = str(payload["inner"])
    top_k: Optional[int] = payload["top_k"]         # type: ignore

    B = hi - lo
    cache = distance_cache()
    block_key = block.tobytes() if cache is not None else b""

    def feed(st: int, en: int) -> np.ndarray:
        seg = text[st - text_off:en - text_off]
        if len(seg) != en - st:  # pragma: no cover - invariant
            raise AssertionError("machine feed does not cover candidate")
        return seg

    # Jobs are windows (st, en, end), end being the last end among the
    # windows of st.
    if inner_kind == "row":
        # One lane per start, its row running to ``end``; the content
        # key of window (st, en) is the prefix bytes, and a start all
        # of whose windows hit gets no lane.
        def key_of(job: Tuple[int, int, int]) -> Tuple:
            return ("ed-row", block_key, feed(job[0], job[1]).tobytes())

        def evaluate(jobs: List[Tuple[int, int, int]]) -> np.ndarray:
            if not jobs:
                return np.zeros(0, dtype=np.int64)
            spans = {st: end for st, _, end in jobs}
            rows = myers_last_rows(block, [feed(st, end)
                                           for st, end in spans.items()])
            base = dict(zip(spans, np.cumsum([0] + [len(r) for r in rows])))
            return np.concatenate(rows)[[base[st] + en - st
                                         for st, en, _ in jobs]]
    else:
        eps_inner = float(payload["eps_inner"])
        inner = make_inner(inner_kind, eps_inner)

        def key_of(job: Tuple[int, int, int]) -> Tuple:
            return ("ed-pair", inner_kind, eps_inner, block_key,
                    feed(job[0], job[1]).tobytes())

        def evaluate(jobs: List[Tuple[int, int, int]]) -> List[int]:
            return [int(inner(block, feed(st, en))) for st, en, _ in jobs]

    # One evaluation per machine; with the distance cache on, only the
    # misses reach it (:func:`~repro.mpc.distcache.cached_batch`).
    windows = [win for sp in starts
               for win in candidate_windows(sp, B, offsets, eps_prime, n_t)]
    _M_WINDOWS.inc(len(windows))
    ends: Dict[int, int] = {}
    for st, en in windows:
        ends[st] = max(ends.get(st, st), en)
    jobs = [(st, en, ends[st]) for st, en in windows]
    dists = np.asarray(evaluate(jobs) if cache is None
                       else cached_batch(cache, jobs, key_of, evaluate),
                       dtype=np.int64)
    win = np.array(windows, dtype=np.int64).reshape(-1, 2)
    tuples = TupleTable.from_columns(lo, hi, win[:, 0], win[:, 1],
                                     dists).capped(top_k)
    _M_TUPLES.inc(len(tuples))
    return tuples


def small_distance_phases(S: np.ndarray, T: np.ndarray,
                          params: EditParams, guess: int,
                          sim: MPCSimulator, config: EditConfig,
                          round_prefix: str = "ed-small",
                          plane: Optional[DataPlane] = None
                          ) -> Generator[str, None, Tuple[int, int]]:
    """Resumable form of the two-round small-distance algorithm.

    A generator that executes one MPC round per step, yielding the
    round's name after it completes, and returning ``(upper_bound,
    n_tuples)`` via ``StopIteration``.  The service layer drives it one
    round at a time (so admission control can bound in-flight machine
    work between rounds); :func:`small_distance_upper_bound` drives it
    to completion for the one-shot path.  Both paths execute the exact
    same rounds against the same simulator, so ledgers are identical.

    *plane* is an optional data plane with ``S``/``T`` already published
    (see :func:`repro.editdistance.driver.mpc_edit_distance`): payloads
    then carry slice descriptors instead of array copies.
    """
    n = len(S)
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
    n_t = len(T)
    B = params.block_size_small
    gap = params.gap(guess, B)
    offsets = length_offsets(B, guess, params.eps_prime)
    max_len = int(B / params.eps_prime)

    # Pack consecutive starting points so one text slice serves them all.
    budget = max(params.memory_limit - 2 * B - 64, max_len + gap)
    starts_per_machine = max(1, (budget - max_len) // gap)

    # Schedule constants every machine shares go over the broadcast
    # channel; only the block/slice data is per-machine.
    shared = {
        "offsets": offsets,
        "eps_prime": params.eps_prime,
        "n_t": n_t,
        "inner": config.inner,
        "eps_inner": config.eps_inner,
        "top_k": config.phase2_top_k,
    }
    payloads = []
    for lo in range(0, n, B):
        hi = min(lo + B, n)
        starts = start_grid(lo, guess, gap, n_t)
        for i in range(0, len(starts), starts_per_machine):
            chunk = starts[i:i + starts_per_machine]
            text_off = chunk[0]
            text_end = min(chunk[-1] + max_len, n_t)
            payloads.append({
                "lo": lo, "hi": hi,
                "block": s_part(lo, hi),
                "text": t_part(text_off, text_end),
                "text_off": text_off,
                "starts": chunk,
            })

    # Per-block cap across machines (each machine capped locally
    # already).
    pipe = Pipeline(sim)
    tuples = pipe.round(RoundSpec(
        f"{round_prefix}/1-block-candidates", run_small_block_machine,
        partitioner=lambda _: payloads,
        broadcast=shared,
        collector=lambda outs, _: TupleTable.concat(outs).capped(
            config.phase2_top_k)))
    yield f"{round_prefix}/1-block-candidates"

    bound = pipe.round(RoundSpec(
        f"{round_prefix}/2-combine", run_combine_machine,
        partitioner=lambda tups: [{"tuples": tups, "n_s": n, "n_t": n_t,
                                   "allow_overlap": False}],
        collector=lambda outs, _: outs[0]), tuples)
    yield f"{round_prefix}/2-combine"
    return int(min(bound, n + n_t)), len(tuples)


def small_distance_upper_bound(S: np.ndarray, T: np.ndarray,
                               params: EditParams, guess: int,
                               sim: MPCSimulator, config: EditConfig,
                               round_prefix: str = "ed-small",
                               plane: Optional[DataPlane] = None
                               ) -> Tuple[int, int]:
    """Run the two-round small-distance algorithm for one guess.

    Returns ``(upper_bound, n_tuples)``.  The bound is the cost of an
    explicit transformation (always valid); it is ``(3+ε)``-approximate
    whenever ``ed(S, T) ≤ guess`` (Lemma 6) with the cgks inner solver,
    and ``(1+ε)``-approximate with an exact inner solver.

    One-shot wrapper over :func:`small_distance_phases`.
    """
    return drive(small_distance_phases(S, T, params, guess, sim, config,
                                       round_prefix=round_prefix,
                                       plane=plane))
