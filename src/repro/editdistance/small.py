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
from ..metrics import inc
from ..mpc.accounting import record_metric
from ..mpc.plan import Pipeline, RoundSpec
from ..mpc.shm import DataPlane
from ..mpc.simulator import MPCSimulator
from ..params import EditParams
from ..service.runner import drive
from ..strings.approx import make_inner
from ..strings.bitparallel import myers_last_rows
from .candidates import candidate_grid, length_offsets, start_grid
from .config import EditConfig

__all__ = ["run_small_block_machine", "small_distance_phases",
           "small_distance_upper_bound"]


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
    st, en, lane = candidate_grid(starts, B, offsets, eps_prime, n_t)
    record_metric(inc, "edit.candidate_windows{regime=small}", len(st))
    # One lane per start with windows, its text running to the start's
    # last end: every candidate of that start is a prefix of it.
    counts = np.bincount(lane, minlength=len(starts))
    counts = counts[counts > 0]
    last = np.cumsum(counts) - 1
    lane_st, lane_en = st[last], en[last]
    if ((lane_st < text_off).any()
            or (lane_en > text_off + len(text)).any()):
        raise AssertionError("machine feed does not cover candidate")
    if inner_kind == "row":
        rows = myers_last_rows(block, [
            text[a - text_off:b - text_off]
            for a, b in zip(lane_st.tolist(), lane_en.tolist())])
        # Window (st, en) reads its lane's row at column en - st of the
        # concatenated rows.
        lens = lane_en - lane_st + 1
        base = np.repeat(np.cumsum(lens) - lens, counts)
        dists = (np.concatenate(rows)[base + en - st] if rows
                 else np.zeros(0, dtype=np.int64))
    else:
        inner = make_inner(inner_kind, float(payload["eps_inner"]))
        dists = np.array([inner(block, text[a - text_off:b - text_off])
                          for a, b in zip(st.tolist(), en.tolist())],
                         dtype=np.int64)
    out = np.empty((len(st), 5), dtype=np.int64)
    out[:, 0], out[:, 1] = lo, hi
    out[:, 2], out[:, 3], out[:, 4] = st, en, dists
    tuples = TupleTable(out).capped(top_k)
    record_metric(inc, "edit.candidate_tuples{regime=small}", len(tuples))
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
