"""Theorem 4 driver: the 2-round MPC Ulam-distance algorithm.

Round 1 (Algorithm 1): one machine per block of ``s`` constructs candidate
windows of ``s̄`` and their exact Ulam distances, from *positions only*.
Round 2 (Algorithm 2): a single machine chains the tuples with a DP.

The per-block position tables are part of the input distribution (§3.1:
for duplicate-free ``s̄`` each machine only needs "the location of each
character of ``s[ℓ_i, r_i]`` in ``s̄``", which the input loader provides
the way a MapReduce join would); they are *charged against the machine's
memory* like all other payload data.

Two entry points share one implementation: :class:`UlamQuery` is the
resumable form — a query object over a registered
:class:`~repro.service.corpus.Corpus` whose :meth:`~UlamQuery.steps`
generator executes one MPC round per step, which is what the
:class:`~repro.service.DistanceService` multiplexes — and
:func:`mpc_ulam` is the one-shot wrapper that builds an ephemeral
corpus and drives the same generator to completion.  Ledgers are
byte-identical between the two by construction.

Guarantee: the returned value is always a valid upper bound on
``ulam(s, s̄)`` (every DP chain is an explicit transformation) and is at
most ``(1+ε)·ulam(s, s̄)`` with high probability over the hitting-set
randomness (Theorem 4).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Generator, Optional

from ..chain import TupleTable, run_combine_machine, shipping_cap
from ..metrics import set_gauge
from ..mpc.accounting import RunStats, WorkMeter
from ..mpc.plan import Pipeline, RoundSpec
from ..mpc.simulator import MPCSimulator
from ..mpc.sizeof import sizeof
from ..params import UlamParams
from ..service.corpus import Corpus
from ..service.runner import run_query
from ..strings.ulam import check_duplicate_free, ulam_distance
from .candidates import (make_block_part, make_round1_broadcast,
                         run_block_machine)
from .config import UlamConfig

__all__ = ["UlamResult", "UlamQuery", "mpc_ulam"]


@dataclass
class UlamResult:
    """Outcome of one MPC Ulam-distance execution."""

    distance: int
    n: int
    params: UlamParams
    stats: RunStats
    n_tuples: int
    tuples: Optional[TupleTable] = None

    def summary(self) -> Dict[str, object]:
        """Headline numbers for reports (EXPERIMENTS.md rows)."""
        out = {"distance": self.distance, "n": self.n,
               "x": self.params.x, "eps": self.params.eps,
               "block_size": self.params.block_size,
               "n_tuples": self.n_tuples}
        out.update(self.stats.summary())
        return out


class UlamQuery:
    """Resumable Ulam query over a registered corpus.

    Construction validates parameters and derives :class:`UlamParams`
    (so admission control can inspect ``params.memory_limit`` before
    any round runs); :meth:`steps` is a generator executing one MPC
    round per ``next()``, yielding the round name, and storing the
    :class:`UlamResult` on :attr:`result` when exhausted.  Intermediate
    state (the phase-2 tuple pack) lives on a per-query scratch plane
    closed when the generator finalises — normal exhaustion, error, or
    ``close()`` after cancellation all release it.  An ``s`` of at most
    one symbol has no blocks to spread; it is solved directly, with no
    rounds.
    """

    algo = "ulam"

    def __init__(self, corpus: Corpus, x: float = 0.25, eps: float = 0.5,
                 config: Optional[UlamConfig] = None, seed: int = 0,
                 keep_tuples: bool = False) -> None:
        self.corpus = corpus
        self.params = UlamParams(n=max(len(corpus.S), 2), x=x, eps=eps)
        self.config = config or UlamConfig.default()
        self.seed = seed
        self.keep_tuples = keep_tuples
        self.result: Optional[UlamResult] = None

    def steps(self, sim: MPCSimulator) -> Generator[str, None, None]:
        """Execute the query's two rounds on *sim*, one per step."""
        corpus = self.corpus
        S, T = corpus.S, corpus.T
        n = len(S)
        params = self.params
        config = self.config

        if n <= 1:
            # Degenerate inputs: solved directly (no rounds).
            with WorkMeter() as meter:
                d = ulam_distance(S, T)
            self.result = UlamResult(
                distance=d, n=n, params=params,
                stats=RunStats(metrics=meter.metrics or {}), n_tuples=0,
                tuples=TupleTable() if self.keep_tuples else None)
            return

        # The phase-2 machine must hold every shipped tuple, so the
        # per-block shipping cap adapts to the memory budget.
        config = replace(config, phase2_top_k=shipping_cap(
            config.phase2_top_k, sim.memory_limit, params.n_blocks))

        B = params.block_size
        u_guesses = params.u_guesses()
        scratch = corpus.scratch_plane(sim.tracer)
        try:
            payloads = []
            for bi, lo in enumerate(range(0, n, B)):
                hi = min(lo + B, n)
                payloads.append(make_block_part(
                    lo, hi, corpus.slice_positions(lo, hi),
                    self.seed * (1 << 20) + bi))

            # A simulator whose retry policy drops exhausted machines
            # leaves None at their positions; their candidates are
            # simply pruned by the collector.
            tuples: TupleTable = Pipeline(sim).round(RoundSpec(
                "ulam/1-candidates", run_block_machine,
                partitioner=lambda _: payloads,
                broadcast=make_round1_broadcast(
                    len(T), params.eps_prime, u_guesses,
                    params.hitting_rate, config),
                collector=lambda outs, _: TupleTable.concat(outs)))
            yield "ulam/1-candidates"

            tuples_part: object = tuples
            if scratch is not None:
                # Round 2 ships the whole tuple state to one machine;
                # publish its rows so the payload is a descriptor too.
                # The ``words`` override keeps the ledger charging the
                # table's own sizeof (its element count understates it).
                scratch.publish("tuples", tuples.rows.ravel())
                tuples_part = scratch.slice("tuples", 0, tuples.rows.size,
                                            words=sizeof(tuples))
            answer = Pipeline(sim).round(RoundSpec(
                "ulam/2-combine", run_combine_machine,
                partitioner=lambda tups: [{"tuples": tuples_part,
                                           "n_s": n, "n_t": len(T),
                                           "mode": "max"}],
                collector=lambda outs, _: outs[0]), tuples)
            yield "ulam/2-combine"
        finally:
            # The scratch segment must not outlive the query under any
            # exit path — memory-cap violations, chaos-exhausted
            # retries, cancellation (generator close), interrupts.
            if scratch is not None:
                scratch.close()

        distance = min(int(answer), max(n, len(T)))
        set_gauge(sim.stats.metrics, "ulam.phase2_top_k",
                  config.phase2_top_k)
        self.result = UlamResult(
            distance=distance, n=n, params=params,
            stats=sim.stats.snapshot(), n_tuples=len(tuples),
            tuples=tuples if self.keep_tuples else None)


def mpc_ulam(s, t, x: float = 0.25, eps: float = 0.5,
             sim: Optional[MPCSimulator] = None,
             config: Optional[UlamConfig] = None,
             seed: int = 0,
             keep_tuples: bool = False,
             data_plane: bool = True) -> UlamResult:
    """Approximate ``ulam(s, t)`` with the paper's 2-round MPC algorithm.

    Parameters
    ----------
    s, t:
        Duplicate-free strings (``str`` or integer sequences); need not be
        permutations of the same set, and may differ in length (blocks are
        taken over ``s``).
    x:
        Memory exponent, ``0 < x < 1/2``: per-machine memory is
        ``Õ_ε(n^(1-x))`` and ``Õ_ε(n^x)`` machines are used.
    eps:
        Approximation slack; the guarantee is ``1 + eps`` w.h.p.
    sim:
        Optional pre-configured simulator (e.g. with a process-pool
        executor or a custom memory cap).  By default a strict simulator
        with the paper's memory limit is created.  Pass one with a
        ``fault_plan`` to run the algorithm under injected machine
        failures with bounded-retry recovery; with a retry policy of
        ``on_exhausted="drop"`` the combine step tolerates
        lost block machines (the candidate set is only pruned) and the
        result stays a valid upper bound.
    config:
        Algorithm-1 constants (default: paper-faithful).
    seed:
        Root seed for the hitting-set sampling; block ``i`` uses
        ``seed·2^20 + i`` so machines are independent and the run is
        reproducible under any executor.
    keep_tuples:
        Also return the round-1 tuples (used by diagnostics benchmarks).
    data_plane:
        Publish the position table once into a shared-memory segment and
        ship per-block :class:`~repro.mpc.shm.SharedSlice` descriptors
        instead of array copies (default).  Ledgers are byte-identical
        either way — descriptors charge the logical word count of the
        slice they stand for; only the physical pickle bytes change.
        ``False`` restores copy-payloads (the E22 A/B baseline).

    Returns
    -------
    UlamResult
        ``distance`` is a valid upper bound on ``ulam(s, t)`` and a
        ``1+eps`` approximation w.h.p.; ``stats`` holds the measured MPC
        resources (2 rounds).
    """
    S = check_duplicate_free(s, "s")
    T = check_duplicate_free(t, "t")
    corpus = Corpus(S, T, use_plane=data_plane,
                    tracer=sim.tracer if sim is not None else None)
    try:
        query = UlamQuery(corpus, x=x, eps=eps, config=config, seed=seed,
                          keep_tuples=keep_tuples)
        if sim is None:
            sim = MPCSimulator(memory_limit=query.params.memory_limit)
        return run_query(query, sim)
    finally:
        # One-shot corpora are ephemeral: segments die with the run
        # under every exit path, exactly like the pre-service driver.
        corpus.close()
