"""Theorem 9 driver: the ``3+ε`` MPC edit-distance algorithm.

Structure (§3.2):

1. ``ed = 0`` is detected separately (a distributed equality check; done
   as a driver-side comparison here, documented in DESIGN.md).
2. The solution size is guessed as ``n^δ = (1+ε)^i``.  For each guess the
   small-distance algorithm (two rounds, §5.1) or the large-distance
   algorithm (four rounds, §5.2) runs, depending on whether the guess is
   below the ``n^(1-x/5)`` boundary.
3. A guess is *accepted* when its returned upper bound is within the
   approximation factor of the guess; the smallest accepted guess decides
   the output.  ``guess_mode="parallel"`` evaluates every guess (the
   paper's constant-round semantics, statistics merged as concurrent
   rounds); ``"doubling"`` stops at the first acceptance — identical
   output and strictly less total work.

Two entry points share one implementation: :class:`EditQuery` is the
resumable form — a query object over a registered
:class:`~repro.service.corpus.Corpus` whose :meth:`~EditQuery.steps`
generator executes one MPC round per step, which is what the
:class:`~repro.service.DistanceService` multiplexes — and
:func:`mpc_edit_distance` is the one-shot wrapper that builds an
ephemeral corpus and drives the same generator to completion.  Ledgers
are byte-identical between the two by construction.

Every value returned is the cost of an explicit transformation (a valid
upper bound on ``ed(s, t)``); the approximation guarantee is ``3+ε``
w.h.p. for the default (cgks-inner) configuration and ``1+ε`` for the
small regime with an exact inner solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Generator, List, Optional

import numpy as np

from ..chain import shipping_cap
from ..metrics import merge_into, set_gauge
from ..mpc.accounting import RunStats, WorkMeter
from ..mpc.simulator import MPCSimulator
from ..params import EditParams
from ..service.corpus import Corpus
from ..service.runner import run_query
from ..strings.types import as_array
from .config import EditConfig
from .large import large_distance_phases
from .small import small_distance_phases

__all__ = ["EditResult", "EditQuery", "mpc_edit_distance"]


@dataclass
class EditResult:
    """Outcome of one MPC edit-distance execution."""

    distance: int
    n: int
    params: EditParams
    stats: RunStats
    accepted_guess: Optional[int]
    regime: str
    per_guess: List[Dict[str, object]] = field(default_factory=list)

    def summary(self) -> Dict[str, object]:
        out = {"distance": self.distance, "n": self.n,
               "x": self.params.x, "eps": self.params.eps,
               "regime": self.regime,
               "accepted_guess": self.accepted_guess,
               "n_guesses_run": len(self.per_guess)}
        out.update(self.stats.summary())
        return out


class EditQuery:
    """Resumable edit-distance query over a registered corpus.

    Construction validates parameters and derives :class:`EditParams`
    (so admission control can inspect ``params.memory_limit`` before
    any round runs); :meth:`steps` is a generator executing one MPC
    round per ``next()`` — the equality prefix round, then each guess's
    small- or large-regime rounds — and storing the
    :class:`EditResult` on :attr:`result` when exhausted.
    """

    algo = "edit"

    def __init__(self, corpus: Corpus, x: float = 0.25, eps: float = 1.0,
                 config: Optional[EditConfig] = None,
                 seed: int = 0) -> None:
        self.corpus = corpus
        self.config = config or EditConfig.default()
        self.seed = seed
        n = len(corpus.S)
        if n <= 1:
            self.params = EditParams(n=2, x=min(x, 5 / 17), eps=eps)
        else:
            self.params = EditParams(
                n=n, x=x, eps=eps,
                eps_prime_divisor=self.config.eps_prime_divisor)
        self.result: Optional[EditResult] = None

    def steps(self, sim: MPCSimulator) -> Generator[str, None, None]:
        """Execute the query's rounds on *sim*, one per step."""
        corpus = self.corpus
        S, T = corpus.S, corpus.T
        n = len(S)
        params = self.params
        config = self.config

        if n <= 1:
            # Degenerate inputs: solved directly (no rounds).
            from ..strings.edit_distance import levenshtein
            with WorkMeter() as meter:
                d = levenshtein(S, T)
            self.result = EditResult(distance=d, n=n, params=params,
                                     stats=RunStats(
                                         metrics=meter.metrics or {}),
                                     accepted_guess=None,
                                     regime="trivial")
            return

        # Adapt the phase-2 shipping cap to the memory budget: the
        # combining machine must hold every tuple.
        config = replace(config, phase2_top_k=shipping_cap(
            config.phase2_top_k, sim.memory_limit,
            max(1, -(-n // params.block_size_small))))

        # The equality shortcut is a *sequential* prefix round; it runs
        # on its own simulator so the parallel-guess merge below cannot
        # fold it into a guess round, and its rounds are prepended to
        # the ledger (its metrics merged).
        prefix = RunStats()
        if config.distributed_equality_check:
            from ..mpc.utils import distributed_equal
            eq_sim = sim.spawn()
            equal = distributed_equal(S, T, eq_sim,
                                      round_name="ed/0-equality")
            prefix = eq_sim.stats
            yield "ed/0-equality"
        else:
            equal = len(S) == len(T) and bool(np.array_equal(S, T))
        if equal:
            self.result = EditResult(distance=0, n=n, params=params,
                                     stats=_after_prefix(prefix, sim),
                                     accepted_guess=0, regime="equal")
            return

        accept = config.accept_slack if config.accept_slack is not None \
            else (3.0 + params.eps)
        best: Optional[int] = None
        accepted_guess: Optional[int] = None
        regime_used = "none"
        per_guess: List[Dict[str, object]] = []

        # One corpus plane serves every guess (and every concurrent
        # query): S and T are published at most once and all
        # partitioners ship descriptors of them.
        plane = corpus.edit_plane()
        for gi, guess in enumerate(params.distance_guesses()):
            sub = sim.spawn()
            if config.force_regime == "auto":
                small = params.is_small_regime(guess)
            else:
                small = config.force_regime == "small"
            if small:
                bound, n_tuples = yield from small_distance_phases(
                    S, T, params, guess, sub, config, plane=plane)
                info: Dict[str, object] = {"n_tuples": n_tuples}
            else:
                bound, info = yield from large_distance_phases(
                    S, T, params, guess, sub, config,
                    seed=self.seed * (1 << 16) + gi, plane=plane)
            sim.absorb(sub)
            entry = {"guess": guess,
                     "regime": "small" if small else "large",
                     "bound": bound,
                     "accepted": bound <= accept * guess}
            entry.update(info)
            per_guess.append(entry)
            if best is None or bound < best:
                best = bound
            if bound <= accept * guess:
                if accepted_guess is None:
                    accepted_guess = guess
                    regime_used = "small" if small else "large"
                if config.guess_mode == "doubling":
                    break

        assert best is not None  # guess schedule always reaches 2n
        set_gauge(sim.stats.metrics, "edit.phase2_top_k",
                  config.phase2_top_k)
        set_gauge(sim.stats.metrics, "edit.n_guesses_run", len(per_guess))
        self.result = EditResult(distance=int(best), n=n, params=params,
                                 stats=_after_prefix(prefix, sim),
                                 accepted_guess=accepted_guess,
                                 regime=regime_used, per_guess=per_guess)


def _after_prefix(prefix: RunStats, sim: MPCSimulator) -> RunStats:
    """The query's ledger: *prefix*'s rounds ahead of *sim*'s, and the
    metrics of both runs."""
    sim.stats.rounds[:0] = prefix.rounds
    merge_into(sim.stats.metrics, prefix.metrics)
    return sim.stats.snapshot()


def mpc_edit_distance(s, t, x: float = 0.25, eps: float = 1.0,
                      sim: Optional[MPCSimulator] = None,
                      config: Optional[EditConfig] = None,
                      seed: int = 0,
                      data_plane: bool = True) -> EditResult:
    """Approximate ``ed(s, t)`` with the paper's MPC algorithm.

    Parameters
    ----------
    s, t:
        Input strings (``str`` or integer sequences; arbitrary alphabet).
    x:
        Memory exponent, ``0 < x ≤ 5/17``; machines hold
        ``Õ_ε(n^(1-x))`` words and ``Õ_ε(n^(9/5·x))`` machines are used.
    eps:
        Approximation slack; the guarantee is ``3 + eps`` w.h.p.
    sim:
        Optional pre-configured simulator (executor / memory override).
        A simulator with a ``fault_plan`` runs every guess under
        injected failures: :meth:`spawn` propagates the plan to the
        per-guess sub-simulators and :meth:`absorb` folds their
        recovery counters back into the returned ledger.
    config:
        Algorithm constants; default :meth:`EditConfig.default`.
    seed:
        Root seed for all sampling (representatives, sparse blocks).
    data_plane:
        Publish ``S`` and ``T`` once into shared-memory segments and ship
        per-machine :class:`~repro.mpc.shm.SharedSlice` descriptors in
        place of substring copies (default).  Ledgers are byte-identical
        either way — descriptors charge the logical word count of the
        slice they stand for; only the physical pickle bytes change.
        ``False`` restores copy-payloads (the E22 A/B baseline).

    Returns
    -------
    EditResult
        ``distance`` is a valid upper bound on ``ed(s, t)``; ``stats``
        reflects the MPC resource usage with the parallel-guess round
        semantics (2 rounds small regime, 4 rounds large regime).
    """
    S, T = as_array(s), as_array(t)
    query_corpus = Corpus(S, T, use_plane=data_plane,
                          tracer=sim.tracer if sim is not None else None)
    try:
        query = EditQuery(query_corpus, x=x, eps=eps, config=config,
                          seed=seed)
        if sim is None:
            sim = MPCSimulator(memory_limit=query.params.memory_limit)
        return run_query(query, sim)
    finally:
        # One-shot corpora are ephemeral: segments die with the run
        # under every exit path, exactly like the pre-service driver.
        query_corpus.close()
