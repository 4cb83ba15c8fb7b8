"""HSS baseline: Hajiaghayi, Seddighin & Sun (SODA'19) — Table 1 row 4.

The best previous MPC edit-distance algorithm: ``1+ε`` approximation in
2 rounds using ``Õ_ε(n^2x)`` machines with ``Õ_ε(n^(1-x))`` memory each.
Its candidate-substring construction is the one our small-distance regime
inherits (§5.1: "the construction of the candidate substrings is similar
to that of [20]"); the difference — and the whole point of Table 1 — is
machine assignment: HSS dedicates a machine to every (block, starting
point) pair and computes exact distances, whereas the paper's algorithm
packs ``Õ(n^(1-x)/G)`` consecutive starting points per machine.

The implementation shares the machine function of
:mod:`repro.editdistance.small` (with the exact shared-row solver, hence
the ``1+ε`` guarantee) but deliberately does *not* pack: machine count
scales as ``n^x`` per block = ``Õ(n^2x)`` total, which benchmark E4
measures against our ``Õ(n^(9/5 x))``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..chain import TupleTable, run_combine_machine, shipping_cap
from ..mpc.accounting import RunStats, WorkMeter
from ..mpc.plan import Pipeline, RoundSpec
from ..mpc.simulator import MPCSimulator
from ..params import EditParams
from ..strings.types import as_array
from ..editdistance.candidates import length_offsets, start_grid
from ..editdistance.small import run_small_block_machine

__all__ = ["HSSResult", "hss_edit_distance"]


@dataclass
class HSSResult:
    """Outcome of one HSS baseline execution."""

    distance: int
    n: int
    params: EditParams
    stats: RunStats
    accepted_guess: Optional[int]
    per_guess: List[Dict[str, object]] = field(default_factory=list)

    def summary(self) -> Dict[str, object]:
        out = {"distance": self.distance, "n": self.n,
               "x": self.params.x, "eps": self.params.eps,
               "accepted_guess": self.accepted_guess,
               "n_guesses_run": len(self.per_guess)}
        out.update(self.stats.summary())
        return out


def hss_edit_distance(s, t, x: float = 0.25, eps: float = 1.0,
                      sim: Optional[MPCSimulator] = None,
                      guess_mode: str = "doubling",
                      phase2_top_k: Optional[int] = 256,
                      eps_prime_divisor: float = 4.0) -> HSSResult:
    """``1+ε``-approximate ``ed(s, t)`` with the HSS'19 scheme.

    Same driver contract as :func:`repro.editdistance.mpc_edit_distance`;
    the returned value is a valid upper bound and a ``1+ε`` approximation
    (exact per-pair distances, Lemma 5/6-style candidate construction).
    """
    S, T = as_array(s), as_array(t)
    n = len(S)
    if n <= 1:
        from ..strings.edit_distance import levenshtein
        params = EditParams(n=2, x=min(x, 5 / 17), eps=eps)
        with WorkMeter() as meter:
            d = levenshtein(S, T)
        return HSSResult(distance=d, n=n, params=params,
                         stats=RunStats(metrics=meter.metrics or {}),
                         accepted_guess=None)
    params = EditParams(n=n, x=x, eps=eps,
                        eps_prime_divisor=eps_prime_divisor)
    if sim is None:
        sim = MPCSimulator(memory_limit=params.memory_limit)
    n_t = len(T)

    # Same memory-adaptive phase-2 shipping cap as the main driver.
    phase2_top_k = shipping_cap(phase2_top_k, sim.memory_limit,
                                max(1, -(-n // params.block_size_small)))

    if n == n_t and bool(np.array_equal(S, T)):
        return HSSResult(distance=0, n=n, params=params,
                         stats=sim.stats.snapshot(), accepted_guess=0)

    B = params.block_size_small
    accept = 1.0 + eps
    best: Optional[int] = None
    accepted: Optional[int] = None
    per_guess: List[Dict[str, object]] = []

    for guess in params.distance_guesses():
        sub = sim.spawn()
        gap = params.gap(guess, B)
        offsets = length_offsets(B, guess, params.eps_prime)
        shared = {
            "offsets": offsets,
            "eps_prime": params.eps_prime,
            "n_t": n_t,
            "inner": "row",
            "eps_inner": 0.5,
            "top_k": phase2_top_k,
        }
        payloads = []
        for lo in range(0, n, B):
            hi = min(lo + B, n)
            for sp in start_grid(lo, guess, gap, n_t):
                # One machine per (block, starting point): the HSS
                # assignment that costs Õ(n^2x) machines.
                text_end = min(sp + int(B / params.eps_prime), n_t)
                payloads.append({
                    "lo": lo, "hi": hi, "block": S[lo:hi],
                    "text": T[sp:text_end], "text_off": sp,
                    "starts": [sp],
                })

        pipe = Pipeline(sub)
        tuples = pipe.round(RoundSpec(
            "hss/1-pairs", run_small_block_machine,
            partitioner=lambda _: payloads,
            broadcast=shared,
            collector=lambda outs, _: TupleTable.concat(outs).capped(
                phase2_top_k)))
        bound = pipe.round(RoundSpec(
            "hss/2-combine", run_combine_machine,
            partitioner=lambda tups: [{"tuples": tups, "n_s": n,
                                       "n_t": n_t,
                                       "allow_overlap": False}],
            collector=lambda outs, _: outs[0]), tuples)
        bound = int(min(bound, n + n_t))
        sim.absorb(sub)
        per_guess.append({"guess": guess, "bound": bound,
                          "accepted": bound <= accept * guess,
                          "n_tuples": len(tuples)})
        if best is None or bound < best:
            best = bound
        if bound <= accept * guess:
            if accepted is None:
                accepted = guess
            if guess_mode == "doubling":
                break

    assert best is not None
    return HSSResult(distance=int(best), n=n, params=params,
                     stats=sim.stats.snapshot(), accepted_guess=accepted,
                     per_guess=per_guess)
