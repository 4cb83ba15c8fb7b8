"""The four benchmark workloads and their seeded, pre-checked inputs.

Every input is a pure function of ``(workload, seed)``: a pool of planted
pairs whose exact distances are computed here, before any timing, and a
per-query hitting-set seed derived from ``(seed, query index)``.  Query
``i`` of a workload cycles through the pool, so a run of any length sees
only pre-referenced inputs.  The first pass over the pool -- the ledger
window, whose ledgers the benchmark reports -- is identical on every run
with the same seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.strings.edit_distance import levenshtein
from repro.strings.ulam import ulam_distance
from repro.workloads.permutations import planted_pair as perm_pair
from repro.workloads.strings import planted_pair as str_pair

__all__ = ["Workload", "WORKLOADS", "Query", "QueryStream",
           "approximation_factor"]


@dataclass(frozen=True)
class Workload:
    """One closed-loop traffic mix.

    ``pool`` distinct input pairs back the query stream; every run sends
    at least one pass over them, the ledger window.  ``fresh``
    queries register their corpus and release it after the answer (the
    write side of the data plane); otherwise the pool's corpora stay
    registered and re-registering them is a no-op (the read-only side).
    ``max_workers=None`` is the service's serial executor.
    """

    name: str
    algo: str
    n: int
    budget: int
    pool: int
    clients: int
    max_workers: Optional[int]
    fresh: bool


#: Why each workload exists is in ``README.md`` and ``BENCHMARK.json``.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("ulam-n512", "ulam", n=512, budget=64, pool=8, clients=1,
             max_workers=None, fresh=False),
    Workload("edit-n1024", "edit", n=1024, budget=64, pool=64, clients=1,
             max_workers=None, fresh=True),
    Workload("edit-n128-c2", "edit", n=128, budget=8, pool=512,
             clients=2, max_workers=None, fresh=True),
    Workload("edit-n1024-pool2", "edit", n=1024, budget=64, pool=64,
             clients=2, max_workers=2, fresh=True),
)}


def approximation_factor(algo: str, eps: float) -> float:
    """Upper end of the guarantee: Theorem 4 (ulam) or Theorem 9 (edit)."""
    return 1.0 + eps if algo == "ulam" else 3.0 + eps


@dataclass(frozen=True)
class Query:
    """One query of the stream: its input pair and exact distance."""

    s: np.ndarray
    t: np.ndarray
    exact: int
    seed: int


def _query_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0]
               % (1 << 31))


class QueryStream:
    """The deterministic query sequence of one workload and seed."""

    def __init__(self, workload: Workload, seed: int) -> None:
        if seed < 0:
            raise ValueError(f"--seed must be non-negative, got {seed}")
        self.workload = workload
        self.seed = seed
        self.pairs: List[Tuple[np.ndarray, np.ndarray, int]] = []
        for k in range(workload.pool):
            rng = np.random.default_rng([seed, k])
            if workload.algo == "ulam":
                s, t, _ = perm_pair(workload.n, workload.budget, seed=rng,
                                    style="mixed")
                exact = ulam_distance(s, t)
            else:
                s, t, _ = str_pair(workload.n, workload.budget, sigma=4,
                                   seed=rng)
                exact = levenshtein(s, t)
            self.pairs.append((s, t, int(exact)))

    def query(self, index: int) -> Query:
        """Query *index*: the pairs cycle, the hitting-set seed is new."""
        s, t, exact = self.pairs[index % self.workload.pool]
        return Query(s=s, t=t, exact=exact,
                     seed=_query_seed(self.seed, index))

    def fingerprint(self) -> str:
        """sha256 over the workload shape, every pool pair and the seeds
        of the ledger window: equal fingerprints mean equal inputs."""
        w = self.workload
        h = hashlib.sha256(repr((w.name, w.algo, w.n, w.budget, w.pool,
                                 w.fresh)).encode())
        for s, t, exact in self.pairs:
            h.update(np.ascontiguousarray(s, dtype=np.int64).tobytes())
            h.update(np.ascontiguousarray(t, dtype=np.int64).tobytes())
            h.update(str(exact).encode())
        for i in range(w.pool):
            h.update(str(_query_seed(self.seed, i)).encode())
        return h.hexdigest()
