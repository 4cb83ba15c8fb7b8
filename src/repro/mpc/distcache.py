"""Content-keyed LRU cache for (block, candidate) distance evaluations.

The candidate generators evaluate many (string, window) pairs whose
*content* recurs — neighbouring distance guesses re-derive overlapping
window grids, repeated queries over the same inputs re-evaluate the same
pairs — and each evaluation is a full DP kernel.  This cache memoises
kernel results under a key derived from the operand *bytes* (plus the
solver identity), so a duplicate evaluation inside one process costs a
dict lookup instead of a kernel run.

The cache is **off by default** and must stay off for accounting-facing
runs: a cache hit legitimately skips kernel work, which changes the
``total_work``/``max_work`` ledger (the golden fixtures pin the
cache-free numbers).  Benchmarks and latency-focused callers opt in with
:func:`enable_distance_cache`.

Scope is per-process, like :mod:`repro.metrics`: under a process-pool
executor each worker grows its own cache (hits there save real time but
their counters stay in the worker); the serial executor and driver-side
evaluation see one shared cache.  ``distance_cache.hits`` /
``distance_cache.misses`` metrics mirror the cache's own counters when
the metrics registry is enabled.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (Any, Callable, Dict, Hashable, List, Optional, Sequence,
                    Tuple, TypeVar)

import numpy as np

from ..metrics import get_registry

__all__ = ["DistanceCache", "enable_distance_cache",
           "disable_distance_cache", "distance_cache", "cached_distance",
           "cached_batch", "pair_key"]

_M_HITS = get_registry().counter("distance_cache.hits")
_M_MISSES = get_registry().counter("distance_cache.misses")

_Job = TypeVar("_Job")


class DistanceCache:
    """Bounded LRU mapping content keys to distances."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._data: "OrderedDict[Hashable, int]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def lookup(self, key: Hashable) -> Optional[int]:
        """The cached value for *key* (refreshed to most-recent), or None."""
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            _M_MISSES.inc()
            return None
        self._data.move_to_end(key)
        self.hits += 1
        _M_HITS.inc()
        return value

    def hit(self) -> None:
        """Record a hit satisfied outside :meth:`lookup`.

        Batched kernel dispatch deduplicates intra-batch keys before
        evaluation: the first occurrence is a :meth:`lookup` miss, and
        each repeat is satisfied from the pending batch result.  Those
        repeats are hits in the per-call world, so batch paths call this
        to keep hit/miss counters equal to per-call cached lookups.
        """
        self.hits += 1
        _M_HITS.inc()

    def store(self, key: Hashable, value: int) -> None:
        """Insert *key*, evicting least-recently-used entries past capacity."""
        if key in self._data:
            self._data.move_to_end(key)
            self._data[key] = value
            return
        while len(self._data) >= self.capacity:
            self._data.popitem(last=False)
        self._data[key] = value


#: The process-wide cache, or ``None`` (the default: caching disabled).
_active: Optional[DistanceCache] = None


def enable_distance_cache(capacity: int = 4096) -> DistanceCache:
    """Install (and return) a fresh process-wide distance cache."""
    global _active
    _active = DistanceCache(capacity)
    return _active


def disable_distance_cache() -> None:
    """Remove the process-wide cache (the library default)."""
    global _active
    _active = None


def distance_cache() -> Optional[DistanceCache]:
    """The active cache, or ``None`` when caching is disabled."""
    return _active


def pair_key(tag: str, a: np.ndarray, b: np.ndarray,
             *extra: Any) -> Tuple:
    """Content key for a (string, string) evaluation.

    *tag* names the kernel family and *extra* pins solver parameters
    (kind, epsilon) so approximate solvers never answer for exact ones.
    """
    return (tag, a.tobytes(), b.tobytes()) + extra


def cached_distance(key: Hashable, compute: Callable[[], int]) -> int:
    """``compute()`` memoised under *key* when the cache is enabled."""
    cache = _active
    if cache is None:
        return compute()
    value = cache.lookup(key)
    if value is None:
        value = compute()
        cache.store(key, value)
    return value


def cached_batch(cache: Optional[DistanceCache], jobs: Sequence[_Job],
                 key_of: Callable[[_Job], Hashable],
                 evaluate: Callable[[Sequence[_Job]], Sequence[int]]
                 ) -> List[int]:
    """``evaluate(jobs)`` through *cache*, evaluating the misses as one batch.

    The first occurrence of a key is a :meth:`DistanceCache.lookup`;
    later occurrences in the same batch are recorded with
    :meth:`DistanceCache.hit` and take the first one's value, so hit/miss
    counters and kernel work equal those of per-job cached calls.  Only
    the LRU insertion *order* differs — results are stored after the
    batch — which matters only when one batch approaches the capacity.
    ``key_of`` runs only when *cache* is not ``None``.
    """
    if cache is None:
        return [int(v) for v in evaluate(jobs)]
    out = [0] * len(jobs)
    pending: Dict[Hashable, List[int]] = {}  # miss key -> job indices
    misses: List[_Job] = []
    for idx, job in enumerate(jobs):
        key = key_of(job)
        slot = pending.get(key)
        if slot is not None:
            cache.hit()
            slot.append(idx)
            continue
        value = cache.lookup(key)
        if value is not None:
            out[idx] = int(value)
            continue
        pending[key] = [idx]
        misses.append(job)
    for (key, idxs), value in zip(pending.items(), evaluate(misses)):
        for idx in idxs:
            out[idx] = int(value)
        cache.store(key, int(value))
    return out
