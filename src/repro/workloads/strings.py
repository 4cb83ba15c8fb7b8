"""Seeded general-string workloads with planted edit distance."""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["random_string", "mutate", "planted_pair", "block_shuffled_pair"]


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) \
        else np.random.default_rng(seed)


def random_string(n: int, sigma: int = 4, seed=0) -> np.ndarray:
    """Uniform string of length ``n`` over alphabet ``{0..sigma-1}``."""
    if sigma < 1:
        raise ValueError("alphabet size must be at least 1")
    return _rng(seed).integers(0, sigma, size=n).astype(np.int64)


def mutate(s: np.ndarray, k: int, seed=0, sigma: int | None = None,
           ops: Tuple[str, ...] = ("substitute", "insert", "delete")
           ) -> np.ndarray:
    """Apply ``k`` random unit edits to ``s`` — ``ed(s, result) ≤ k``."""
    rng = _rng(seed)
    sigma = sigma or (int(s.max()) + 1 if len(s) else 4)
    out = s.tolist()
    for _ in range(k):
        op = ops[int(rng.integers(0, len(ops)))]
        if op == "substitute" and out:
            i = int(rng.integers(0, len(out)))
            out[i] = int(rng.integers(0, sigma))
        elif op == "insert":
            i = int(rng.integers(0, len(out) + 1))
            out.insert(i, int(rng.integers(0, sigma)))
        elif op == "delete" and out:
            i = int(rng.integers(0, len(out)))
            out.pop(i)
    return np.asarray(out, dtype=np.int64)


def planted_pair(n: int, distance_budget: int, sigma: int = 4, seed=0
                 ) -> Tuple[np.ndarray, np.ndarray, int]:
    """``(s, t, upper_bound)`` with ``ed(s, t) ≤ upper_bound = budget``."""
    rng = _rng(seed)
    s = random_string(n, sigma, rng)
    t = mutate(s, distance_budget, rng, sigma=sigma)
    return s, t, distance_budget


def block_shuffled_pair(n: int, n_segments: int, sigma: int = 4, seed=0
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Far pair via segment reordering (large-distance regime driver)."""
    rng = _rng(seed)
    s = random_string(n, sigma, rng)
    bounds = np.linspace(0, n, n_segments + 1).astype(int)
    segments = [s[bounds[i]:bounds[i + 1]] for i in range(n_segments)]
    order = rng.permutation(n_segments)
    t = np.concatenate([segments[i] for i in order]) if n else s.copy()
    return s, t.astype(np.int64)
