"""Synthetic genome-like workloads.

The paper motivates subquadratic similarity computation with genome-scale
inputs (§1: "a human genome consists of almost three billion base pairs").
Real genome data is not bundled; these generators produce DNA-alphabet
sequences with a configurable GC content and an evolutionary mutation
model (point substitutions plus short indels), which exercises the same
code paths: small-alphabet strings whose edit distance concentrates around
the planted mutation load.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["ALPHABET", "random_genome", "evolve", "to_dna", "diverged_pair"]

#: Base encoding used throughout: A=0, C=1, G=2, T=3.
ALPHABET = "ACGT"


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) \
        else np.random.default_rng(seed)


def random_genome(n: int, gc_content: float = 0.41, seed=0) -> np.ndarray:
    """Random DNA sequence with the given GC fraction (human ≈ 0.41)."""
    if not 0.0 <= gc_content <= 1.0:
        raise ValueError("gc_content must be in [0, 1]")
    rng = _rng(seed)
    p_gc = gc_content / 2.0
    p_at = (1.0 - gc_content) / 2.0
    return rng.choice(4, size=n, p=[p_at, p_gc, p_gc, p_at]).astype(np.int64)


def evolve(s: np.ndarray, sub_rate: float = 0.01, indel_rate: float = 0.002,
           max_indel: int = 3, seed=0) -> Tuple[np.ndarray, int]:
    """Mutate a genome; returns ``(t, op_budget)`` with ``ed(s,t) ≤ budget``.

    Point substitutions happen per-base with ``sub_rate``; at each base an
    insertion or deletion of length ``1..max_indel`` starts with
    ``indel_rate``.
    """
    rng = _rng(seed)
    out = []
    budget = 0
    i = 0
    n = len(s)
    while i < n:
        r = rng.random()
        if r < indel_rate:
            length = int(rng.integers(1, max_indel + 1))
            if rng.random() < 0.5:
                # deletion
                skip = min(length, n - i)
                budget += skip
                i += skip
            else:
                ins = rng.integers(0, 4, size=length)
                out.extend(int(v) for v in ins)
                budget += length
                out.append(int(s[i]))
                i += 1
        elif r < indel_rate + sub_rate:
            out.append(int((s[i] + rng.integers(1, 4)) % 4))
            budget += 1
            i += 1
        else:
            out.append(int(s[i]))
            i += 1
    return np.asarray(out, dtype=np.int64), budget


def diverged_pair(n: int, divergence: float = 0.02, seed=0
                  ) -> Tuple[np.ndarray, np.ndarray, int]:
    """``(s, t, budget)`` pair at the given expected divergence rate."""
    rng = _rng(seed)
    s = random_genome(n, seed=rng)
    t, budget = evolve(s, sub_rate=divergence * 0.8,
                       indel_rate=divergence * 0.2, seed=rng)
    return s, t, budget


def to_dna(s: np.ndarray) -> str:
    """Decode an encoded genome to an ``ACGT`` string."""
    return "".join(ALPHABET[int(v)] for v in s)
