"""Threshold-graph (``G_τ``) machinery for the large-distance regime.

``G_τ`` (§5.2, Fig. 6) has a node per block of ``s`` and per candidate
substring of ``s̄``, with an edge when the edit distance is at most ``τ``.
The graph is never materialised: phase 1 discovers the neighbourhoods of
*dense* nodes through sampled representatives and the triangle inequality,
and phases 2–3 handle *sparse* blocks by sampling and extension.

This module owns the node universe and the rep-distance bookkeeping that
the driver shuffles between rounds:

* a **block node** is ``("b", lo, hi)`` — ``s[lo:hi)``;
* a **candidate node** is ``("c", st, en)`` — ``s̄[st:en)``, with starts
  on the ``G'``-grid and the Fig.-5 length schedule;
* ``RepDistances`` records, for every node, its distance to each
  representative; ``min_z (d(b,z) + d(z,u))`` is exactly the union over
  all thresholds of the paper's ``N_τ(z) × N_2τ(z)`` edge generation
  (an edge exists for threshold ``τ* = max(d(b,z), d(z,u)/2)`` and all
  larger ones), with the triangle inequality certifying the weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .candidates import candidate_grid, length_offsets

__all__ = ["NodeId", "build_candidate_nodes", "node_string", "RepDistances"]

#: ``("b", lo, hi)`` or ``("c", st, en)`` — half-open coordinates.
NodeId = Tuple[str, int, int]


def build_candidate_nodes(n_t: int, block_size: int, gap: int,
                          distance_guess: int,
                          eps_prime: float) -> List[NodeId]:
    """All candidate-substring nodes of ``G_τ``.

    Starting points are the multiples of ``gap`` in ``[0, n_t]``; the
    total start count ``O(n/G') = Õ_ε(n^(1-δ)+y)`` is the node-count
    bound of §5.2.1.
    """
    offsets = length_offsets(block_size, distance_guess, eps_prime)
    st, en, _ = candidate_grid(range(0, n_t + 1, gap), block_size, offsets,
                               eps_prime, n_t)
    return [("c", a, b) for a, b in zip(st.tolist(), en.tolist())]


def node_string(node: NodeId, S: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Resolve a node id to its string content."""
    kind, a, b = node
    if kind == "b":
        return S[a:b]
    if kind == "c":
        return T[a:b]
    raise ValueError(f"unknown node kind {kind!r}")


@dataclass
class RepDistances:
    """Distances from every node to every representative (phase-1 output)."""

    #: node → list of (rep index, distance)
    per_node: Dict[NodeId, List[Tuple[int, int]]] = field(
        default_factory=dict)

    def add(self, node: NodeId, rep_index: int, distance: int) -> None:
        self.per_node.setdefault(node, []).append((rep_index, distance))

    def __mpc_size__(self) -> int:
        """Word size of the distance table (for shuffle accounting when
        the table is the state routed out of phase 1)."""
        from ..mpc.sizeof import sizeof
        return sizeof(self.per_node)

    def nearest_rep_distance(self, node: NodeId) -> Optional[int]:
        """Distance to the closest representative (``None`` if unseen).

        A block is *covered* at threshold ``τ`` iff this is ``≤ τ`` —
        the Lemma-7 condition under which its whole neighbourhood was
        already discovered through that representative.
        """
        ds = self.per_node.get(node)
        return min(d for _, d in ds) if ds else None

    def triangle_edges(self, blocks: List[NodeId],
                       candidates: List[NodeId],
                       max_weight: Optional[int] = None
                       ) -> Dict[Tuple[NodeId, NodeId], int]:
        """All ``(block, candidate)`` edges via shared representatives.

        Edge weight is ``min_z d(b, z) + d(z, u)`` — an upper bound on
        ``ed(b, u)`` by the triangle inequality, and at most ``3τ`` for
        the smallest ``τ`` at which the paper's per-threshold procedure
        would have produced the edge (Lemma 7's false-positive bound).
        """
        by_rep: Dict[int, List[Tuple[NodeId, int]]] = {}
        for u in candidates:
            for z, d in self.per_node.get(u, ()):
                by_rep.setdefault(z, []).append((u, d))
        edges: Dict[Tuple[NodeId, NodeId], int] = {}
        for b in blocks:
            for z, dbz in self.per_node.get(b, ()):
                for u, dzu in by_rep.get(z, ()):
                    w = dbz + dzu
                    if max_weight is not None and w > max_weight:
                        continue
                    key = (b, u)
                    if key not in edges or edges[key] > w:
                        edges[key] = w
        return edges
