"""QuickSI's infrequent-edge-first ordering (Section 3.2).

The query is viewed as a weighted graph: vertex weight
``w(u) = |{v ∈ V(G) | L(v) = L(u)}|`` and edge weight
``w(e(u, u')) = |{e(v, v') ∈ E(G) | {L(v), L(v')} = {L(u), L(u')}}|``.
QuickSI starts from the globally lightest edge (its endpoints entering in
ascending vertex weight) and repeatedly extends φ with the lightest edge
crossing from φ to the outside — so rare label pairs are matched early.
"""

from __future__ import annotations

from typing import List, Optional

from repro.filtering.candidates import CandidateSets
from repro.graph.graph import Graph
from repro.ordering.base import Ordering

__all__ = ["QuickSIOrdering"]


class QuickSIOrdering(Ordering):
    """Infrequent-edge-first greedy ordering."""

    name = "QSI"
    needs_candidates = False

    def order(
        self,
        query: Graph,
        data: Graph,
        candidates: Optional[CandidateSets] = None,
    ) -> List[int]:
        def vertex_weight(u: int) -> int:
            return data.label_frequency(query.label(u))

        # Each query edge's weight once: the grow loop below revisits
        # every crossing edge on every step.
        edge_weight = {}
        for u, u2 in query.edges():
            w = data.edge_label_frequency(query.label(u), query.label(u2))
            edge_weight[u, u2] = edge_weight[u2, u] = w

        # Seed: the globally lightest edge; endpoints by ascending w(u).
        first_edge = min(
            query.edges(),
            key=lambda e: (edge_weight[e], e),
        )
        a, b = first_edge
        if (vertex_weight(a), a) <= (vertex_weight(b), b):
            phi = [a, b]
        else:
            phi = [b, a]
        placed = set(phi)

        # Grow: lightest edge from φ to the outside, deterministic ties.
        while len(phi) < query.num_vertices:
            best = None
            best_key = None
            for u in phi:
                for u2 in query.neighbors(u).tolist():
                    if u2 in placed:
                        continue
                    key = (edge_weight[u, u2], vertex_weight(u2), u2)
                    if best_key is None or key < best_key:
                        best, best_key = u2, key
            assert best is not None, "query must be connected"
            phi.append(best)
            placed.add(best)
        return phi
