"""Random matching orders for the spectrum analysis (Figure 14 / Table 6).

The paper permutates ``V(q)`` to sample 1000 matching orders per query and
compares their enumeration times against the orders the algorithms picked.
We sample uniformly among *connected* orders (every vertex after the first
has a backward neighbor) — disconnected prefixes force cartesian products
and are never produced by any ordering method under study.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np

from repro.filtering.candidates import CandidateSets
from repro.graph.graph import Graph
from repro.ordering.base import Ordering

__all__ = ["RandomOrdering", "random_connected_order", "sample_orders"]


def random_connected_order(
    query: Graph, rng: np.random.Generator
) -> List[int]:
    """One uniformly-chosen connected permutation of ``V(q)``.

    Grown one vertex at a time: the first vertex is uniform over ``V(q)``,
    every later one uniform over the current frontier.
    """
    start = int(rng.integers(0, query.num_vertices))
    phi = [start]
    placed = {start}
    frontier = sorted(set(query.neighbors(start).tolist()))
    while len(phi) < query.num_vertices:
        u = frontier[int(rng.integers(0, len(frontier)))]
        phi.append(u)
        placed.add(u)
        frontier = sorted(
            {
                w
                for v in placed
                for w in query.neighbors(v).tolist()
                if w not in placed
            }
        )
    return phi


def sample_orders(query: Graph, count: int, seed: int) -> Iterator[List[int]]:
    """Yield up to ``count`` distinct sampled connected orders.

    Small queries have fewer distinct connected orders than requested; the
    iterator simply stops early in that case rather than looping forever.
    """
    rng = np.random.default_rng(seed)
    seen = set()
    produced = 0
    attempts = 0
    max_attempts = 50 * count
    while produced < count and attempts < max_attempts:
        attempts += 1
        order = random_connected_order(query, rng)
        key = tuple(order)
        if key in seen:
            continue
        seen.add(key)
        produced += 1
        yield order


class RandomOrdering(Ordering):
    """A seeded random connected ordering (one sample per call)."""

    name = "RAND"
    needs_candidates = False

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def order(
        self,
        query: Graph,
        data: Graph,
        candidates: Optional[CandidateSets] = None,
    ) -> List[int]:
        return random_connected_order(query, self._rng)
