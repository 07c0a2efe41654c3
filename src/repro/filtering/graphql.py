"""GraphQL's candidate filtering: profile pruning + pseudo-isomorphism.

Section 3.1.1: GraphQL works in two steps.

1. **Local pruning** — the *profile* of a vertex is the lexicographic
   (sorted) sequence of the labels of the vertex and of all vertices within
   distance ``r``. ``v`` survives for ``u`` iff ``u``'s profile is a
   sub-sequence of ``v``'s (multiset inclusion, since both are sorted).
2. **Global refinement** — a pseudo subgraph-isomorphism test repeated ``k``
   times: for ``v ∈ C(u)``, build the bipartite graph ``B_v^u`` between
   ``N(u)`` and ``N(v)`` with an edge ``(u', v')`` whenever ``v' ∈ C(u')``,
   and drop ``v`` unless a *semi-perfect matching* (all of ``N(u)``
   matched) exists.

The time complexity with ``k = 1, r = 1`` is
``O(|V(q)|·|E(G)| + Σ_u Σ_v (d(u)·d(v) + Θ(d(u), d(v))))`` — higher than
CFL/CECI/DP-iso, which is the paper's explanation for GraphQL's slower
preprocessing (Figure 7) despite competitive pruning power (Figure 8).

Both steps run on the CSR arrays where the test allows it. At ``r = 1``
the candidates of ``u`` already share its label, so "sorted profile of
``u`` is a sub-sequence of ``v``'s" is exactly NLF containment,
``|N(u, l)| ≤ |N(v, l)|`` for every label ``l`` in ``N(u)``: one batched
:func:`~repro.filtering._common.nlf_keep` per query vertex. In the
refinement, a semi-perfect matching needs every ``u' ∈ N(u)`` to have
*some* neighbor of ``v`` in ``C(u')``; that necessary condition is one
batched :func:`~repro.filtering._common.refine_keep` per query vertex,
exact when ``d(u) = 1``, and only its survivors reach the matching
test. :func:`profile` and :func:`is_subsequence` remain the scalar
definition and the ``r > 1`` path.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.filtering._common import as_vertex_array, nlf_keep, refine_keep
from repro.filtering.base import Filter, ldf_candidates_for
from repro.filtering.candidates import CandidateSets
from repro.graph.graph import Graph
from repro.obs import add_counter, record_stage, span, total_candidates

__all__ = ["GraphQLFilter", "profile", "is_subsequence", "has_semi_perfect_matching"]


def profile(graph: Graph, v: int, radius: int = 1) -> Tuple[int, ...]:
    """Sorted labels of ``v`` and every vertex within ``radius`` hops.

    With ``radius=1`` this is the paper's running example: the profile of
    ``u1`` in Figure 1(a) is ``ABCD``.
    """
    if radius == 1:
        # Fast path; r=1 is the paper's default.
        labels = [graph.label(v)]
        labels.extend(graph.label(w) for w in graph.neighbors(v).tolist())
        return tuple(sorted(labels))
    seen = {v}
    frontier = deque([(v, 0)])
    labels = []
    while frontier:
        w, dist = frontier.popleft()
        labels.append(graph.label(w))
        if dist < radius:
            for x in graph.neighbors(w).tolist():
                if x not in seen:
                    seen.add(x)
                    frontier.append((x, dist + 1))
    return tuple(sorted(labels))


def is_subsequence(needle: Sequence[int], haystack: Sequence[int]) -> bool:
    """Whether sorted ``needle`` embeds into sorted ``haystack``.

    For sorted sequences this is exactly multiset inclusion.

    >>> is_subsequence((1, 2, 2), (1, 2, 2, 3))
    True
    >>> is_subsequence((1, 2, 2), (1, 2, 3))
    False
    """
    i = 0
    n = len(needle)
    if n > len(haystack):
        return False
    for x in haystack:
        if i < n and needle[i] == x:
            i += 1
        elif i < n and needle[i] < x:
            return False
    return i == n


def has_semi_perfect_matching(
    left_count: int, adjacency: Sequence[Sequence[int]], right_count: int
) -> bool:
    """Whether a bipartite graph has a matching covering every left vertex.

    ``adjacency[i]`` lists the right-side vertices reachable from left
    vertex ``i``. Kuhn's augmenting-path algorithm; the left side is a query
    neighborhood so sizes are tiny and O(V·E) is fine.
    """
    if left_count > right_count:
        return False
    match_of_right: List[int] = [-1] * right_count

    def try_augment(i: int, visited: Set[int]) -> bool:
        for j in adjacency[i]:
            if j in visited:
                continue
            visited.add(j)
            if match_of_right[j] == -1 or try_augment(match_of_right[j], visited):
                match_of_right[j] = i
                return True
        return False

    for i in range(left_count):
        if not try_augment(i, set()):
            return False
    return True


class GraphQLFilter(Filter):
    """GraphQL's local pruning + global pseudo-isomorphism refinement.

    Parameters
    ----------
    radius:
        Profile radius ``r`` (paper default 1).
    refinement_rounds:
        Number of global-refinement sweeps ``k`` (paper default 1; the
        pseudo-isomorphism test "repeats the above procedure k times").
    """

    name = "GQL"

    def __init__(self, radius: int = 1, refinement_rounds: int = 1) -> None:
        if radius < 1:
            raise ValueError("profile radius must be >= 1")
        if refinement_rounds < 0:
            raise ValueError("refinement rounds must be >= 0")
        self.radius = radius
        self.refinement_rounds = refinement_rounds

    def run(self, query: Graph, data: Graph) -> CandidateSets:
        with span("filter.local_pruning"):
            lists = self._local_pruning(query, data)
        record_stage("ldf+profile", total_candidates(lists))
        self._global_refinement(query, data, lists)
        return CandidateSets(query, lists)

    # ------------------------------------------------------------------

    def _local_pruning(self, query: Graph, data: Graph) -> List[np.ndarray]:
        """LDF + profile containment per query vertex."""
        if self.radius > 1:
            return self._profile_pruning(query, data)
        return [
            nlf_keep(data, ldf_candidates_for(query, u, data), query.nlf(u))
            for u in query.vertices()
        ]

    def _profile_pruning(self, query: Graph, data: Graph) -> List[np.ndarray]:
        """The definition, candidate by candidate: profile sub-sequence."""
        data_profiles: Dict[int, Tuple[int, ...]] = {}
        lists: List[np.ndarray] = []
        for u in query.vertices():
            u_profile = profile(query, u, self.radius)
            survivors = []
            for v in ldf_candidates_for(query, u, data).tolist():
                v_profile = data_profiles.get(v)
                if v_profile is None:
                    v_profile = profile(data, v, self.radius)
                    data_profiles[v] = v_profile
                if is_subsequence(u_profile, v_profile):
                    survivors.append(v)
            lists.append(as_vertex_array(survivors))
        return lists

    def _global_refinement(
        self, query: Graph, data: Graph, lists: List[np.ndarray]
    ) -> None:
        """k sweeps of the pseudo subgraph-isomorphism test, in place.

        Candidates are re-checked against the *current* sets (GraphQL
        refines along an order, so removals in earlier sets strengthen
        later checks within the same sweep). While ``u`` is processed
        only ``C(u)`` changes and ``u ∉ N(u)``, so its candidates are
        independent of each other and can be pre-checked as one batch.
        """
        membership: List[Set[int]] = [set(lst.tolist()) for lst in lists]
        scratch = np.zeros(data.num_vertices, dtype=bool)
        for sweep in range(self.refinement_rounds):
            with span("filter.refine", rule="pseudo_iso", sweep=sweep):
                changed = False
                for u in query.vertices():
                    u_neighbors = query.neighbors(u).tolist()
                    if not u_neighbors:
                        continue
                    kept = refine_keep(
                        data, lists[u], [lists[w] for w in u_neighbors], scratch
                    )
                    if len(u_neighbors) > 1:
                        kept = as_vertex_array(
                            [
                                v
                                for v in kept.tolist()
                                if self._pseudo_iso_ok(
                                    data, u_neighbors, v, membership
                                )
                            ]
                        )
                    if kept.size != lists[u].size:
                        lists[u] = kept
                        membership[u] = set(kept.tolist())
                        changed = True
            add_counter("filter.refinement_iterations")
            record_stage("pseudo_iso", total_candidates(lists))
            if not changed:
                break

    @staticmethod
    def _pseudo_iso_ok(
        data: Graph,
        u_neighbors: List[int],
        v: int,
        membership: List[Set[int]],
    ) -> bool:
        """Semi-perfect matching test between ``N(u)`` and ``N(v)``."""
        v_neighbors = data.neighbors(v).tolist()
        adjacency: List[List[int]] = []
        for u_prime in u_neighbors:
            allowed = membership[u_prime]
            row = [j for j, w in enumerate(v_neighbors) if w in allowed]
            if not row:
                return False
            adjacency.append(row)
        return has_semi_perfect_matching(
            len(u_neighbors), adjacency, len(v_neighbors)
        )
