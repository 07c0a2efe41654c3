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
:func:`~repro.filtering._common.nlf_keep` per query vertex.

The refinement pays the matching term once per *query vertex*, not once
per candidate (:func:`semi_perfect_keep`). While ``u`` is refined only
``C(u)`` changes, so all of ``B_v^u, v ∈ C(u)`` can be read off one
array: bit ``i`` of a scratch word over ``V(G)`` says "member of
``C(u'_i)``", and gathering that scratch over the neighbor slices of
``C(u)`` (:func:`~repro.filtering._common.anchor_masks`) gives, per
neighbor ``w`` of ``v``, the set of anchors ``w`` may be matched to. By
Hall's theorem a semi-perfect matching exists iff every anchor subset
``S`` reaches at least ``|S|`` neighbors, and "reached by ``S``" is
``mask & S != 0`` — a segmented count, no augmenting paths. Three tests
run in order of cost: (1) every singleton (that is Filtering Rule 3.1)
and ``S = N(u)``, which is already the exact answer for ``d(u) ≤ 2``,
85 % of the refinements of a sparse query stream; (2) a sufficient
condition, ``k``-th smallest per-anchor hit count ``≥ k``, which settles
every candidate with hits to spare; (3) for the rest, the remaining subsets
while ``d(u) ≤`` :data:`HALL_MAX_DEGREE`, and
:func:`has_semi_perfect_matching` candidate by candidate above it.
Hall's condition is *the* characterisation of a semi-perfect matching,
so nothing is approximated: candidate sets are identical to the scalar
loop's. :func:`profile`, :func:`is_subsequence` and
:func:`has_semi_perfect_matching` remain the scalar definitions (and the
``r > 1`` path and the high-degree residue, respectively).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.filtering._common import (
    _EMPTY_I64,
    MASK_BITS,
    anchor_masks,
    as_vertex_array,
    nlf_keep,
    refine_keep,
    segment_starts,
)
from repro.filtering.base import Filter, ldf_candidates_for
from repro.filtering.candidates import CandidateSets
from repro.graph.graph import Graph
from repro.obs import add_counter, record_stage, span, total_candidates

__all__ = [
    "GraphQLFilter",
    "HALL_MAX_DEGREE",
    "profile",
    "is_subsequence",
    "has_semi_perfect_matching",
    "semi_perfect_keep",
]


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


#: Largest ``d(u)`` whose undecided candidates are settled by checking
#: Hall's condition on every anchor subset (``2^d - d - 2`` segmented
#: counts: 3, 10, 25, 56 for ``d`` = 3..6, 119 at 7); above it they go to
#: :func:`has_semi_perfect_matching` one by one. Chosen from the ``d(u)``
#: of the e2e query pools (seed 7): 1/2/3/>=4 in 23/62/13/1.6 % of
#: ``cold_sparse``'s 3 200 refinements (max 5); ``enum_dense`` reaches 7 in
#: 3 of 320, where the sufficient test leaves 131 of the pool's 43 k
#: candidates to the scalar test — about what 119 more counts would cost.
HALL_MAX_DEGREE = 6

#: ``_HALL_SUBSETS[d]``: ``(subset mask, |subset|)`` for the anchor subsets
#: of a degree-``d`` query vertex that are neither singletons nor all of
#: ``N(u)`` (those two sizes are tested for every candidate up front).
_HALL_SUBSETS: Tuple[Tuple[Tuple[int, int], ...], ...] = tuple(
    tuple(
        (subset, subset.bit_count())
        for subset in range(1, 1 << degree)
        if 2 <= subset.bit_count() < degree
    )
    for degree in range(HALL_MAX_DEGREE + 1)
)


def semi_perfect_keep(
    data: Graph,
    target: Sequence[int],
    anchor_lists: Sequence[Sequence[int]],
    scratch: np.ndarray,
) -> np.ndarray:
    """The pseudo-isomorphism test for all candidates of one query vertex.

    ``target`` is ``C(u)`` and ``anchor_lists`` the candidate sets of
    ``N(u)``; keeps the ``v`` whose bipartite graph ``B_v^u`` (an edge
    ``(u'_i, w)`` for ``w ∈ N(v) ∩ C(u'_i)``) has a semi-perfect matching.
    By Hall's theorem that is: every subset ``S`` of anchors reaches at
    least ``|S|`` distinct neighbors of ``v``. With the anchors a
    neighbor belongs to packed into one mask per neighbor
    (:func:`~repro.filtering._common.anchor_masks`), ``S`` reaches the
    neighbors whose mask meets ``S``, so each condition is one segmented
    count over the same array:

    * singletons, i.e. Filtering Rule 3.1, and ``S = N(u)`` for every
      candidate — the whole test when ``d(u) ≤ 2``;
    * then a sufficient test on the survivors: if the ``k``-th smallest
      per-anchor hit count is at least ``k`` for every ``k``, matching
      the anchors greedily in that order never runs out of neighbors;
    * the remaining subsets only for what is still undecided, up to
      ``d(u) =`` :data:`HALL_MAX_DEGREE`; beyond it, and when the anchors
      do not fit one mask, :func:`has_semi_perfect_matching` decides.

    ``scratch`` is a zeroed int64 array over the data vertices, zeroed
    again on return.
    """
    degree = len(anchor_lists)
    if degree == 0:
        return as_vertex_array(target)
    anchors = [as_vertex_array(anchor) for anchor in anchor_lists]
    if any(anchor.size == 0 for anchor in anchors):
        return _EMPTY_I64
    if degree > MASK_BITS:
        # One anchor at a time, the scratch as a 0/1 membership bitmap.
        vs = refine_keep(data, target, anchors, scratch)
        return vs[_scalar_test(data, vs, anchors)]

    vs, masks, hits = anchor_masks(data, target, anchors, scratch)
    if vs.size == 0:
        return vs
    keep = hits >= degree
    keep &= np.bitwise_or.reduceat(masks, segment_starts(hits)) == (1 << degree) - 1
    if degree <= 2:
        return vs[keep]
    vs, masks, hits = _restrict(vs, masks, hits, keep)
    if vs.size == 0:
        return vs

    starts = segment_starts(hits)
    counts = np.stack(
        [np.add.reduceat(masks >> i & 1, starts) for i in range(degree)]
    )
    counts.sort(axis=0)
    keep = (counts >= np.arange(1, degree + 1)[:, None]).all(axis=0)
    undecided = ~keep
    if undecided.any():
        residue, masks, hits = _restrict(vs, masks, hits, undecided)
        if degree <= HALL_MAX_DEGREE:
            starts = segment_starts(hits)
            holds = np.ones(residue.size, dtype=bool)
            for subset, size in _HALL_SUBSETS[degree]:
                reached = np.add.reduceat(
                    (masks & subset) != 0, starts, dtype=np.int64
                )
                holds &= reached >= size
        else:
            holds = _scalar_test(data, residue, anchors)
        keep[undecided] = holds
    return vs[keep]


def _restrict(
    vs: np.ndarray, masks: np.ndarray, hits: np.ndarray, keep: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The :func:`anchor_masks` triple of the vertices flagged in ``keep``."""
    return vs[keep], masks[np.repeat(keep, hits)], hits[keep]


def _scalar_test(
    data: Graph, vertices: np.ndarray, anchors: Sequence[np.ndarray]
) -> np.ndarray:
    """The definition, one candidate at a time: build ``B_v^u``, run Kuhn."""
    membership = [set(anchor.tolist()) for anchor in anchors]
    verdicts = np.zeros(vertices.size, dtype=bool)
    for k, v in enumerate(vertices.tolist()):
        v_neighbors = data.neighbors(v).tolist()
        adjacency = [
            [j for j, w in enumerate(v_neighbors) if w in allowed]
            for allowed in membership
        ]
        verdicts[k] = has_semi_perfect_matching(
            len(anchors), adjacency, len(v_neighbors)
        )
    return verdicts


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
        independent of each other and are decided as one batch.
        """
        scratch = np.zeros(data.num_vertices, dtype=np.int64)
        for sweep in range(self.refinement_rounds):
            with span("filter.refine", rule="pseudo_iso", sweep=sweep):
                changed = False
                for u in query.vertices():
                    u_neighbors = query.neighbors(u).tolist()
                    if not u_neighbors:
                        continue
                    kept = semi_perfect_keep(
                        data, lists[u], [lists[w] for w in u_neighbors], scratch
                    )
                    if kept.size != lists[u].size:
                        lists[u] = kept
                        changed = True
            add_counter("filter.refinement_iterations")
            record_stage("pseudo_iso", total_candidates(lists))
            if not changed:
                break
