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

The refinement pays the matching term once per *query*, not once per
candidate or per query vertex (:func:`semi_perfect_keep`). ``C(u)``
changes only while ``u`` itself is refined, so one gather per sweep
lays out the neighbor slices of every ``C(u)``. At ``u``'s turn bit
``i`` of a scratch word over ``V(G)`` says "member of ``C(u'_i)``", and
reading that scratch over ``u``'s own slice gives, per neighbor ``w`` of
``v``, the set of anchors ``w`` may be matched to. By
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
:func:`has_semi_perfect_matching` remain the scalar definitions (the
last one also decides the high-degree residue).
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

import numpy as np

from repro.filtering._common import (
    _EMPTY_I64,
    MASK_BITS,
    _gather_neighbors,
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
    "PROFILE_RADIUS",
    "profile",
    "is_subsequence",
    "has_semi_perfect_matching",
    "semi_perfect_keep",
]


#: The profile radius ``r``: the paper's 1, the only radius at which the
#: profile test is NLF containment.
PROFILE_RADIUS = 1


def profile(graph: Graph, v: int) -> Tuple[int, ...]:
    """Sorted labels of ``v`` and every vertex within :data:`PROFILE_RADIUS` hops.

    This is the paper's running example: the profile of ``u1`` in
    Figure 1(a) is ``ABCD``.
    """
    labels = [graph.label(v)]
    labels.extend(graph.label(w) for w in graph.neighbors(v).tolist())
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
    target: np.ndarray,
    anchor_lists: Sequence[np.ndarray],
    scratch: np.ndarray,
    neighbors: Tuple[np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    """The pseudo-isomorphism test for all candidates of one query vertex.

    ``target`` is ``C(u)``, ``anchor_lists`` the candidate sets of
    ``N(u)``, ``neighbors`` the neighbor slices of ``target`` as
    :func:`~repro.filtering._common._gather_neighbors` lays them out
    (charged to ``filter.neighbors_gathered`` here, where they are read).
    Keeps the ``v`` whose bipartite graph ``B_v^u`` (an edge
    ``(u'_i, w)`` for ``w ∈ N(v) ∩ C(u'_i)``) has a semi-perfect matching.
    By Hall's theorem that is: every subset ``S`` of anchors reaches at
    least ``|S|`` distinct neighbors of ``v``. Bit ``i`` of the scratch
    marks anchor ``i``, so reading it over the slices gives each
    neighbor's anchor mask; ``S`` reaches the neighbors whose mask meets
    ``S``, so each condition is one segmented count over the same array:

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
        return target
    if any(anchor.size == 0 for anchor in anchor_lists):
        return _EMPTY_I64
    if degree > MASK_BITS:
        # One anchor at a time, the scratch as a 0/1 membership bitmap.
        vs = refine_keep(data, target, anchor_lists, scratch)
        return vs[_scalar_test(data, vs, anchor_lists)]

    gathered, starts, nonempty = neighbors
    if gathered.size == 0:
        return _EMPTY_I64
    add_counter("filter.neighbors_gathered", gathered.size)
    for i, anchor in enumerate(anchor_lists):
        scratch[anchor] |= 1 << i
    masks = scratch[gathered]
    for anchor in anchor_lists:
        scratch[anchor] = 0
    vs = target[nonempty]
    if degree == 1:
        return vs[np.bitwise_or.reduceat(masks, starts) != 0]
    hit = masks != 0
    hits = np.add.reduceat(hit, starts, dtype=np.int64)
    keep = hits >= degree
    keep &= np.bitwise_or.reduceat(masks, starts) == (1 << degree) - 1
    if degree == 2:
        return vs[keep]
    # The neighbors in no anchor set -- most of them, on a labelled
    # graph -- play no part in the remaining tests.
    vs, masks, hits = _restrict(vs, masks[hit], hits, keep)
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
            holds = _scalar_test(data, residue, anchor_lists)
        keep[undecided] = holds
    return vs[keep]


def _restrict(
    vs: np.ndarray, masks: np.ndarray, hits: np.ndarray, keep: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The vertices flagged in ``keep``, with their masks and hit counts."""
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

    The profile radius is :data:`PROFILE_RADIUS`.

    Parameters
    ----------
    refinement_rounds:
        Number of global-refinement sweeps ``k`` (paper default 1; the
        pseudo-isomorphism test "repeats the above procedure k times").
    """

    name = "GQL"

    def __init__(self, refinement_rounds: int = 1) -> None:
        if refinement_rounds < 0:
            raise ValueError("refinement rounds must be >= 0")
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
        return [
            nlf_keep(data, ldf_candidates_for(query, u, data), query.nlf(u))
            for u in query.vertices()
        ]

    def _global_refinement(
        self, query: Graph, data: Graph, lists: List[np.ndarray]
    ) -> None:
        """k sweeps of the pseudo subgraph-isomorphism test, in place.

        Candidates are re-checked against the *current* sets (GraphQL
        refines along an order, so removals in earlier sets strengthen
        later checks within the same sweep). While ``u`` is processed
        only ``C(u)`` changes and ``u ∉ N(u)``, so its candidates are
        independent of each other and are decided as one batch; and as
        ``C(u)`` changes only then, the neighbor slices of every ``C(u)``
        are gathered once, at the start of the sweep.
        """
        scratch = np.zeros(data.num_vertices, dtype=np.int64)
        refined = [(u, query.neighbors(u).tolist()) for u in query.vertices()]
        refined = [(u, u_neighbors) for u, u_neighbors in refined if u_neighbors]
        for sweep in range(self.refinement_rounds):
            with span("filter.refine", rule="pseudo_iso", sweep=sweep):
                changed = False
                # One gather for the sweep (of nothing, when no vertex has
                # a neighbor), cut at each vertex's slice.
                targets = [lists[u] for u, _ in refined] or [_EMPTY_I64]
                gathered, starts, nonempty = _gather_neighbors(
                    data, np.concatenate(targets), charge=False
                )
                at = np.cumsum([0] + [t.size for t in targets])
                cut = np.concatenate(([0], np.cumsum(nonempty)))[at]
                begin = np.append(starts, gathered.size)[cut].tolist()
                at, cut = at.tolist(), cut.tolist()
                bounds = zip(at, at[1:], cut, cut[1:], begin, begin[1:])
                for (u, u_neighbors), (a0, a1, c0, c1, g0, g1) in zip(refined, bounds):
                    own = gathered[g0:g1], starts[c0:c1] - g0, nonempty[a0:a1]
                    anchors = [lists[w] for w in u_neighbors]
                    kept = semi_perfect_keep(data, lists[u], anchors, scratch, own)
                    if kept.size != lists[u].size:
                        lists[u] = kept
                        changed = True
            add_counter("filter.refinement_iterations")
            record_stage("pseudo_iso", total_candidates(lists))
            if not changed:
                break
