"""CFL's filtering: the candidate generation behind the compressed path index.

Section 3.1.1: CFL builds its auxiliary structure in two phases over a BFS
tree ``q_t`` of the query —

1. **Top-down generation.** Along the BFS order, ``C(u)`` is generated from
   the already-generated neighbors of ``u`` with Generation Rule 3.1
   (intersecting their candidate neighborhoods) under LDF + NLF checks.
   At each step, *backward pruning* applies Filtering Rule 3.1 through
   non-tree edges: once ``C(u)`` exists, candidates of earlier non-tree
   neighbors with no neighbor in ``C(u)`` are removed (this is how ``v6``
   leaves ``C(u1)`` in the paper's Example 3.2).
2. **Bottom-up refinement.** Along the reverse BFS order, ``C(u)`` keeps
   only candidates with a neighbor in every later neighbor's set (this is
   how ``v1`` leaves ``C(u2)`` in Example 3.2).

Time complexity ``O(|E(q)|·|E(G)|)``; the auxiliary structure CFL pairs with
these sets covers *tree edges only* (scope ``"tree"``), which is what limits
its ComputeLC to Algorithm 4.

Both phases are a sweep over the three array primitives of
:mod:`repro.filtering._common`: generation is ``neighbor_union`` +
``nlf_keep``, every Filtering Rule 3.1 step a ``refine_keep``.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.filtering._common import neighbor_union, nlf_keep, refine_keep
from repro.filtering.base import Filter, ldf_candidates_for
from repro.filtering.candidates import CandidateSets
from repro.filtering.roots import cfl_root
from repro.graph.graph import Graph
from repro.graph.ops import BFSTree, bfs_tree
from repro.obs import add_counter, record_stage, span, total_candidates

__all__ = ["CFLFilter"]


class CFLFilter(Filter):
    """CFL's two-phase candidate filtering over a BFS tree."""

    name = "CFL"

    def run(self, query: Graph, data: Graph) -> CandidateSets:
        tree = self.build_tree(query, data)
        scratch = np.zeros(data.num_vertices, dtype=bool)
        with span("filter.top_down"):
            lists = self._generate(query, data, tree, scratch)
        record_stage("top_down", total_candidates(lists))
        with span("filter.refine", rule="bottom_up"):
            self._refine_bottom_up(query, data, tree, lists, scratch)
        add_counter("filter.refinement_iterations")
        record_stage("bottom_up", total_candidates(lists))
        return CandidateSets(query, lists)

    @staticmethod
    def build_tree(query: Graph, data: Graph) -> BFSTree:
        """The BFS tree ``q_t`` rooted per CFL's root-selection rule."""
        return bfs_tree(query, cfl_root(query, data))

    # ------------------------------------------------------------------

    def _generate(
        self, query: Graph, data: Graph, tree: BFSTree, scratch: np.ndarray
    ) -> List[np.ndarray]:
        """Top-down generation with per-level backward pruning.

        Backward pruning applies Filtering Rule 3.1 only through non-tree
        edges between *same-level* vertices (this is how ``v6`` leaves
        ``C(u1)`` via ``e(u1, u2)`` in Example 3.2); cross-level non-tree
        edges participate in generation (their earlier endpoint is in the
        Generation Rule's ``X``) but prune upward only in the bottom-up
        refinement phase.
        """
        n = query.num_vertices
        lists: List[Optional[np.ndarray]] = [None] * n
        depth = tree.depth

        for u in tree.order:
            backward = [
                w
                for w in query.neighbors(u).tolist()
                if lists[w] is not None
            ]
            lists[u] = self._generate_one(query, data, u, backward, lists, scratch)

            # Same-level backward pruning (necessarily non-tree edges,
            # since tree edges always cross levels).
            for w in backward:
                if depth[w] != depth[u]:
                    continue
                lists[w] = refine_keep(data, lists[w], [lists[u]], scratch)

        assert all(lst is not None for lst in lists)
        return lists  # type: ignore[return-value]

    def _generate_one(
        self,
        query: Graph,
        data: Graph,
        u: int,
        backward: List[int],
        lists: List[Optional[np.ndarray]],
        scratch: np.ndarray,
    ) -> np.ndarray:
        """Generation Rule 3.1 for one vertex, under LDF + NLF checks."""
        if not backward:
            # The root: plain LDF + NLF.
            pool = ldf_candidates_for(query, u, data)
            others: List[np.ndarray] = []
        else:
            # Expand from the smallest backward candidate set.
            seed = min(backward, key=lambda w: len(lists[w]))  # type: ignore[arg-type]
            others = [lists[w] for w in backward if w != seed]  # type: ignore[misc]
            pool = neighbor_union(
                data, lists[seed], query.label(u), query.degree(u)  # type: ignore[arg-type]
            )
        survivors = nlf_keep(data, pool, query.nlf(u))
        return refine_keep(data, survivors, others, scratch)

    @staticmethod
    def _refine_bottom_up(
        query: Graph,
        data: Graph,
        tree: BFSTree,
        lists: List[np.ndarray],
        scratch: np.ndarray,
    ) -> None:
        """Reverse-BFS sweep of Filtering Rule 3.1 over *deeper* neighbors.

        Per Example 3.2, the bottom-up phase prunes ``C(u)`` only against
        neighbors at strictly greater tree depth (``C(u1)`` and ``C(u2)``
        are refined based on ``C(u3)``, not against each other).
        """
        depth = tree.depth
        for u in reversed(tree.order):
            deeper = [
                w
                for w in query.neighbors(u).tolist()
                if depth[w] > depth[u]
            ]
            if not deeper:
                continue
            lists[u] = refine_keep(
                data, lists[u], [lists[w] for w in deeper], scratch
            )
