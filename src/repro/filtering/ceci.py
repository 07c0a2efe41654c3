"""CECI's filtering: candidate generation for the compact embedding cluster index.

Section 3.1.1: CECI shares CFL's two rules but differs in the sweep —

1. **Construction + filtering along δ** (the BFS order). ``C(u)`` is
   generated from its parent set alone; while doing so, parent candidates
   with no child in ``C(u)`` are ruled out. Then each backward *non-tree*
   neighbor ``u_n`` prunes ``C(u)`` and is pruned back (bidirectional, per
   the paper's Example 3.3 where ``v6`` leaves ``C(u1)`` and ``v1`` leaves
   ``C(u2)``).
2. **Refinement along reverse δ.** ``C(u)`` keeps only candidates with a
   neighbor in every *child's* set — children only, which is why the paper
   finds CECI's pruning power weaker than CFL/DP-iso (Figure 8).

Time and space complexity are both ``O(|E(q)|·|E(G)|)``. CECI's auxiliary
structure covers every query edge (scope ``"all"``), enabling Algorithm 5.

Both phases are a sweep over the three array primitives of
:mod:`repro.filtering._common`: generation is ``neighbor_union`` +
``nlf_keep``, every pruning step a ``refine_keep``.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.filtering._common import neighbor_union, nlf_keep, refine_keep
from repro.filtering.base import Filter, nlf_candidates_for
from repro.filtering.candidates import CandidateSets
from repro.filtering.roots import ceci_root
from repro.graph.graph import Graph
from repro.graph.ops import BFSTree, bfs_tree
from repro.obs import add_counter, record_stage, span, total_candidates

__all__ = ["CECIFilter"]


class CECIFilter(Filter):
    """CECI's BFS-order construction and child-based refinement."""

    name = "CECI"

    def run(self, query: Graph, data: Graph) -> CandidateSets:
        tree = self.build_tree(query, data)
        scratch = np.zeros(data.num_vertices, dtype=bool)
        with span("filter.construct"):
            lists = self._construct(query, data, tree, scratch)
        record_stage("construct", total_candidates(lists))
        with span("filter.refine", rule="reverse_bfs"):
            self._refine_reverse(data, tree, lists, scratch)
        add_counter("filter.refinement_iterations")
        record_stage("reverse_bfs", total_candidates(lists))
        return CandidateSets(query, lists)

    @staticmethod
    def build_tree(query: Graph, data: Graph) -> BFSTree:
        """The BFS tree rooted per CECI's ``argmin |C_NLF(u)|/d(u)`` rule."""
        return bfs_tree(query, ceci_root(query, data))

    # ------------------------------------------------------------------

    def _construct(
        self, query: Graph, data: Graph, tree: BFSTree, scratch: np.ndarray
    ) -> List[np.ndarray]:
        n = query.num_vertices
        lists: List[Optional[np.ndarray]] = [None] * n
        position = {v: i for i, v in enumerate(tree.order)}

        root = tree.root
        lists[root] = nlf_candidates_for(query, root, data)

        for u in tree.order[1:]:
            parent = tree.parent[u]
            # Generate C(u) from the parent set alone (X = {u_p}), under
            # LDF + NLF.
            pool = neighbor_union(
                data, lists[parent], query.label(u), query.degree(u)  # type: ignore[arg-type]
            )
            lists[u] = nlf_keep(data, pool, query.nlf(u))

            # Rule out parent candidates with no child in C(u).
            self._prune_against(data, parent, u, lists, scratch)

            # Non-tree backward neighbors prune C(u) and are pruned back.
            for u_n in query.neighbors(u).tolist():
                if u_n == parent or lists[u_n] is None:
                    continue
                if position[u_n] > position[u]:
                    continue
                self._prune_against(data, u, u_n, lists, scratch)
                self._prune_against(data, u_n, u, lists, scratch)

        assert all(lst is not None for lst in lists)
        return lists  # type: ignore[return-value]

    @staticmethod
    def _prune_against(
        data: Graph,
        target: int,
        anchor: int,
        lists: List[Optional[np.ndarray]],
        scratch: np.ndarray,
    ) -> None:
        """Keep only candidates of ``target`` with a neighbor in ``C(anchor)``."""
        lists[target] = refine_keep(
            data, lists[target], [lists[anchor]], scratch  # type: ignore[arg-type]
        )

    def _refine_reverse(
        self,
        data: Graph,
        tree: BFSTree,
        lists: List[np.ndarray],
        scratch: np.ndarray,
    ) -> None:
        """Reverse-δ refinement against children only."""
        for u in reversed(tree.order):
            if tree.children[u]:
                lists[u] = refine_keep(
                    data,
                    lists[u],
                    [lists[child] for child in tree.children[u]],
                    scratch,
                )
