"""DP-iso's filtering: the candidate space construction.

Section 3.1.1: DP-iso initializes every ``C(u)`` with LDF, then runs ``k``
refinement sweeps of Filtering Rule 3.1, alternating direction over the BFS
order δ —

* sweeps in **reverse δ** refine ``C(u)`` against ``C(u')`` for the
  *forward* neighbors ``u' ∈ N_-^δ(u)`` (already refined in this sweep);
  the first sweep additionally applies NLF;
* sweeps **along δ** refine against the *backward* neighbors
  ``u' ∈ N_+^δ(u)``.

The original paper sets ``k = 3`` (reverse, forward, reverse). Time and
space complexity are ``O(|E(q)|·|E(G)|)``; the resulting candidate space
keeps adjacency for every query edge (scope ``"all"``), enabling the
set-intersection ComputeLC of Algorithm 5.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.filtering._common import nlf_keep, refine_keep
from repro.filtering.base import Filter, ldf_candidates_for
from repro.filtering.candidates import CandidateSets
from repro.filtering.roots import dpiso_root
from repro.graph.graph import Graph
from repro.graph.ops import BFSTree, bfs_tree
from repro.obs import add_counter, record_stage, span, total_candidates

__all__ = ["DPisoFilter"]


class DPisoFilter(Filter):
    """DP-iso's alternating-sweep candidate-space filter.

    Parameters
    ----------
    refinement_phases:
        The ``k`` of the paper (default 3). Phase 1, 3, 5, … run in reverse
        δ; phase 2, 4, … along δ.
    """

    name = "DP"

    def __init__(self, refinement_phases: int = 3) -> None:
        if refinement_phases < 1:
            raise ValueError("DP-iso needs at least one refinement phase")
        self.refinement_phases = refinement_phases

    def run(self, query: Graph, data: Graph) -> CandidateSets:
        tree = self.build_tree(query, data)
        position = {v: i for i, v in enumerate(tree.order)}

        with span("filter.ldf"):
            lists: List[np.ndarray] = [
                ldf_candidates_for(query, u, data) for u in query.vertices()
            ]
        record_stage("ldf", total_candidates(lists))
        scratch = np.zeros(data.num_vertices, dtype=bool)

        for phase in range(1, self.refinement_phases + 1):
            reverse = phase % 2 == 1
            apply_nlf = phase == 1
            with span(
                "filter.refine",
                rule="rule_3_1",
                phase=phase,
                direction="reverse" if reverse else "forward",
            ):
                order = reversed(tree.order) if reverse else tree.order
                for u in order:
                    if reverse:
                        anchors = [
                            w
                            for w in query.neighbors(u).tolist()
                            if position[w] > position[u]
                        ]
                    else:
                        anchors = [
                            w
                            for w in query.neighbors(u).tolist()
                            if position[w] < position[u]
                        ]
                    vs = lists[u]
                    if apply_nlf:
                        vs = nlf_keep(data, vs, query.nlf(u))
                    lists[u] = refine_keep(
                        data, vs, [lists[w] for w in anchors], scratch
                    )
            add_counter("filter.refinement_iterations")
            record_stage(f"phase_{phase}", total_candidates(lists))

        return CandidateSets(query, lists)

    @staticmethod
    def build_tree(query: Graph, data: Graph) -> BFSTree:
        """The BFS tree rooted per DP-iso's ``argmin |C_LDF(u)|/d(u)`` rule."""
        return bfs_tree(query, dpiso_root(query, data))
