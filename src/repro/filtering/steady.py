"""The STEADY baseline: Filtering Rule 3.1 iterated to a fixpoint.

Section 3.1.2: "Ideally, we can repeat refining C(u) to reach a *steady
state*, in which for each v ∈ C(u) and u ∈ V(q), v satisfies the constraint
in Observation 3.1, but this process can be time consuming." Figure 8 plots
this steady state as the lower bound the practical filters approach.

Starting from LDF + NLF (the initial sets of the algorithms STEADY lower-
bounds), we sweep all query vertices until no candidate changes — this is
arc-consistency over the "has a neighbor in every neighbor's set"
constraint, so the fixpoint is unique regardless of sweep order.
"""

from __future__ import annotations

import numpy as np

from repro.filtering._common import refine_keep
from repro.filtering.base import Filter, nlf_candidates_for
from repro.filtering.candidates import CandidateSets
from repro.graph.graph import Graph
from repro.obs import add_counter, record_stage, span, total_candidates

__all__ = ["SteadyFilter"]


class SteadyFilter(Filter):
    """Fixpoint refinement under Filtering Rule 3.1 (Figure 8's STEADY).

    A sweep is one batched ``refine_keep`` per query vertex, Gauss–Seidel:
    a later vertex already sees the sweep's earlier prunes.
    """

    name = "STEADY"

    def __init__(self, max_iterations: int = 1000) -> None:
        if max_iterations < 1:
            raise ValueError("need at least one iteration")
        self.max_iterations = max_iterations
        #: Sweeps the last :meth:`run` needed to converge (for analysis).
        self.last_iterations = 0

    def run(self, query: Graph, data: Graph) -> CandidateSets:
        with span("filter.nlf"):
            lists = [nlf_candidates_for(query, u, data) for u in query.vertices()]
        record_stage("ldf+nlf", total_candidates(lists))
        scratch = np.zeros(data.num_vertices, dtype=bool)

        self.last_iterations = 0
        for sweep in range(self.max_iterations):
            self.last_iterations += 1
            with span("filter.refine", rule="steady", sweep=sweep):
                changed = False
                for u in query.vertices():
                    anchors = [lists[w] for w in query.neighbors(u).tolist()]
                    kept = refine_keep(data, lists[u], anchors, scratch)
                    if len(kept) != len(lists[u]):
                        lists[u] = kept
                        changed = True
            add_counter("filter.refinement_iterations")
            if not changed:
                break
        record_stage("steady", total_candidates(lists))
        return CandidateSets(query, lists)
