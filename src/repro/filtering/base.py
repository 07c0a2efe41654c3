"""Filter interface plus the two basic rules every method builds on.

Section 3.1.1: the *label and degree filter* (LDF) admits
``C(u) = {v | L(v) = L(u) ∧ d(v) ≥ d(u)}`` and is used by every algorithm;
the *neighbor label frequency filter* (NLF) additionally requires, for each
label ``l`` among ``u``'s neighbors, ``|N(u, l)| ≤ |N(v, l)|``. CFL, CECI
and DP-iso layer NLF on top of LDF.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.filtering._common import nlf_keep
from repro.filtering.candidates import CandidateSets
from repro.graph.graph import Graph
from repro.obs import record_stage, span, total_candidates

__all__ = [
    "Filter",
    "LDFFilter",
    "NLFFilter",
    "ldf_check",
    "ldf_candidates_for",
    "nlf_candidates_for",
    "nlf_check",
]


def ldf_check(query: Graph, u: int, data: Graph, v: int) -> bool:
    """Label-and-degree check: ``L(v) = L(u)`` and ``d(v) ≥ d(u)``."""
    return data.label(v) == query.label(u) and data.degree(v) >= query.degree(u)


def nlf_check(query: Graph, u: int, data: Graph, v: int) -> bool:
    """Neighbor-label-frequency check.

    For every label ``l`` appearing among ``u``'s neighbors, ``v`` must have
    at least as many neighbors with that label. The scalar definition:
    :func:`~repro.filtering._common.nlf_keep` is the batched form every
    filter runs, and the property suite holds the two equal.
    """
    v_nlf = data.nlf(v)
    for label, needed in query.nlf(u).items():
        if v_nlf.get(label, 0) < needed:
            return False
    return True


def ldf_candidates_for(query: Graph, u: int, data: Graph):
    """The sorted LDF candidates of one query vertex (int64 array).

    One label-index lookup plus a vectorized degree mask — no per-vertex
    Python loop.
    """
    pool = data.vertices_with_label(query.label(u))
    return pool[data.degrees[pool] >= query.degree(u)]


def nlf_candidates_for(query: Graph, u: int, data: Graph):
    """The sorted LDF + NLF candidates of one query vertex — the seed."""
    return nlf_keep(data, ldf_candidates_for(query, u, data), query.nlf(u))


class Filter(ABC):
    """A candidate-generation method (the paper's "filtering method").

    Implementations must return *complete* candidate sets: every data vertex
    participating in a match of ``q`` survives filtering (Definition 2.2).
    """

    #: Short name used in reports (e.g. ``"GQL"``, ``"CFL"``).
    name: str = "?"

    @abstractmethod
    def run(self, query: Graph, data: Graph) -> CandidateSets:
        """Compute candidate sets for every query vertex."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class LDFFilter(Filter):
    """The baseline filter: label and degree only (Figure 8's LDF series)."""

    name = "LDF"

    def run(self, query: Graph, data: Graph) -> CandidateSets:
        with span("filter.ldf"):
            lists = [ldf_candidates_for(query, u, data) for u in query.vertices()]
        record_stage("ldf", total_candidates(lists))
        return CandidateSets(query, lists)


class NLFFilter(Filter):
    """LDF plus the neighbor-label-frequency rule.

    Not an algorithm on its own in the study, but the common starting point
    of CFL, CECI and DP-iso, and the filter of the default ``recommended``
    preset: at radius 1 it yields GraphQL's local-pruning sets without the
    refinement sweep (see :func:`repro.core.algorithms.recommended_spec`
    for why).
    """

    name = "NLF"

    def run(self, query: Graph, data: Graph) -> CandidateSets:
        with span("filter.ldf"):
            ldf_lists = [
                ldf_candidates_for(query, u, data) for u in query.vertices()
            ]
        record_stage("ldf", total_candidates(ldf_lists))
        with span("filter.nlf"):
            lists = [
                nlf_keep(data, ldf_list, query.nlf(u))
                for u, ldf_list in enumerate(ldf_lists)
            ]
        record_stage("nlf", total_candidates(lists))
        return CandidateSets(query, lists)
