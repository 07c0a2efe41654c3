"""Canonical query fingerprints for plan caching.

A :class:`~repro.core.session.MatchSession` caches compiled
:class:`~repro.core.plan.MatchPlan` objects keyed by the *structure* of the
query, not its vertex numbering: the repeated-query workloads the paper
evaluates (many queries against one resident data graph) routinely resubmit
the same pattern under a different vertex ordering, and those must hit the
same cache slot.

:func:`query_fingerprint` hashes the multiset of per-vertex signatures
``(label, degree, sorted NLF)`` plus the multiset of edge signatures (the
unordered pair of endpoint signatures), so it is invariant under any
permutation of vertex ids but sensitive to labels, degrees and the
label-degree-NLF structure of the edge set. It is a 1-WL-style invariant,
not a full canonical form: non-isomorphic graphs *may* collide, which is
why plan contents are restricted to fingerprint-stable inputs (see
:func:`repro.core.plan.compile_plan`) and per-query *preprocessing* is
cached under exact graph equality instead.
"""

from __future__ import annotations

import hashlib
from typing import List, Tuple

from repro.graph.graph import Graph

__all__ = ["query_fingerprint", "vertex_signatures"]


def vertex_signatures(graph: Graph) -> List[Tuple]:
    """Per-vertex structural signature ``(label, degree, sorted NLF)``.

    ``signatures[v]`` depends only on ``v``'s label, degree and the label
    histogram of its neighborhood — quantities preserved by any renumbering
    of vertex ids.
    """
    return [
        (
            graph.label(v),
            graph.degree(v),
            tuple(sorted(graph.nlf(v).items())),
        )
        for v in graph.vertices()
    ]


def query_fingerprint(graph: Graph) -> str:
    """Order-invariant label-degree-NLF hash of ``graph``.

    Two graphs that differ only by a permutation of vertex ids produce the
    same fingerprint; changing any label, edge or degree changes it (up to
    hash collisions of the underlying 1-WL invariant).

    >>> g = Graph(labels=[0, 1, 2], edges=[(0, 1), (1, 2)])
    >>> h = Graph(labels=[2, 1, 0], edges=[(1, 2), (0, 1)])  # ids reversed
    >>> query_fingerprint(g) == query_fingerprint(h)
    True
    >>> query_fingerprint(g) == query_fingerprint(
    ...     Graph(labels=[0, 1, 1], edges=[(0, 1), (1, 2)])
    ... )
    False

    The value is a pure function of the graph's immutable arrays, so it is
    computed once per :class:`Graph` object and memoized on it.
    """
    if graph._fingerprint is None:
        graph._fingerprint = _compute_fingerprint(graph)
    return graph._fingerprint


def _compute_fingerprint(graph: Graph) -> str:
    signatures = vertex_signatures(graph)
    vertex_part = sorted(repr(sig) for sig in signatures)
    edge_part = sorted(
        repr(tuple(sorted((repr(signatures[u]), repr(signatures[v])))))
        for u, v in graph.edges()
    )
    payload = "|".join(
        [
            f"V={graph.num_vertices}",
            f"E={graph.num_edges}",
            ";".join(vertex_part),
            ";".join(edge_part),
        ]
    )
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return f"q{graph.num_vertices}e{graph.num_edges}-{digest[:24]}"
