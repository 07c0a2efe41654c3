"""A classic VF2-style matcher (Cordella et al., TPAMI 2004).

The study's Table 1 lists VF2 under the state-space-representation model.
We implement the *monomorphism* semantics used throughout the paper
(query edges must be preserved; extra data edges are allowed) with VF2's
core feasibility rules:

* label consistency and degree lookahead,
* core rule — every mapped neighbor of the query vertex must map to a
  neighbor of the data vertex,
* 1-look-ahead on the *terminal* sets (frontier sizes).

Independent of the framework code, so it serves as an oracle. It has
no time budget, by design: its callers (the QA differential and the
tests) run it on instances small enough to finish, and an oracle that
stopped early would have no answer to compare. Budgeted search is the
framework engines' job (``time_limit`` on :func:`repro.core.api.match`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.graph.graph import Graph

__all__ = ["vf2_matches", "iter_vf2_matches"]


def _connected_order(query: Graph) -> List[int]:
    """A BFS order from vertex 0 — VF2 expands along connectivity."""
    order: List[int] = []
    seen = [False] * query.num_vertices
    for start in query.vertices():
        if seen[start]:
            continue
        seen[start] = True
        queue = [start]
        while queue:
            u = queue.pop(0)
            order.append(u)
            for w in query.neighbors(u).tolist():
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
    return order


def iter_vf2_matches(
    query: Graph, data: Graph, limit: Optional[int] = None
) -> Iterator[Tuple[int, ...]]:
    """Yield matches as tuples ``t`` with ``t[u]`` the image of ``u``."""
    order = _connected_order(query)
    n = query.num_vertices
    mapping: Dict[int, int] = {}
    used: set = set()
    found = 0

    backward: List[List[int]] = []
    for i, u in enumerate(order):
        before = set(order[:i])
        backward.append(
            [w for w in query.neighbors(u).tolist() if w in before]
        )

    def candidates(depth: int) -> List[int]:
        u = order[depth]
        anchors = backward[depth]
        if not anchors:
            return [
                v
                for v in data.vertices_with_label(query.label(u)).tolist()
                if data.degree(v) >= query.degree(u)
            ]
        # Expand from the first mapped anchor's data neighbors.
        base = data.neighbors(mapping[anchors[0]]).tolist()
        label = query.label(u)
        degree = query.degree(u)
        result = []
        for v in base:
            if data.label(v) != label or data.degree(v) < degree:
                continue
            if all(data.has_edge(v, mapping[w]) for w in anchors[1:]):
                result.append(v)
        return result

    def search(depth: int) -> Iterator[Tuple[int, ...]]:
        nonlocal found
        if depth == n:
            result = tuple(mapping[u] for u in range(n))
            found += 1
            yield result
            return
        u = order[depth]
        for v in candidates(depth):
            if v in used:
                continue
            # 1-look-ahead: v must have enough unmapped neighbors to host
            # u's unmapped neighbors.
            unmapped_q = sum(
                1 for w in query.neighbors(u).tolist() if w not in mapping
            )
            unmapped_d = sum(
                1 for w in data.neighbors(v).tolist() if w not in used
            )
            if unmapped_d < unmapped_q:
                continue
            mapping[u] = v
            used.add(v)
            yield from search(depth + 1)
            del mapping[u]
            used.discard(v)
            if limit is not None and found >= limit:
                return

    yield from search(0)


def vf2_matches(
    query: Graph, data: Graph, limit: Optional[int] = None
) -> FrozenSet[Tuple[int, ...]]:
    """All (or the first ``limit``) matches of ``query`` in ``data``."""
    return frozenset(iter_vf2_matches(query, data, limit=limit))
