"""Unit tests for :mod:`repro.dynamic.incremental`.

The property suite (``tests/property/test_prop_dynamic.py``) explores
random interleavings; this file pins the deterministic contracts —
query-DAG shape, delta soundness on hand-built scenarios, and the
strict epoch ordering ``apply_delta`` enforces.
"""

import pytest

from repro.dynamic import (
    ADD_EDGE,
    ADD_VERTEX,
    REMOVE_EDGE,
    DynamicGraph,
    IncrementalCandidates,
    Mutation,
)
from repro.dynamic.incremental import query_dag
from repro.filtering.candidates import CandidateSets
from repro.graph.graph import Graph


def triangle():
    return Graph(labels=[0, 1, 2], edges=[(0, 1), (1, 2), (0, 2)])


def host():
    # Two label-compatible triangles (0,1,2) and (3,4,5) plus a spare
    # vertex 6 with label 1 that is not yet wired into any triangle.
    return Graph(
        labels=[0, 1, 2, 0, 1, 2, 1],
        edges=[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 6)],
    )


def test_query_dag_is_deterministic_and_covers_every_edge():
    query = Graph(labels=[0, 1, 2, 0], edges=[(0, 1), (1, 2), (2, 3), (0, 2)])
    order, parents, children = query_dag(query)
    assert order == query_dag(query)[0]
    assert sorted(order) == list(range(query.num_vertices))
    # Root: smallest-id maximum-degree vertex (degree 3 → vertex 2).
    assert order[0] == 2
    assert parents[order[0]] == []
    # Every query edge is oriented exactly once.
    oriented = {
        (min(u, p), max(u, p)) for u in parents for p in parents[u]
    }
    assert oriented == set(query.edges())
    # parents/children are mirror images.
    for u in parents:
        for p in parents[u]:
            assert u in children[p]
    # Parents precede children in the topo order.
    position = {u: i for i, u in enumerate(order)}
    for u in parents:
        assert all(position[p] < position[u] for p in parents[u])


def test_initial_build_contains_the_embedded_triangles():
    inc = IncrementalCandidates(triangle(), host())
    sets = inc.candidate_sets().as_dict()
    assert {0, 3} <= set(sets[0])
    assert {1, 4} <= set(sets[1])
    assert {2, 5} <= set(sets[2])
    # The spare vertex 6 (label 1, but no triangle through it) must not
    # survive the two refinement passes.
    assert 6 not in sets[1]


def test_candidate_sets_container_matches_as_dict():
    inc = IncrementalCandidates(triangle(), host())
    container = inc.candidate_sets()
    assert isinstance(container, CandidateSets)
    # C(u) is the maintained top-down membership row D2(u).
    assert container.as_dict() == {
        u: [v for v, member in enumerate(inc.d2[u]) if member]
        for u in range(inc.query.num_vertices)
    }


def test_added_edge_cascades_into_the_candidate_sets():
    dyn = DynamicGraph(host())
    inc = IncrementalCandidates(triangle(), dyn)
    assert 6 not in inc.candidate_sets().as_dict()[1]
    # Wiring 6-0 closes the triangle (0, 6, 2).
    inc.apply_delta(dyn.add_edge(6, 0))
    assert 6 in inc.candidate_sets().as_dict()[1]
    assert inc.equal_state(inc.rebuild())


def test_removed_edge_cascades_out_of_the_candidate_sets():
    dyn = DynamicGraph(host())
    inc = IncrementalCandidates(triangle(), dyn)
    # Breaking triangle (3, 4, 5) must evict all three vertices.
    inc.apply_delta(dyn.remove_edge(3, 4))
    sets = inc.candidate_sets().as_dict()
    assert 3 not in sets[0] and 4 not in sets[1] and 5 not in sets[2]
    assert sets[0] == [0] and sets[1] == [1] and sets[2] == [2]
    assert inc.equal_state(inc.rebuild())


def test_added_vertex_grows_the_state_and_can_join_matches():
    dyn = DynamicGraph(host())
    inc = IncrementalCandidates(triangle(), dyn)
    delta = dyn.apply(
        [
            Mutation(ADD_VERTEX, 0),
            Mutation(ADD_EDGE, 7, 4),
            Mutation(ADD_EDGE, 7, 5),
        ]
    )
    inc.apply_delta(delta)
    assert inc.seed.shape[1] == dyn.num_vertices
    assert 7 in inc.candidate_sets().as_dict()[0]  # (7, 4, 5) is a fresh triangle
    assert inc.equal_state(inc.rebuild())


def test_empty_delta_is_a_noop():
    dyn = DynamicGraph(host())
    inc = IncrementalCandidates(triangle(), dyn)
    before = inc.candidate_sets().as_dict()
    inc.apply_delta(dyn.apply([Mutation(ADD_EDGE, 0, 1)]))  # already present
    assert inc.candidate_sets().as_dict() == before


def test_apply_delta_requires_a_dynamic_graph():
    inc = IncrementalCandidates(triangle(), host())
    dyn = DynamicGraph(host())
    delta = dyn.add_edge(6, 0)
    with pytest.raises(ValueError, match="DynamicGraph"):
        inc.apply_delta(delta)


def test_apply_delta_enforces_strict_epoch_order():
    dyn = DynamicGraph(host())
    inc = IncrementalCandidates(triangle(), dyn)
    first = dyn.add_edge(6, 0)
    inc.apply_delta(first)
    # Replaying an already-folded delta is illegal (strict, not
    # idempotent — idempotency lives in Subscription.on_delta).
    with pytest.raises(ValueError, match="epoch"):
        inc.apply_delta(first)
    # Deltas must also be folded *immediately*: once the graph advances
    # past a delta that was never applied, both the stale delta and the
    # newest one are rejected — recovery is a rebuild().
    stale = dyn.remove_edge(6, 0)
    newest = dyn.add_edge(1, 6)
    with pytest.raises(ValueError, match="epoch"):
        inc.apply_delta(newest)  # skips `stale`
    with pytest.raises(ValueError, match="epoch"):
        inc.apply_delta(stale)  # graph already moved past it
    fresh = inc.rebuild()
    assert fresh.equal_state(IncrementalCandidates(triangle(), dyn))


def test_counters_record_the_incremental_work():
    dyn = DynamicGraph(host())
    inc = IncrementalCandidates(triangle(), dyn)
    assert inc.counters["dynamic.seed_checks"] == 0
    inc.apply_delta(dyn.add_edge(6, 0))
    assert inc.counters["dynamic.seed_checks"] > 0
    assert inc.counters["dynamic.flips"] > 0
