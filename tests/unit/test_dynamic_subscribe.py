"""Unit tests for :class:`repro.dynamic.subscribe.Subscription`.

Exact embedding deltas on hand-built scenarios: additions discovered
through new edges, removals through deleted edges, idempotent stale
deltas, and the stored-set safety cap.
"""

import tracemalloc

import pytest

from repro.dynamic import (
    ADD_EDGE,
    ADD_VERTEX,
    DynamicGraph,
    Mutation,
    Subscription,
)
from repro.errors import InvalidQueryError
from repro.graph.graph import Graph


def triangle():
    return Graph(labels=[0, 1, 2], edges=[(0, 1), (1, 2), (0, 2)])


def host():
    # Triangles (0, 1, 2) and (3, 4, 5); vertex 6 (label 1) dangles off 2.
    return Graph(
        labels=[0, 1, 2, 0, 1, 2, 1],
        edges=[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 6)],
    )


def test_query_validation():
    dyn = DynamicGraph(host())
    tiny = Graph(labels=[0, 1], edges=[(0, 1)])
    with pytest.raises(InvalidQueryError):
        Subscription(tiny, dyn)
    disconnected = Graph(labels=[0, 1, 2, 0], edges=[(0, 1), (2, 3)])
    with pytest.raises(InvalidQueryError):
        Subscription(disconnected, dyn)


def test_initial_matches_and_views():
    sub = Subscription(triangle(), DynamicGraph(host()))
    assert sub.matches() == [(0, 1, 2), (3, 4, 5)]
    assert sub.num_matches == 2
    assert sub.mappings() == [
        {0: 0, 1: 1, 2: 2},
        {0: 3, 1: 4, 2: 5},
    ]
    assert sub.epoch == 0


def test_added_edge_reports_the_new_embeddings_exactly():
    dyn = DynamicGraph(host())
    sub = Subscription(triangle(), dyn)
    # 6-0 closes exactly one new triangle: (0, 6, 2).
    update = sub.on_delta(dyn.add_edge(6, 0))
    assert update.epoch == 1
    assert update.added == ((0, 6, 2),)
    assert update.removed == ()
    assert sub.matches() == [(0, 1, 2), (0, 6, 2), (3, 4, 5)]


def test_removed_edge_reports_the_dead_embeddings_exactly():
    dyn = DynamicGraph(host())
    sub = Subscription(triangle(), dyn)
    update = sub.on_delta(dyn.remove_edge(4, 5))
    assert update.added == ()
    assert update.removed == ((3, 4, 5),)
    assert sub.matches() == [(0, 1, 2)]


def test_mixed_batch_reports_both_directions():
    dyn = DynamicGraph(host())
    sub = Subscription(triangle(), dyn)
    delta = dyn.apply(
        [Mutation("remove_edge", 0, 1), Mutation(ADD_EDGE, 6, 0)]
    )
    update = sub.on_delta(delta)
    assert update.removed == ((0, 1, 2),)
    assert update.added == ((0, 6, 2),)
    assert sub.matches() == [(0, 6, 2), (3, 4, 5)]


def test_planted_vertices_join_the_standing_result():
    dyn = DynamicGraph(host())
    sub = Subscription(triangle(), dyn)
    delta = dyn.apply(
        [
            Mutation(ADD_VERTEX, 0),   # id 7
            Mutation(ADD_EDGE, 7, 4),
            Mutation(ADD_EDGE, 7, 5),
        ]
    )
    update = sub.on_delta(delta)
    assert update.added == ((7, 4, 5),)
    assert (7, 4, 5) in sub.matches()


def test_stale_and_empty_deltas_are_noops():
    dyn = DynamicGraph(host())
    sub = Subscription(triangle(), dyn)
    delta = dyn.add_edge(6, 0)
    first = sub.on_delta(delta)
    assert not first.empty
    replay = sub.on_delta(delta)  # at the subscription's epoch: no-op
    assert replay.empty and replay.epoch == sub.epoch
    assert sub.matches() == [(0, 1, 2), (0, 6, 2), (3, 4, 5)]
    # A subscription created after a batch starts current.
    late = Subscription(triangle(), dyn)
    assert late.on_delta(delta).empty
    assert late.matches() == sub.matches()


def test_match_limit_guards_construction_and_growth():
    with pytest.raises(InvalidQueryError, match="match_limit"):
        Subscription(triangle(), DynamicGraph(host()), match_limit=1)
    dyn = DynamicGraph(host())
    sub = Subscription(triangle(), dyn, match_limit=2)
    with pytest.raises(InvalidQueryError, match="match_limit"):
        sub.on_delta(dyn.add_edge(6, 0))


def hub(leaves):
    return Graph(labels=[0] * (leaves + 1), edges=[(0, v) for v in range(1, leaves + 1)])


PATH3 = Graph(labels=[0, 0, 0], edges=[(0, 1), (1, 2)])


def _peak_bytes(action):
    tracemalloc.start()
    try:
        action()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_match_limit_stops_the_enumeration_not_just_the_result():
    # A path-3 on a 1 000-leaf hub has 999 000 embeddings; the cap must
    # stop the search one past the limit rather than check afterwards.
    def construct():
        with pytest.raises(InvalidQueryError, match="match_limit"):
            Subscription(PATH3, DynamicGraph(hub(1000)), match_limit=10)

    assert _peak_bytes(construct) < 5 * 2**20
    # The same inside on_delta: no standing match (no vertex carries
    # label 2) until one new edge pins 1 000 of them at once.
    pinned = Graph(labels=[1, 0, 2], edges=[(0, 1), (1, 2)])
    dyn = DynamicGraph(Graph(labels=[0] + [1] * 1000, edges=hub(1000).edges()))
    sub = Subscription(pinned, dyn, match_limit=10)
    assert sub.num_matches == 0
    delta = dyn.apply([Mutation(ADD_VERTEX, 2), Mutation(ADD_EDGE, 0, 1001)])

    def grow():
        with pytest.raises(InvalidQueryError, match="match_limit"):
            sub.on_delta(delta)

    assert _peak_bytes(grow) < 5 * 2**20


def test_a_capped_subscription_below_its_limit_is_complete():
    dyn = DynamicGraph(hub(30))
    capped = Subscription(PATH3, dyn, match_limit=31 * 30)
    uncapped = Subscription(PATH3, dyn)
    assert capped.num_matches == 30 * 29
    assert capped.matches() == uncapped.matches()
    delta = dyn.apply([Mutation(ADD_VERTEX, 0), Mutation(ADD_EDGE, 0, 31)])
    update = capped.on_delta(delta)
    assert update == uncapped.on_delta(delta)
    assert len(update.added) == 2 * 30
    assert capped.matches() == uncapped.matches()  # exactly at the cap
