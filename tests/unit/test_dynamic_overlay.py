"""Unit tests for :class:`repro.dynamic.overlay.DynamicGraph`.

Covers apply semantics (atomic batches, tolerant no-ops, strict
validation), epoch rules, overlay cancellation, snapshot caching and
byte parity, and manual/automatic compaction.
"""

import random

import pytest

import repro.graph.graph as graph_module
from repro.dynamic import (
    ADD_EDGE,
    ADD_VERTEX,
    REMOVE_EDGE,
    DynamicGraph,
    Mutation,
)
from repro.errors import InvalidGraphError
from repro.graph.graph import Graph


def square():
    # 0-1-2-3-0 cycle with a chord (0, 2).
    return Graph(labels=[0, 1, 0, 1], edges=[(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])


def same_bytes(left: Graph, right: Graph) -> bool:
    return (
        left.store.labels.tobytes() == right.store.labels.tobytes()
        and left.store.offsets.tobytes() == right.store.offsets.tobytes()
        and left.store.neighbors.tobytes() == right.store.neighbors.tobytes()
    )


def test_compact_threshold_must_be_positive():
    with pytest.raises(ValueError):
        DynamicGraph(square(), compact_threshold=0)
    with pytest.raises(ValueError):
        DynamicGraph(square(), compact_threshold=-0.5)
    # None disables auto-compaction but is a valid configuration.
    assert DynamicGraph(square(), compact_threshold=None).epoch == 0


def test_add_edge_bumps_epoch_and_reports_delta():
    dyn = DynamicGraph(square())
    delta = dyn.add_edge(1, 3)
    assert dyn.epoch == 1
    assert delta.epoch == 1
    assert delta.added_edges == ((1, 3),)
    assert delta.removed_edges == ()
    assert delta.touched == frozenset({1, 3})
    assert dyn.has_edge(1, 3) and dyn.has_edge(3, 1)
    assert dyn.num_edges == 6


def test_noop_ops_are_tolerated_and_do_not_bump_the_epoch():
    dyn = DynamicGraph(square())
    before = dyn.snapshot()
    delta = dyn.apply(
        [Mutation(ADD_EDGE, 0, 1), Mutation(REMOVE_EDGE, 1, 3)]
    )  # edge present / edge absent: both no-ops
    assert delta.empty
    assert delta.epoch == 0 and dyn.epoch == 0
    # The cached snapshot survives an all-no-op batch untouched.
    assert dyn.snapshot() is before


def test_batch_applies_atomically_with_one_epoch_bump():
    dyn = DynamicGraph(square())
    delta = dyn.apply(
        [
            Mutation(REMOVE_EDGE, 0, 2),
            Mutation(ADD_VERTEX, 2),
            Mutation(ADD_EDGE, 1, 4),
        ]
    )
    assert dyn.epoch == 1
    assert delta.removed_edges == ((0, 2),)
    assert delta.added_vertices == ((4, 2),)
    assert delta.added_edges == ((1, 4),)
    assert delta.touched == frozenset({0, 1, 2, 4})
    assert dyn.num_vertices == 5
    assert dyn.labels_list() == [0, 1, 0, 1, 2]


def test_ops_within_a_batch_see_earlier_ops():
    dyn = DynamicGraph(square())
    # add_vertex then an edge onto the id it just created.
    dyn.apply([Mutation(ADD_VERTEX, 0), Mutation(ADD_EDGE, 4, 0)])
    assert dyn.has_edge(4, 0)
    # add then remove the same edge in one batch: net no-op edge-wise,
    # but the batch still reports both sides and bumps the epoch once.
    delta = dyn.apply([Mutation(ADD_EDGE, 1, 3), Mutation(REMOVE_EDGE, 1, 3)])
    assert delta.added_edges == ((1, 3),) and delta.removed_edges == ((1, 3),)
    assert not dyn.has_edge(1, 3)
    assert dyn.epoch == 2


@pytest.mark.parametrize(
    "batch",
    [
        [Mutation(ADD_EDGE, 1, 1)],  # self loop
        [Mutation(REMOVE_EDGE, 2, 2)],  # self loop
        [Mutation(ADD_EDGE, 0, 9)],  # out of range
        [Mutation(REMOVE_EDGE, -1, 2)],  # negative endpoint
        [Mutation(ADD_VERTEX, -3)],  # negative label
    ],
)
def test_invalid_mutations_raise(batch):
    dyn = DynamicGraph(square())
    with pytest.raises(InvalidGraphError):
        dyn.apply(batch)


@pytest.mark.parametrize(
    "batch",
    [
        [Mutation(ADD_EDGE, 0, 3), Mutation(ADD_EDGE, 1, 99)],
        [Mutation(ADD_EDGE, 0, 3), Mutation(REMOVE_EDGE, 2, 2)],
        [Mutation(REMOVE_EDGE, 0, 1), Mutation(ADD_VERTEX, -1)],
        # The appended vertex 4 is in range; 5 is not.
        [Mutation(ADD_VERTEX, 0), Mutation(ADD_EDGE, 4, 0), Mutation(ADD_EDGE, 5, 0)],
    ],
)
def test_a_batch_that_fails_part_way_leaves_no_trace(batch):
    base = Graph(labels=[0, 1, 0, 1], edges=[(0, 1), (1, 2)])
    dyn = DynamicGraph(base, compact_threshold=None)
    with pytest.raises(InvalidGraphError):
        dyn.apply(batch)
    assert dyn.epoch == 0
    assert dyn.num_vertices == 4 and dyn.num_edges == 2
    assert dyn.has_edge(0, 1) and not dyn.has_edge(0, 3)
    assert dyn.overlay_size == 0 and dyn._dirty == set()
    assert dyn.snapshot() is base
    # The next batch's delta and its snapshot agree: nothing rode along.
    delta = dyn.apply([Mutation(ADD_EDGE, 2, 3)])
    assert delta.added_edges == ((2, 3),) and delta.touched == frozenset({2, 3})
    assert same_bytes(
        dyn.snapshot(),
        Graph(labels=[0, 1, 0, 1], edges=[(0, 1), (1, 2), (2, 3)]),
    )


def test_add_vertex_returns_consecutive_dense_ids():
    dyn = DynamicGraph(square())
    assert dyn.add_vertex(7) == 4
    assert dyn.add_vertex(8) == 5
    assert dyn.num_vertices == 6
    assert dyn.label(4) == 7 and dyn.label(5) == 8
    assert dyn.degree(4) == 0 and dyn.neighbors(4) == []


def test_overlay_cancellation_readd_and_unremove():
    dyn = DynamicGraph(square())
    # Removing a base edge then re-adding it cancels the removal record.
    dyn.remove_edge(0, 2)
    assert dyn.overlay_size == 1
    dyn.add_edge(2, 0)
    assert dyn.overlay_size == 0
    assert dyn.has_edge(0, 2)
    # Adding a new edge then removing it cancels the insertion record.
    dyn.add_edge(1, 3)
    assert dyn.overlay_size == 1
    dyn.remove_edge(3, 1)
    assert dyn.overlay_size == 0
    assert not dyn.has_edge(1, 3)
    assert dyn.num_edges == square().num_edges
    assert same_bytes(dyn.snapshot(), square())


def test_overlay_size_counter_equals_the_sum_over_the_overlay():
    """The incrementally kept count is the O(overlay) sum it replaced."""

    def summed(dyn):
        added = sum(len(s) for s in dyn._added_adj.values()) // 2
        removed = sum(len(s) for s in dyn._removed_adj.values()) // 2
        return added + removed

    rng = random.Random(13)
    n = 12
    base = Graph(
        labels=[0] * n,
        edges=[(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3],
    )
    dyn = DynamicGraph(base, compact_threshold=None)
    for step in range(300):
        u, v = rng.sample(range(dyn.num_vertices), 2)
        roll = rng.random()
        if roll < 0.4:
            dyn.add_edge(u, v)
        elif roll < 0.8:
            dyn.remove_edge(u, v)
        elif roll < 0.9:
            # An op and its inverse in one batch cancel in the overlay.
            first = REMOVE_EDGE if dyn.has_edge(u, v) else ADD_EDGE
            second = ADD_EDGE if first == REMOVE_EDGE else REMOVE_EDGE
            dyn.apply([Mutation(first, u, v), Mutation(second, u, v)])
        else:
            dyn.apply([Mutation(ADD_VERTEX, 0), Mutation(ADD_EDGE, dyn.num_vertices, u)])
        assert dyn.overlay_size == summed(dyn)
        if step == 150:
            assert dyn.overlay_size > 0
            dyn.compact()
            assert dyn.overlay_size == summed(dyn) == 0
    assert dyn.overlay_size > 0


def test_reads_through_the_overlay_match_a_rebuild():
    dyn = DynamicGraph(square())
    dyn.apply(
        [
            Mutation(REMOVE_EDGE, 1, 2),
            Mutation(ADD_VERTEX, 1),
            Mutation(ADD_EDGE, 2, 4),
            Mutation(ADD_EDGE, 0, 4),
        ]
    )
    rebuilt = Graph(labels=dyn.labels_list(), edges=list(dyn.edges()))
    assert dyn.num_vertices == rebuilt.num_vertices
    assert dyn.num_edges == rebuilt.num_edges
    for v in range(dyn.num_vertices):
        assert dyn.degree(v) == rebuilt.degree(v)
        assert dyn.neighbors(v) == rebuilt.neighbors(v).tolist()
        assert dyn.nlf(v) == rebuilt.nlf(v)
    assert sorted(dyn.edges()) == sorted(rebuilt.edges())
    assert same_bytes(dyn.snapshot(), rebuilt)


def test_spliced_snapshots_keep_a_correct_label_index():
    dyn = DynamicGraph(square())
    first = dyn.snapshot()

    def assert_index_matches_a_rebuild(snap):
        rebuilt = Graph(labels=dyn.labels_list(), edges=list(dyn.edges()))
        assert same_bytes(snap, rebuilt)
        assert snap.label_set == rebuilt.label_set
        for label in rebuilt.label_set | {7}:
            assert (
                snap.vertices_with_label(label).tobytes()
                == rebuilt.vertices_with_label(label).tobytes()
            )

    dyn.apply([Mutation(ADD_EDGE, 1, 3), Mutation(REMOVE_EDGE, 0, 2)])
    edges_only = dyn.snapshot()
    assert edges_only.labels is first.labels  # shared, so is its index
    assert_index_matches_a_rebuild(edges_only)
    dyn.apply([Mutation(ADD_VERTEX, 7), Mutation(ADD_VERTEX, 0), Mutation(ADD_EDGE, 4, 0)])
    grown = dyn.snapshot()
    assert grown.labels is not edges_only.labels  # appended: rebuilt
    assert_index_matches_a_rebuild(grown)
    assert edges_only.vertices_with_label(7).size == 0  # earlier view intact


def test_spliced_snapshots_patch_inherited_columns_when_read(monkeypatch):
    """A write copies no neighbour-label column; the first read of one on
    a snapshot two writes later recounts only the vertices both rewrote,
    and then lets the inherited column go."""
    recounted = []
    count_label = graph_module._count_label

    def recording(neighbor_labels, bounds, label):
        recounted.append((bounds.size - 1, neighbor_labels.size))
        return count_label(neighbor_labels, bounds, label)

    n = 30
    base = Graph(
        labels=[v % 3 for v in range(n)],
        edges=[(v, (v + 1) % n) for v in range(n)] + [(v, (v + 7) % n) for v in range(n)],
    )
    for label in (0, 1, 2):
        base.neighbor_label_counts(label)
    dyn = DynamicGraph(base, compact_threshold=None)
    dyn.apply([Mutation(ADD_EDGE, 0, 2)])
    dyn.snapshot()
    dyn.apply([Mutation(REMOVE_EDGE, 4, 5), Mutation(ADD_VERTEX, 1), Mutation(ADD_EDGE, n, 4)])
    snap = dyn.snapshot()
    assert snap._label_counts == {}
    rebuilt = Graph(labels=dyn.labels_list(), edges=list(dyn.edges()))
    rewritten = (0, 2, 4, 5, n)
    monkeypatch.setattr(graph_module, "_count_label", recording)
    for label in (0, 1, 2):
        column = snap.neighbor_label_counts(label)
        assert recounted.pop() == (
            len(rewritten), sum(rebuilt.degree(v) for v in rewritten)
        )
        assert label not in snap._stale_counts
        assert column.tobytes() == rebuilt.neighbor_label_counts(label).tobytes()
        recounted.clear()  # the oracle's full build
        assert snap.neighbor_label_counts(label) is column
        assert recounted == []


def test_snapshot_is_cached_per_epoch():
    dyn = DynamicGraph(square())
    first = dyn.snapshot()
    assert dyn.snapshot() is first
    dyn.add_edge(1, 3)
    second = dyn.snapshot()
    assert second is not first
    assert dyn.snapshot() is second


def test_versioned_snapshot_pairs_epoch_with_view():
    dyn = DynamicGraph(square())
    epoch, snap = dyn.versioned_snapshot()
    assert epoch == 0 and snap is dyn.snapshot()
    dyn.add_edge(1, 3)
    epoch, snap = dyn.versioned_snapshot()
    assert epoch == 1
    assert snap.has_edge(1, 3)


def test_manual_compact_preserves_epoch_and_graph():
    dyn = DynamicGraph(square())
    dyn.apply([Mutation(REMOVE_EDGE, 0, 2), Mutation(ADD_EDGE, 1, 3)])
    view = dyn.snapshot()
    epoch = dyn.epoch
    base = dyn.compact()
    assert dyn.epoch == epoch
    assert dyn.overlay_size == 0
    assert dyn.compactions == 1
    assert base is dyn.base
    assert same_bytes(dyn.base, view)
    assert same_bytes(dyn.snapshot(), view)


def test_auto_compaction_past_the_op_floor():
    # A sparse base: the floor is max(64, 0.25 * |E|) = 64 ops.
    n = 70
    base = Graph(labels=[0] * n, edges=[(i, i + 1) for i in range(n - 1)])
    dyn = DynamicGraph(base)
    batch = [
        Mutation(ADD_EDGE, i, j)
        for i in range(n)
        for j in range(i + 2, n, 17)
    ][:65]
    assert len(batch) == 65  # strictly past the 64-op floor
    dyn.apply(batch)
    assert dyn.compactions == 1
    assert dyn.overlay_size == 0
    assert dyn.epoch == 1
    assert dyn.base.num_edges == base.num_edges + 65
    # With compaction disabled the same batch leaves the overlay alone.
    manual = DynamicGraph(base, compact_threshold=None)
    manual.apply(batch)
    assert manual.compactions == 0
    assert manual.overlay_size == 65
    assert same_bytes(manual.snapshot(), dyn.snapshot())
