"""Property tests for the Graph substrate."""

from collections import Counter

import numpy as np
from hypothesis import given, settings

from strategies import connected_graphs, graphs

from repro.graph import dumps_graph, loads_graph
from repro.graph.ops import bfs_tree, two_core


@given(graphs())
def test_degree_sum_equals_twice_edges(g):
    assert sum(g.degree(v) for v in g.vertices()) == 2 * g.num_edges


@given(graphs())
def test_neighbor_symmetry(g):
    for u, v in g.edges():
        assert g.has_edge(u, v) and g.has_edge(v, u)
        assert u in g.neighbor_set(v) and v in g.neighbor_set(u)


@given(graphs())
def test_io_roundtrip(g):
    assert loads_graph(dumps_graph(g)) == g


@given(graphs())
def test_label_index_partition(g):
    total = sum(g.label_frequency(l) for l in g.label_set)
    assert total == g.num_vertices


@given(graphs())
def test_nlf_sums_to_degree(g):
    for v in g.vertices():
        assert sum(g.nlf(v).values()) == g.degree(v)


@given(graphs(edge_probability=0.25))
def test_neighbor_label_counts_are_the_nlf_column_wise(g):
    """Every column equals ``nlf(v).get(l, 0)`` vertex by vertex, isolated
    vertices and a label absent from the graph included; only the labels
    of ``Σ`` are kept."""
    absent = max(g.label_set) + 1
    for label in sorted(g.label_set) + [absent]:
        column = g.neighbor_label_counts(label)
        assert column.dtype == np.int32
        assert column.tolist() == [g.nlf(v).get(label, 0) for v in g.vertices()]
    assert set(g._label_counts) == g.label_set
    assert g.neighbor_label_counts(absent) is not g.neighbor_label_counts(absent)


@given(graphs(min_vertices=2))
def test_edge_label_frequency_totals(g):
    pairs = Counter()
    for u, v in g.edges():
        la, lb = g.label(u), g.label(v)
        pairs[min(la, lb), max(la, lb)] += 1
    assert sum(g.edge_label_frequency(a, b) for a, b in pairs) == g.num_edges
    for (a, b), count in pairs.items():
        assert g.edge_label_frequency(a, b) == g.edge_label_frequency(b, a) == count


@given(graphs())
@settings(max_examples=50)
def test_two_core_every_vertex_has_internal_degree_two(g):
    core = two_core(g)
    for v in core:
        internal = sum(1 for w in g.neighbors(v).tolist() if w in core)
        assert internal >= 2


@given(connected_graphs())
def test_bfs_tree_covers_all_vertices(g):
    tree = bfs_tree(g, 0)
    assert sorted(tree.order) == list(g.vertices())
    assert len(tree.tree_edges) == g.num_vertices - 1
    assert len(tree.tree_edges) + len(tree.non_tree_edges) == g.num_edges


@given(connected_graphs())
def test_bfs_depths_monotone_along_tree_edges(g):
    tree = bfs_tree(g, 0)
    for parent, child in tree.tree_edges:
        assert tree.depth[child] == tree.depth[parent] + 1


@given(graphs(min_vertices=3))
@settings(max_examples=50)
def test_induced_subgraph_preserves_structure(g):
    chosen = list(g.vertices())[: max(1, g.num_vertices // 2)]
    sub, new_to_old = g.induced_subgraph(chosen)
    for a in sub.vertices():
        for b in sub.vertices():
            if a < b:
                assert sub.has_edge(a, b) == g.has_edge(
                    new_to_old[a], new_to_old[b]
                )
