"""Unit tests for the CSR Graph class."""

import pickle

import numpy as np
import pytest

from repro.errors import InvalidGraphError
from repro.graph import Graph


class TestConstruction:
    def test_empty_graph(self):
        g = Graph(labels=[], edges=[])
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert g.average_degree == 0.0
        assert g.max_degree == 0

    def test_single_vertex(self):
        g = Graph(labels=[7], edges=[])
        assert g.num_vertices == 1
        assert g.degree(0) == 0
        assert g.label(0) == 7

    def test_basic_path(self):
        g = Graph(labels=[0, 1, 2], edges=[(0, 1), (1, 2)])
        assert g.num_vertices == 3
        assert g.num_edges == 2
        assert g.degree(1) == 2
        assert sorted(g.neighbors(1).tolist()) == [0, 2]

    def test_duplicate_edges_collapsed(self):
        g = Graph(labels=[0, 0], edges=[(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidGraphError, match="self loop"):
            Graph(labels=[0, 0], edges=[(0, 0)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(InvalidGraphError, match="out of range"):
            Graph(labels=[0, 0], edges=[(0, 5)])

    def test_negative_label_rejected(self):
        with pytest.raises(InvalidGraphError, match="non-negative"):
            Graph(labels=[0, -1], edges=[(0, 1)])

    def test_neighbors_sorted(self):
        g = Graph(labels=[0] * 5, edges=[(0, 4), (0, 2), (0, 1), (0, 3)])
        assert g.neighbors(0).tolist() == [1, 2, 3, 4]


class TestAccessors:
    def test_has_edge_symmetric(self, triangle):
        assert triangle.has_edge(0, 1)
        assert triangle.has_edge(1, 0)

    def test_has_edge_absent(self):
        g = Graph(labels=[0, 0, 0], edges=[(0, 1)])
        assert not g.has_edge(0, 2)

    def test_neighbor_set(self, triangle):
        assert triangle.neighbor_set(0) == frozenset({1, 2})

    def test_edges_yields_each_once(self, triangle):
        edges = list(triangle.edges())
        assert sorted(edges) == [(0, 1), (0, 2), (1, 2)]
        assert all(u < v for u, v in edges)

    def test_vertices_range(self, triangle):
        assert list(triangle.vertices()) == [0, 1, 2]

    def test_labels_array(self, triangle):
        assert triangle.labels.tolist() == [0, 1, 2]


class TestLabelIndex:
    def test_vertices_with_label(self):
        g = Graph(labels=[5, 3, 5, 5], edges=[(0, 1)])
        assert g.vertices_with_label(5).tolist() == [0, 2, 3]
        assert g.vertices_with_label(3).tolist() == [1]

    def test_missing_label_empty(self, triangle):
        assert triangle.vertices_with_label(42).size == 0
        assert triangle.label_frequency(42) == 0

    def test_label_set(self):
        g = Graph(labels=[1, 1, 9], edges=[])
        assert g.label_set == frozenset({1, 9})

    def test_label_frequency(self):
        g = Graph(labels=[2, 2, 2, 0], edges=[])
        assert g.label_frequency(2) == 3
        assert g.label_frequency(0) == 1


class TestNLF:
    def test_nlf_counts(self):
        g = Graph(labels=[0, 1, 1, 2], edges=[(0, 1), (0, 2), (0, 3)])
        assert g.nlf(0) == {1: 2, 2: 1}
        assert g.nlf(3) == {0: 1}

    def test_nlf_isolated_vertex(self):
        g = Graph(labels=[0, 1], edges=[])
        assert g.nlf(0) == {}

    def test_nlf_cached_identity(self, triangle):
        assert triangle.nlf(0) is triangle.nlf(0)


class TestNeighborLabelCounts:
    def test_columns_span_every_vertex(self):
        g = Graph(labels=[0, 1, 1, 2, 0], edges=[(0, 1), (0, 2), (0, 3)])
        assert g.neighbor_label_counts(1).tolist() == [2, 0, 0, 0, 0]
        assert g.neighbor_label_counts(0).tolist() == [0, 1, 1, 1, 0]

    def test_a_label_the_graph_lacks_is_answered_but_never_kept(self):
        """Labels reach a data graph from client queries: an absent one
        must not leave a 4 B × |V| column behind each time."""
        g = Graph(labels=[0, 1, 1, 2, 0], edges=[(0, 1), (0, 2), (0, 3)])
        assert g.neighbor_label_counts(42).tolist() == [0] * 5
        assert g.edge_label_frequency(42, 1) == 0
        assert g.edge_label_frequency(1, 42) == 0
        assert g._label_counts == {}

    def test_memoised_and_left_behind_by_a_pickle(self):
        g = Graph(labels=[0, 1, 1], edges=[(0, 1), (0, 2)])
        column = g.neighbor_label_counts(1)
        assert g.neighbor_label_counts(1) is column
        clone = pickle.loads(pickle.dumps(g))
        assert clone._label_counts == {}
        assert clone.neighbor_label_counts(1).tolist() == column.tolist()


class TestEdgeLabelFrequency:
    def test_counts_unordered(self):
        g = Graph(labels=[0, 1, 0, 1], edges=[(0, 1), (2, 3), (1, 2)])
        assert g.edge_label_frequency(0, 1) == 3
        assert g.edge_label_frequency(1, 0) == 3

    def test_same_label_pair(self):
        g = Graph(labels=[0, 0, 1], edges=[(0, 1), (1, 2)])
        assert g.edge_label_frequency(0, 0) == 1
        assert g.edge_label_frequency(1, 1) == 0

    def test_missing_pair(self, triangle):
        assert triangle.edge_label_frequency(0, 42) == 0


class TestAggregates:
    def test_average_degree(self, triangle):
        assert triangle.average_degree == 2.0

    def test_max_degree(self):
        g = Graph(labels=[0] * 4, edges=[(0, 1), (0, 2), (0, 3)])
        assert g.max_degree == 3


class TestDerivedGraphs:
    def test_induced_subgraph(self, paper_data):
        sub, new_to_old = paper_data.induced_subgraph([0, 2, 12])
        assert sub.num_vertices == 3
        # v0-v2 and v2-v12 edges survive; v0-v12 does not exist.
        assert sub.num_edges == 2
        assert sorted(new_to_old.values()) == [0, 2, 12]

    def test_induced_subgraph_labels_preserved(self, paper_data):
        sub, new_to_old = paper_data.induced_subgraph([0, 4])
        for new, old in new_to_old.items():
            assert sub.label(new) == paper_data.label(old)

    def test_induced_subgraph_bad_vertex(self, triangle):
        with pytest.raises(InvalidGraphError):
            triangle.induced_subgraph([0, 99])

    def test_relabeled(self, triangle):
        g2 = triangle.relabeled([9, 9, 9])
        assert g2.labels.tolist() == [9, 9, 9]
        assert g2.num_edges == triangle.num_edges

    def test_relabeled_wrong_length(self, triangle):
        with pytest.raises(InvalidGraphError):
            triangle.relabeled([1, 2])


class TestDunder:
    def test_equality(self):
        a = Graph(labels=[0, 1], edges=[(0, 1)])
        b = Graph(labels=[0, 1], edges=[(0, 1)])
        c = Graph(labels=[0, 2], edges=[(0, 1)])
        assert a == b
        assert a != c
        assert hash(a) == hash(b)

    def test_equality_other_type(self, triangle):
        assert triangle != "not a graph"

    def test_repr(self, triangle):
        assert "|V|=3" in repr(triangle)
        assert "|E|=3" in repr(triangle)

    def test_numpy_views_not_copies(self, triangle):
        # neighbors() must be a view into the CSR (doc contract).
        view = triangle.neighbors(0)
        assert isinstance(view, np.ndarray)
