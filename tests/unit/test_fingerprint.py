"""Unit tests for the order-invariant query fingerprint."""

from repro.graph import Graph, query_fingerprint, vertex_signatures


def permute(graph: Graph, perm):
    """Relabel vertices: old vertex v becomes perm[v]."""
    labels = [0] * graph.num_vertices
    for v in range(graph.num_vertices):
        labels[perm[v]] = graph.label(v)
    edges = [(perm[u], perm[v]) for u, v in graph.edges()]
    return Graph(labels=labels, edges=edges)


TRIANGLE_PLUS = Graph(
    labels=[0, 1, 0, 2],
    edges=[(0, 1), (1, 2), (2, 0), (2, 3)],
)


class TestInvariance:
    def test_identical_graphs_share_fingerprint(self):
        copy = Graph(labels=[0, 1, 0, 2],
                     edges=[(0, 1), (1, 2), (2, 0), (2, 3)])
        assert query_fingerprint(TRIANGLE_PLUS) == query_fingerprint(copy)

    def test_invariant_under_vertex_relabeling(self):
        for perm in ([3, 2, 1, 0], [1, 0, 3, 2], [2, 3, 0, 1]):
            renumbered = permute(TRIANGLE_PLUS, perm)
            assert query_fingerprint(renumbered) == query_fingerprint(
                TRIANGLE_PLUS
            ), perm

    def test_invariant_under_edge_order(self):
        shuffled = Graph(labels=[0, 1, 0, 2],
                         edges=[(2, 3), (2, 0), (1, 2), (0, 1)])
        assert query_fingerprint(shuffled) == query_fingerprint(TRIANGLE_PLUS)


class TestMemo:
    def test_memoized_value_equals_a_fresh_computation(self):
        first = query_fingerprint(TRIANGLE_PLUS)
        assert TRIANGLE_PLUS._fingerprint == first
        assert query_fingerprint(TRIANGLE_PLUS) is first  # the slot, not a rehash
        twin = Graph(
            labels=TRIANGLE_PLUS.labels.tolist(),
            edges=list(TRIANGLE_PLUS.edges()),
        )
        assert twin._fingerprint is None
        assert query_fingerprint(twin) == first


class TestSensitivity:
    def test_label_change_changes_fingerprint(self):
        relabeled = Graph(labels=[0, 1, 1, 2],
                          edges=[(0, 1), (1, 2), (2, 0), (2, 3)])
        assert query_fingerprint(relabeled) != query_fingerprint(TRIANGLE_PLUS)

    def test_edge_change_changes_fingerprint(self):
        rewired = Graph(labels=[0, 1, 0, 2],
                        edges=[(0, 1), (1, 2), (2, 0), (1, 3)])
        assert query_fingerprint(rewired) != query_fingerprint(TRIANGLE_PLUS)

    def test_extra_vertex_changes_fingerprint(self):
        bigger = Graph(labels=[0, 1, 0, 2, 0],
                       edges=[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
        assert query_fingerprint(bigger) != query_fingerprint(TRIANGLE_PLUS)


class TestFormat:
    def test_prefix_carries_counts(self):
        assert query_fingerprint(TRIANGLE_PLUS).startswith("q4e4-")

    def test_vertex_signatures_are_order_invariant_as_multiset(self):
        perm = [2, 0, 3, 1]
        original = sorted(vertex_signatures(TRIANGLE_PLUS))
        renumbered = sorted(vertex_signatures(permute(TRIANGLE_PLUS, perm)))
        assert original == renumbered

    def test_signature_content(self):
        sigs = vertex_signatures(TRIANGLE_PLUS)
        # Vertex 3: label 2, degree 1, one label-0 neighbor.
        assert sigs[3] == (2, 1, ((0, 1),))
