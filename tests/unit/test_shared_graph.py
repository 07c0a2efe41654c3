"""Unit tests for the zero-copy shared-memory graph (SharedMemoryStore).

Lifecycle under test: the owner publishes and later closes (which
unlinks); an attacher maps by handle, reads through the graph view,
drops the view and closes its mapping.
"""

import pickle

import numpy as np
import pytest

from repro.core.api import match
from repro.graph.generators import rmat_graph
from repro.graph.graph import Graph
from repro.graph.query_gen import extract_query
from repro.graph.store import SharedGraphHandle, SharedMemoryStore


@pytest.fixture(scope="module")
def data():
    return rmat_graph(300, 8.0, 3, seed=11, clustering=0.1)


class TestSharedGraph:
    def test_attach_round_trips_csr(self, data):
        with SharedMemoryStore.publish(data) as shared:
            with SharedMemoryStore.attach(shared.handle) as store:
                attached = store.graph()
                assert attached.num_vertices == data.num_vertices
                assert attached.num_edges == data.num_edges
                np.testing.assert_array_equal(attached.labels, data.labels)
                np.testing.assert_array_equal(attached.csr[0], data.csr[0])
                np.testing.assert_array_equal(attached.csr[1], data.csr[1])
                del attached

    def test_attached_graph_answers_queries(self, data):
        query = extract_query(data, 5, seed=2)
        expected = match(query, data, algorithm="GQL")
        with SharedMemoryStore.publish(data) as shared:
            with SharedMemoryStore.attach(shared.handle) as store:
                attached = store.graph()
                result = match(query, attached, algorithm="GQL")
                assert result.num_matches == expected.num_matches
                assert result.embeddings == expected.embeddings
                del attached

    def test_label_index_matches(self, data):
        with SharedMemoryStore.publish(data) as shared:
            with SharedMemoryStore.attach(shared.handle) as store:
                attached = store.graph()
                for label in range(int(data.labels.max()) + 1):
                    np.testing.assert_array_equal(
                        attached.vertices_with_label(label),
                        data.vertices_with_label(label),
                    )
                del attached

    def test_unlink_is_idempotent(self, data):
        shared = SharedMemoryStore.publish(data)
        shared.close()
        shared.close()

    def test_context_manager_unlinks(self, data):
        with SharedMemoryStore.publish(data) as shared:
            handle = shared.handle
        # The segment is gone: a fresh attach must fail.
        with pytest.raises(FileNotFoundError):
            SharedMemoryStore.attach(handle)

    def test_handle_pickles(self, data):
        with SharedMemoryStore.publish(data) as shared:
            handle = pickle.loads(pickle.dumps(shared.handle))
            assert handle == shared.handle
            assert isinstance(handle, SharedGraphHandle)
            with SharedMemoryStore.attach(handle) as store:
                assert store.graph().num_edges == data.num_edges

    def test_empty_graph(self):
        with SharedMemoryStore.publish(Graph([0], [])) as shared:
            with SharedMemoryStore.attach(shared.handle) as store:
                attached = store.graph()
                assert attached.num_vertices == 1
                assert attached.num_edges == 0
                del attached
