"""Unit tests for BoostIso-style data-graph compression."""

import time

import pytest

from fixtures import PAPER_DATA, PAPER_MATCHES, PAPER_QUERY

from repro.baselines import brute_force_matches
from repro.extensions import (
    compress_data_graph,
    count_matches_data_compressed,
    match_data_compressed,
)
from repro.graph import Graph, rmat_graph


class TestCompression:
    def test_star_leaves_fold(self):
        host = Graph(labels=[0, 1, 1, 1, 1], edges=[(0, 1), (0, 2), (0, 3), (0, 4)])
        c = compress_data_graph(host)
        assert c.members == ((0,), (1, 2, 3, 4))
        assert c.compression_ratio == 2.5
        assert c.clique == (False, False)
        assert c.skeleton.num_edges == 1

    def test_clique_folds_to_one(self):
        k4 = Graph(
            labels=[0] * 4,
            edges=[(a, b) for a in range(4) for b in range(a + 1, 4)],
        )
        c = compress_data_graph(k4)
        assert c.members == ((0, 1, 2, 3),)
        assert c.clique == (True,)

    def test_labels_separate_classes(self):
        host = Graph(labels=[0, 1, 2, 1], edges=[(0, 1), (0, 2), (0, 3)])
        c = compress_data_graph(host)
        assert c.members == ((0,), (1, 3), (2,))

    def test_incompressible_graph(self):
        path = Graph(labels=[0, 1, 2], edges=[(0, 1), (1, 2)])
        c = compress_data_graph(path)
        assert c.compression_ratio == 1.0
        assert c.skeleton == path

    def test_skeleton_adjacency_uniform(self):
        host = Graph(
            labels=[0, 1, 1, 2],
            edges=[(0, 1), (0, 2), (1, 3), (2, 3)],
        )
        c = compress_data_graph(host)
        # Classes: {0}, {1,2}, {3}; skeleton is a path through the pair.
        assert c.members == ((0,), (1, 2), (3,))
        assert c.skeleton.has_edge(0, 1) and c.skeleton.has_edge(1, 2)


class TestMatching:
    def test_paper_example(self):
        result = match_data_compressed(PAPER_QUERY, PAPER_DATA, match_limit=None)
        assert result.num_matches == 2
        assert set(result.embeddings) == PAPER_MATCHES

    def test_star_host_counts(self):
        host = Graph(labels=[0, 1, 1, 1, 1], edges=[(0, 1), (0, 2), (0, 3), (0, 4)])
        star = Graph(labels=[0, 1, 1], edges=[(0, 1), (0, 2)])
        assert count_matches_data_compressed(star, host) == 12

    def test_clique_host_counts(self):
        k4 = Graph(
            labels=[0] * 4,
            edges=[(a, b) for a in range(4) for b in range(a + 1, 4)],
        )
        triangle = Graph(labels=[0] * 3, edges=[(0, 1), (1, 2), (0, 2)])
        assert count_matches_data_compressed(triangle, k4) == 24

    def test_capacity_respected(self):
        # Two query vertices need two distinct members of a 1-member class.
        host = Graph(labels=[0, 1], edges=[(0, 1)])
        query = Graph(labels=[1, 0, 1], edges=[(0, 1), (1, 2)])
        assert count_matches_data_compressed(query, host) == 0

    def test_non_clique_class_rejects_adjacent_pair(self):
        # Query edge mapped inside a false-twin (independent) class fails.
        host = Graph(labels=[0, 1, 1], edges=[(0, 1), (0, 2)])
        query = Graph(labels=[1, 1, 0], edges=[(0, 1), (1, 2), (0, 2)])
        assert count_matches_data_compressed(query, host) == 0

    def test_compression_reuse_across_queries(self):
        host = Graph(labels=[0, 1, 1, 1, 1], edges=[(0, 1), (0, 2), (0, 3), (0, 4)])
        compressed = compress_data_graph(host)
        star2 = Graph(labels=[0, 1, 1], edges=[(0, 1), (0, 2)])
        star3 = Graph(labels=[0, 1, 1, 1], edges=[(0, 1), (0, 2), (0, 3)])
        a = match_data_compressed(star2, host, compressed=compressed)
        b = match_data_compressed(star3, host, compressed=compressed)
        assert a.num_matches == 12
        assert b.num_matches == 24

    def test_match_limit(self):
        host = Graph(labels=[0, 1, 1, 1, 1], edges=[(0, 1), (0, 2), (0, 3), (0, 4)])
        star = Graph(labels=[0, 1, 1], edges=[(0, 1), (0, 2)])
        result = match_data_compressed(star, host, match_limit=5)
        assert 5 <= result.num_matches <= 12

    def test_ten_ms_budget_stops_within_fifty_times(self):
        # Single-label 7-paths on this host run into the billions.
        host = rmat_graph(300, 12.0, 1, seed=5, clustering=0.3)
        path = Graph(labels=[0] * 7, edges=[(i, i + 1) for i in range(6)])
        started = time.perf_counter()
        result = match_data_compressed(
            path, host, match_limit=None, time_limit=0.01, store_limit=0
        )
        assert not result.solved
        assert time.perf_counter() - started <= 0.5


@pytest.mark.parametrize("seed", range(8))
def test_agrees_with_brute_force_randomized(seed):
    from repro.errors import InvalidQueryError
    from repro.graph import erdos_renyi_graph, extract_query

    host = erdos_renyi_graph(14, 4.0, 2, seed=800 + seed)
    try:
        query = extract_query(host, 4, seed=seed, max_attempts=50)
    except InvalidQueryError:
        pytest.skip("host too sparse")
    oracle = brute_force_matches(query, host)
    result = match_data_compressed(
        query, host, match_limit=None, store_limit=len(oracle) + 10
    )
    assert result.num_matches == len(oracle)
    assert set(result.embeddings) == set(oracle)
