"""Unit tests for NEC query compression (TurboIso-style, Section 3.4)."""

import time

import pytest

from fixtures import PAPER_DATA, PAPER_MATCHES, PAPER_QUERY

from repro.baselines import brute_force_matches
from repro.extensions import (
    compress_query,
    count_matches_compressed,
    match_compressed,
    neighborhood_equivalence_classes,
)
from repro.graph import Graph


class TestClasses:
    def test_star_leaves_merge(self):
        star = Graph(labels=[0, 1, 1, 1], edges=[(0, 1), (0, 2), (0, 3)])
        assert neighborhood_equivalence_classes(star) == [[0], [1, 2, 3]]

    def test_same_label_clique_merges(self):
        clique = Graph(
            labels=[0, 0, 0, 0],
            edges=[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
        )
        assert neighborhood_equivalence_classes(clique) == [[0, 1, 2, 3]]

    def test_different_labels_do_not_merge(self):
        star = Graph(labels=[0, 1, 2, 1], edges=[(0, 1), (0, 2), (0, 3)])
        assert neighborhood_equivalence_classes(star) == [[0], [1, 3], [2]]

    def test_path_has_no_twins(self):
        path = Graph(labels=[0, 0, 0], edges=[(0, 1), (1, 2)])
        # Endpoints share the neighborhood {1}: false twins.
        assert neighborhood_equivalence_classes(path) == [[0, 2], [1]]

    def test_paper_query_incompressible(self):
        classes = neighborhood_equivalence_classes(PAPER_QUERY)
        assert classes == [[0], [1], [2], [3]]


class TestCompressedQuery:
    def test_star_structure(self):
        star = Graph(labels=[0, 1, 1, 1], edges=[(0, 1), (0, 2), (0, 3)])
        c = compress_query(star)
        assert c.num_classes == 2
        assert c.compression_ratio == 2.0
        assert c.expansion_factor == 6  # 3! leaf permutations
        assert c.clique == (False, False)
        assert c.edges == ((0, 1),)

    def test_clique_flag(self):
        triangle = Graph(labels=[0, 0, 0], edges=[(0, 1), (1, 2), (0, 2)])
        c = compress_query(triangle)
        assert c.clique == (True,)
        assert c.expansion_factor == 6

    def test_neighbor_classes(self):
        star = Graph(labels=[0, 1, 1, 1], edges=[(0, 1), (0, 2), (0, 3)])
        c = compress_query(star)
        assert c.neighbor_classes(0) == [1]
        assert c.neighbor_classes(1) == [0]


class TestMatching:
    def test_paper_example(self):
        result = match_compressed(PAPER_QUERY, PAPER_DATA, match_limit=None)
        assert result.num_matches == 2
        assert set(result.embeddings) == PAPER_MATCHES

    def test_star_counts(self):
        host = Graph(
            labels=[0, 1, 1, 1, 1, 0],
            edges=[(0, 1), (0, 2), (0, 3), (0, 4), (5, 1)],
        )
        star = Graph(labels=[0, 1, 1, 1], edges=[(0, 1), (0, 2), (0, 3)])
        assert count_matches_compressed(star, host) == len(
            brute_force_matches(star, host)
        )

    def test_clique_query_counts(self):
        host = Graph(
            labels=[0] * 5,
            edges=[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (2, 4), (3, 0)],
        )
        triangle = Graph(labels=[0, 0, 0], edges=[(0, 1), (1, 2), (0, 2)])
        assert count_matches_compressed(triangle, host) == len(
            brute_force_matches(triangle, host)
        )

    def test_embeddings_are_valid(self):
        host = Graph(
            labels=[0, 1, 1, 1, 1],
            edges=[(0, 1), (0, 2), (0, 3), (0, 4)],
        )
        star = Graph(labels=[0, 1, 1], edges=[(0, 1), (0, 2)])
        result = match_compressed(star, host, match_limit=None)
        oracle = brute_force_matches(star, host)
        assert set(result.embeddings) == set(oracle)

    def test_match_limit_respected(self):
        host = Graph(
            labels=[0, 1, 1, 1, 1],
            edges=[(0, 1), (0, 2), (0, 3), (0, 4)],
        )
        star = Graph(labels=[0, 1, 1], edges=[(0, 1), (0, 2)])
        result = match_compressed(star, host, match_limit=5)
        # Counting proceeds in expansion-factor steps; the cap stops at or
        # just past the limit.
        assert 5 <= result.num_matches <= 6

    def test_no_match(self):
        host = Graph(labels=[2, 2, 2], edges=[(0, 1), (1, 2)])
        star = Graph(labels=[0, 1, 1], edges=[(0, 1), (0, 2)])
        assert count_matches_compressed(star, host) == 0

    def test_time_limit(self):
        from repro.graph import rmat_graph

        host = rmat_graph(300, 12.0, 1, seed=5, clustering=0.3)
        clique = Graph(
            labels=[0] * 5,
            edges=[(a, b) for a in range(5) for b in range(a + 1, 5)],
        )
        started = time.perf_counter()
        result = match_compressed(
            clique, host, match_limit=None, time_limit=0.01
        )
        elapsed = time.perf_counter() - started
        # C(239, 5) ≈ 6.2e9 tuples cannot finish in 10 ms: the run must
        # report unsolved, and within 100× its budget.
        assert result.solved is False
        assert elapsed <= 1.0


@pytest.mark.parametrize("seed", range(8))
def test_agrees_with_brute_force_randomized(seed):
    from repro.graph import erdos_renyi_graph, extract_query
    from repro.errors import InvalidQueryError

    host = erdos_renyi_graph(14, 4.0, 2, seed=500 + seed)
    try:
        query = extract_query(host, 4, seed=seed, max_attempts=50)
    except InvalidQueryError:
        pytest.skip("host too sparse for a 4-vertex query")
    oracle = brute_force_matches(query, host)
    result = match_compressed(
        query, host, match_limit=None, store_limit=len(oracle) + 10
    )
    assert result.num_matches == len(oracle)
    assert set(result.embeddings) == set(oracle)
