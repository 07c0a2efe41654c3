"""Unit tests for the Glasgow constraint-programming solver."""

import time

import pytest

from fixtures import PAPER_DATA, PAPER_MATCHES, PAPER_QUERY

from repro.glasgow import GlasgowSolver, glasgow_match
from repro.glasgow.solver import _degree_sequence_dominates
from repro.graph import Graph, rmat_graph, extract_query


class TestDegreeSequences:
    def test_dominates(self):
        assert _degree_sequence_dominates([3, 2], [4, 2, 1])
        assert not _degree_sequence_dominates([3, 2], [2, 2, 2])
        assert not _degree_sequence_dominates([1, 1, 1], [5, 5])
        assert _degree_sequence_dominates([], [1])


class TestInitialDomains:
    def test_label_filtering(self):
        solver = GlasgowSolver(PAPER_QUERY, PAPER_DATA)
        domains = solver.initial_domains()
        # u0 (label A): only v0 qualifies.
        assert domains[0] == 1 << 0

    def test_degree_sequence_filtering(self):
        solver = GlasgowSolver(PAPER_QUERY, PAPER_DATA)
        domains = solver.initial_domains()
        # v8 (B, degree 1) cannot host u1 (B, degree 3).
        assert not domains[1] & (1 << 8)

    def test_domains_complete(self):
        solver = GlasgowSolver(PAPER_QUERY, PAPER_DATA)
        domains = solver.initial_domains()
        for embedding in PAPER_MATCHES:
            for u, v in enumerate(embedding):
                assert domains[u] & (1 << v), (u, v)


class TestSolve:
    def test_paper_example(self):
        result = glasgow_match(PAPER_QUERY, PAPER_DATA)
        assert result.algorithm == "GLW"
        assert set(result.embeddings) == PAPER_MATCHES
        assert result.solved

    def test_match_limit(self):
        result = glasgow_match(PAPER_QUERY, PAPER_DATA, match_limit=1)
        assert result.num_matches == 1

    def test_store_limit(self):
        result = glasgow_match(PAPER_QUERY, PAPER_DATA, store_limit=1)
        assert result.num_matches == 2
        assert len(result.embeddings) == 1

    def test_no_match(self):
        q = Graph(labels=[9, 9, 9], edges=[(0, 1), (1, 2)])
        assert glasgow_match(q, PAPER_DATA).num_matches == 0

    def test_time_limit(self):
        data = rmat_graph(400, 16.0, 1, seed=3, clustering=0.3)
        query = extract_query(data, 12, seed=1)
        result = glasgow_match(query, data, match_limit=None, time_limit=0.05)
        assert not result.solved

    def test_ten_ms_budget_stops_within_fifty_times(self):
        # Single-label 7-paths on this host run into the billions.
        data = rmat_graph(300, 12.0, 1, seed=5, clustering=0.3)
        path = Graph(labels=[0] * 7, edges=[(i, i + 1) for i in range(6)])
        started = time.perf_counter()
        result = glasgow_match(
            path, data, match_limit=None, time_limit=0.01, store_limit=0
        )
        assert not result.solved
        assert time.perf_counter() - started <= 0.5

    def test_memory_tracking(self):
        solver = GlasgowSolver(PAPER_QUERY, PAPER_DATA)
        result = solver.solve()
        assert solver.peak_domain_copies > 0
        assert result.memory_bytes > 0
        assert solver.nodes_explored > 0

    def test_solver_reusable(self):
        solver = GlasgowSolver(PAPER_QUERY, PAPER_DATA)
        a = solver.solve()
        b = solver.solve()
        assert set(a.embeddings) == set(b.embeddings)


class TestValueOrdering:
    def test_high_degree_tried_first(self):
        # Query triangle of 0-labels; data has two triangles, one attached
        # to a hub. Glasgow's first recorded match should use the
        # higher-degree vertices.
        data = Graph(
            labels=[0] * 7,
            edges=[
                (0, 1), (1, 2), (0, 2),       # triangle A (low degree)
                (3, 4), (4, 5), (3, 5),       # triangle B
                (3, 6), (4, 6), (5, 6),       # hub 6 makes B high-degree
            ],
        )
        query = Graph(labels=[0, 0, 0], edges=[(0, 1), (1, 2), (0, 2)])
        result = glasgow_match(query, data, match_limit=1)
        assert set(result.embeddings[0]) <= {3, 4, 5, 6}
