"""Unit tests for the backtracking engine (limits, stats, modes)."""

import time

import pytest

from fixtures import PAPER_DATA, PAPER_MATCHES, PAPER_QUERY

from repro.enumeration import (
    BacktrackingEngine,
    CandidateScanLC,
    IntersectionLC,
    NeighborScanLC,
)
from repro.filtering import AuxiliaryStructure, CandidateSets, GraphQLFilter
from repro.graph import Graph, rmat_graph, extract_query
from repro.ordering import GraphQLOrdering


@pytest.fixture(scope="module")
def pipeline():
    cand = GraphQLFilter().run(PAPER_QUERY, PAPER_DATA)
    aux = AuxiliaryStructure.build(PAPER_QUERY, PAPER_DATA, cand, scope="all")
    order = GraphQLOrdering().order(PAPER_QUERY, PAPER_DATA, cand)
    return cand, aux, order


class TestBasicRun:
    def test_finds_both_matches(self, pipeline):
        cand, aux, order = pipeline
        out = BacktrackingEngine(IntersectionLC()).run(
            PAPER_QUERY, PAPER_DATA, cand, aux, order
        )
        assert out.solved
        assert out.num_matches == 2
        assert set(out.embeddings) == PAPER_MATCHES

    def test_embeddings_indexed_by_query_vertex(self, pipeline):
        cand, aux, order = pipeline
        out = BacktrackingEngine(IntersectionLC()).run(
            PAPER_QUERY, PAPER_DATA, cand, aux, order
        )
        for emb in out.embeddings:
            for u, v in enumerate(emb):
                assert PAPER_DATA.label(v) == PAPER_QUERY.label(u)

    def test_empty_candidate_set_short_circuits(self, pipeline):
        _, aux, order = pipeline
        empty = CandidateSets(PAPER_QUERY, [[0], [], [3, 5], [10]])
        out = BacktrackingEngine(CandidateScanLC()).run(
            PAPER_QUERY, PAPER_DATA, empty, None, order
        )
        assert out.num_matches == 0
        assert out.solved
        assert out.stats.recursion_calls == 0

    def test_static_mode_requires_order(self, pipeline):
        cand, aux, _ = pipeline
        with pytest.raises(ValueError, match="requires a matching order"):
            BacktrackingEngine(IntersectionLC()).run(
                PAPER_QUERY, PAPER_DATA, cand, aux, None
            )


class TestLimits:
    def test_match_limit(self, pipeline):
        cand, aux, order = pipeline
        out = BacktrackingEngine(IntersectionLC()).run(
            PAPER_QUERY, PAPER_DATA, cand, aux, order, match_limit=1
        )
        assert out.num_matches == 1
        assert out.solved  # Hitting the cap is not an unsolved query.

    def test_store_limit(self, pipeline):
        cand, aux, order = pipeline
        out = BacktrackingEngine(IntersectionLC()).run(
            PAPER_QUERY, PAPER_DATA, cand, aux, order, store_limit=1
        )
        assert out.num_matches == 2
        assert len(out.embeddings) == 1

    def test_time_limit_kills_heavy_query(self):
        # A near-unlabeled dense graph with a large query explodes; the
        # deadline must cut it off and mark it unsolved.
        data = rmat_graph(400, 16.0, 1, seed=3, clustering=0.3)
        query = extract_query(data, 12, seed=1)
        cand = GraphQLFilter().run(query, data)
        aux = AuxiliaryStructure.build(query, data, cand, scope="all")
        order = GraphQLOrdering().order(query, data, cand)
        out = BacktrackingEngine(IntersectionLC()).run(
            query, data, cand, aux, order,
            match_limit=None, time_limit=0.05,
        )
        assert not out.solved
        assert out.elapsed < 2.0

    def test_ten_ms_budget_stops_within_fifty_times(self):
        # Single-label 7-paths on this host run into the billions.
        data = rmat_graph(300, 12.0, 1, seed=5, clustering=0.3)
        path = Graph(labels=[0] * 7, edges=[(i, i + 1) for i in range(6)])
        cand = GraphQLFilter().run(path, data)
        aux = AuxiliaryStructure.build(path, data, cand, scope="all")
        order = GraphQLOrdering().order(path, data, cand)
        started = time.perf_counter()
        out = BacktrackingEngine(IntersectionLC()).run(
            path, data, cand, aux, order,
            match_limit=None, time_limit=0.01, store_limit=0,
        )
        assert not out.solved
        assert time.perf_counter() - started <= 0.5


class TestStats:
    def test_counters_populated(self, pipeline):
        cand, aux, order = pipeline
        out = BacktrackingEngine(IntersectionLC()).run(
            PAPER_QUERY, PAPER_DATA, cand, aux, order
        )
        assert out.stats.recursion_calls >= 4
        assert out.stats.candidates_scanned >= 2

    def test_conflicts_counted(self):
        # Query: path A-B-A on a data path A-B-A where both A's candidates
        # overlap -> injectivity conflicts occur.
        data = Graph(labels=[0, 1, 0], edges=[(0, 1), (1, 2)])
        query = Graph(labels=[0, 1, 0], edges=[(0, 1), (1, 2)])
        cand = GraphQLFilter().run(query, data)
        aux = AuxiliaryStructure.build(query, data, cand, scope="all")
        order = [1, 0, 2]
        out = BacktrackingEngine(IntersectionLC()).run(
            query, data, cand, aux, order
        )
        assert out.num_matches == 2
        assert out.stats.conflicts > 0


class TestTreeParent:
    def test_designated_parent_respected(self, pipeline):
        from repro.filtering import CFLFilter
        from repro.enumeration import TreeAdjacencyLC

        cand = CFLFilter().run(PAPER_QUERY, PAPER_DATA)
        tree = CFLFilter.build_tree(PAPER_QUERY, PAPER_DATA)
        aux = AuxiliaryStructure.build(
            PAPER_QUERY, PAPER_DATA, cand, scope="tree", tree=tree
        )
        # Order [0, 2, 1, 3]: u3's φ-earliest backward neighbor is u2, but
        # its tree parent is u1 — Algorithm 4 must use u1's table.
        out = BacktrackingEngine(TreeAdjacencyLC()).run(
            PAPER_QUERY, PAPER_DATA, cand, aux, [0, 2, 1, 3],
            tree_parent=tree.parent,
        )
        assert set(out.embeddings) == PAPER_MATCHES


class TestNeighborScanWithoutCandidates:
    def test_direct_enumeration(self):
        out = BacktrackingEngine(NeighborScanLC()).run(
            PAPER_QUERY, PAPER_DATA, None, None, [0, 1, 2, 3]
        )
        assert set(out.embeddings) == PAPER_MATCHES


class TestDeadlineExpiry:
    """The budget kill must leave a usable, fully-accounted result."""

    @pytest.fixture(scope="class")
    def heavy(self):
        # Near-unlabeled dense graph: the search tree explodes, so a tiny
        # budget reliably expires mid-enumeration.
        data = rmat_graph(400, 16.0, 1, seed=3, clustering=0.3)
        query = extract_query(data, 12, seed=1)
        return query, data

    def test_unsolved_outcome_keeps_partial_counters(self, heavy):
        query, data = heavy
        cand = GraphQLFilter().run(query, data)
        aux = AuxiliaryStructure.build(query, data, cand, scope="all")
        order = GraphQLOrdering().order(query, data, cand)
        out = BacktrackingEngine(IntersectionLC()).run(
            query, data, cand, aux, order,
            match_limit=None, time_limit=0.05,
        )
        assert not out.solved
        # Work done before the kill stays visible.
        assert out.stats.recursion_calls > 0
        assert out.stats.candidates_scanned > 0
        assert out.elapsed > 0.0

    def test_budget_exceeded_never_escapes_match(self, heavy):
        from repro.core import match

        query, data = heavy
        result = match(
            query, data, algorithm="GQL",
            match_limit=None, time_limit=0.05,
        )  # must not raise BudgetExceeded
        assert not result.solved

    def test_unsolved_match_records_elapsed_per_phase(self, heavy):
        from repro.core import match

        query, data = heavy
        result = match(
            query, data, algorithm="GQL",
            match_limit=None, time_limit=0.05,
        )
        assert not result.solved
        # Split timings survive the kill...
        assert result.preprocessing_seconds > 0.0
        assert result.enumeration_seconds > 0.0
        # ...and so do the per-phase metrics entries.
        phases = result.metrics.phase_seconds
        assert set(phases) == {"filter", "order", "enumerate"}
        assert all(seconds > 0.0 for seconds in phases.values())

    def test_unsolved_match_keeps_partial_metrics(self, heavy):
        from repro.core import match

        query, data = heavy
        result = match(
            query, data, algorithm="GQL",
            match_limit=None, time_limit=0.05,
        )
        counters = result.metrics.counters
        assert counters["enumerate.recursion_calls"] > 0
        assert counters["filter.candidates_final"] > 0
        assert result.metrics.filter_stages


class TestAdaptiveLCReuse:
    """The adaptive selector memoizes ComputeLC per (vertex, backward
    mapping) within a node — re-selection must not recompute."""

    def test_reuse_counter_populated(self):
        from repro.core import match

        data = rmat_graph(200, 6.0, 2, seed=5, clustering=0.2)
        query = extract_query(data, 6, seed=2)
        result = match(query, data, algorithm="DP", match_limit=500)
        counters = result.metrics.counters
        # Every search node beyond the trivial ones reconsiders the same
        # unmapped vertices, so reuse must dominate on any real query.
        assert counters["enumerate.adaptive_lc_reused"] > 0

    def test_reuse_does_not_change_results(self):
        from repro.core import match

        data = rmat_graph(200, 6.0, 2, seed=5, clustering=0.2)
        query = extract_query(data, 6, seed=2)
        baseline = match(query, data, algorithm="GQL", match_limit=None)
        adaptive = match(query, data, algorithm="DP", match_limit=None)
        # DP's adaptive order enumerates in a different sequence, so only
        # the total is comparable across algorithms.
        assert adaptive.num_matches == baseline.num_matches


class TestEmbeddingTypes:
    """Embeddings convert once, at the end — and to plain ints."""

    def test_rows_compare_and_repr_as_ints(self, pipeline):
        cand, aux, order = pipeline
        out = BacktrackingEngine(IntersectionLC()).run(
            PAPER_QUERY, PAPER_DATA, cand, aux, order
        )
        for emb in out.embeddings:
            assert all(type(v) is int for v in emb)
            assert "np" not in repr(emb)
        assert set(out.embeddings) == PAPER_MATCHES
