"""Unit tests for the iterative frame machine (parity, pause/resume)."""

import itertools
from dataclasses import astuple

import pytest

from engine_parity import bind
from fixtures import PAPER_DATA, PAPER_MATCHES, PAPER_QUERY

from repro.enumeration import (
    BacktrackingEngine,
    CandidateScanLC,
    FrameMachine,
    IntersectionLC,
    NeighborScanLC,
    iter_matches,
)
from repro.filtering import AuxiliaryStructure, CandidateSets, GraphQLFilter
from repro.graph import extract_query, rmat_graph
from repro.ordering import GraphQLOrdering
from repro.utils.kernels import get_kernel


@pytest.fixture(scope="module")
def pipeline():
    cand = GraphQLFilter().run(PAPER_QUERY, PAPER_DATA)
    aux = AuxiliaryStructure.build(PAPER_QUERY, PAPER_DATA, cand, scope="all")
    order = GraphQLOrdering().order(PAPER_QUERY, PAPER_DATA, cand)
    return cand, aux, order


@pytest.fixture(scope="module")
def heavy():
    # Dense graph: enough matches that a search has many leaf batches to
    # pause between (runs are always capped by match_limit below).
    data = rmat_graph(300, 8.0, 2, seed=3, clustering=0.2)
    query = extract_query(data, 5, seed=1)
    cand = GraphQLFilter().run(query, data)
    aux = AuxiliaryStructure.build(query, data, cand, scope="all")
    order = GraphQLOrdering().order(query, data, cand)
    return query, data, cand, aux, order


def machine(lc, query, data, cand, aux, order, fs=False):
    """A frame machine over ``lc`` bound to hand-built artifacts."""
    return FrameMachine(bind(lc, query, data, cand, aux, order), use_failing_sets=fs)


class TestRunParity:
    """run() over a prepared query matches the recursive engine over the
    same artifacts."""

    def test_paper_example(self, pipeline):
        cand, aux, order = pipeline
        out = machine(IntersectionLC(), PAPER_QUERY, PAPER_DATA, cand, aux, order).run(
            PAPER_QUERY, PAPER_DATA
        )
        assert out.solved
        assert out.num_matches == 2
        assert set(out.embeddings) == PAPER_MATCHES

    def test_matches_recursive_on_all_counters(self, heavy):
        query, data, cand, aux, order = heavy
        rec = BacktrackingEngine(IntersectionLC(), use_failing_sets=True).run(
            query, data, cand, aux, order, match_limit=2000
        )
        it = machine(IntersectionLC(), query, data, cand, aux, order, fs=True).run(
            query, data, match_limit=2000
        )
        assert it.num_matches == rec.num_matches
        assert it.embeddings == rec.embeddings
        assert it.stats.recursion_calls == rec.stats.recursion_calls
        assert it.stats.candidates_scanned == rec.stats.candidates_scanned
        assert it.stats.conflicts == rec.stats.conflicts
        assert it.stats.failing_set_prunes == rec.stats.failing_set_prunes

    def test_embeddings_are_plain_ints(self, pipeline):
        cand, aux, order = pipeline
        out = machine(IntersectionLC(), PAPER_QUERY, PAPER_DATA, cand, aux, order).run(
            PAPER_QUERY, PAPER_DATA
        )
        for emb in out.embeddings:
            assert all(type(v) is int for v in emb)

    def test_empty_candidate_set_short_circuits(self, pipeline):
        _, aux, order = pipeline
        empty = CandidateSets(PAPER_QUERY, [[0], [], [3, 5], [10]])
        out = machine(CandidateScanLC(), PAPER_QUERY, PAPER_DATA, empty, None, order).run(
            PAPER_QUERY, PAPER_DATA
        )
        assert out.num_matches == 0
        assert out.solved
        assert out.stats.recursion_calls == 0

    def test_static_mode_requires_order(self, pipeline):
        cand, aux, _ = pipeline
        with pytest.raises(ValueError, match="requires a matching order"):
            machine(IntersectionLC(), PAPER_QUERY, PAPER_DATA, cand, aux, None).run(
                PAPER_QUERY, PAPER_DATA
            )

    def test_direct_enumeration_without_candidates(self):
        out = machine(
            NeighborScanLC(), PAPER_QUERY, PAPER_DATA, None, None, [0, 1, 2, 3]
        ).run(PAPER_QUERY, PAPER_DATA)
        assert set(out.embeddings) == PAPER_MATCHES


class TestOnePreparedQuery:
    def test_machines_share_its_static_tables(self, heavy, monkeypatch):
        """Preparation builds a static order's tables once: two machines
        started over one prepared query read the same ``prepared.static``
        object, and no run builds another."""
        query, data, cand, aux, order = heavy
        prepared = bind(IntersectionLC(kernel="rows"), query, data, cand, aux, order)
        static = prepared.static
        monkeypatch.setattr(
            IntersectionLC, "static_order", lambda *args: pytest.fail("rebuilt")
        )
        first = FrameMachine(prepared).start(query, data, match_limit=100)
        second = FrameMachine(prepared, use_failing_sets=True)
        second.run(query, data, match_limit=100)
        assert first._static is second._static is prepared.static is static
        assert first._universes is second._universes is static.universes


class TestLimits:
    def test_match_limit(self, pipeline):
        cand, aux, order = pipeline
        out = machine(IntersectionLC(), PAPER_QUERY, PAPER_DATA, cand, aux, order).run(
            PAPER_QUERY, PAPER_DATA, match_limit=1
        )
        assert out.num_matches == 1
        assert out.solved

    def test_store_limit(self, pipeline):
        cand, aux, order = pipeline
        out = machine(IntersectionLC(), PAPER_QUERY, PAPER_DATA, cand, aux, order).run(
            PAPER_QUERY, PAPER_DATA, store_limit=1
        )
        assert out.num_matches == 2
        assert len(out.embeddings) == 1

    def test_time_limit_kills_heavy_query(self):
        data = rmat_graph(400, 16.0, 1, seed=3, clustering=0.3)
        query = extract_query(data, 12, seed=1)
        cand = GraphQLFilter().run(query, data)
        aux = AuxiliaryStructure.build(query, data, cand, scope="all")
        order = GraphQLOrdering().order(query, data, cand)
        out = machine(IntersectionLC(), query, data, cand, aux, order).run(
            query, data, match_limit=None, time_limit=0.05
        )
        assert not out.solved
        assert out.elapsed < 2.0
        assert out.stats.recursion_calls > 0


class TestIncremental:
    """start()/advance() with emit_rows: one leaf batch per call."""

    def test_batches_cover_all_matches(self, heavy):
        query, data, cand, aux, order = heavy
        rec = BacktrackingEngine(IntersectionLC()).run(
            query, data, cand, aux, order, match_limit=3000, store_limit=3000
        )
        stream = machine(IntersectionLC(), query, data, cand, aux, order).start(
            query, data, match_limit=3000, store_limit=0, emit_rows=True
        )
        rows = []
        while True:
            batch = stream.advance()
            if batch is None:
                break
            assert isinstance(batch, list) and batch
            for row in batch:
                assert type(row) is tuple and len(row) == query.num_vertices
                assert all(type(v) is int for v in row)
            rows.extend(batch)
        assert rows == rec.embeddings
        assert stream.num_matches == rec.num_matches

    def test_advance_after_done_returns_none(self, pipeline):
        cand, aux, order = pipeline
        stream = machine(IntersectionLC(), PAPER_QUERY, PAPER_DATA, cand, aux, order).start(
            PAPER_QUERY, PAPER_DATA, emit_rows=True
        )
        while stream.advance() is not None:
            pass
        assert stream.done
        assert stream.advance() is None


class TestPauseResume:
    @pytest.mark.parametrize("kernel", ["rows", "scalar"])
    @pytest.mark.parametrize("fs", [False, True])
    @pytest.mark.parametrize("quantum", [1, 7, 128])
    def test_steps_add_up_to_one_run(self, heavy, kernel, fs, quantum):
        query, data, cand, aux, order = heavy

        def fresh():
            lc = IntersectionLC(kernel=get_kernel(kernel))
            return machine(lc, query, data, cand, aux, order, fs=fs)

        whole = fresh().run(query, data, match_limit=2500)
        stepped = fresh().start(query, data, match_limit=2500)
        interior = 0
        while True:
            over = stepped.step(quantum)
            now = stepped.stats.recursion_calls - stepped.num_matches
            assert now - interior <= quantum  # a step opens at most `quantum` nodes
            interior = now
            if over:
                break
        assert stepped.solved and stepped.done
        assert stepped.num_matches == whole.num_matches
        assert astuple(stepped.stats) == astuple(whole.stats)
        assert stepped._store.as_tuples() == whole.embeddings


class TestStreamingOnFrames:
    """iter_matches is a generator over the frame machine — lazy."""

    def test_islice_composes_lazily(self, heavy):
        query, data, *_ = heavy
        stream = iter_matches(query, data)
        first_two = list(itertools.islice(stream, 2))
        assert len(first_two) == 2
        for emb in first_two:
            assert set(emb) == set(range(query.num_vertices))

    def test_matches_run_results(self, pipeline):
        got = {
            tuple(emb[u] for u in range(PAPER_QUERY.num_vertices))
            for emb in iter_matches(PAPER_QUERY, PAPER_DATA)
        }
        assert got == PAPER_MATCHES
