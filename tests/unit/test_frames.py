"""Unit tests for the iterative frame machine (parity, pause/resume)."""

import itertools
from dataclasses import astuple

import pytest

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


class TestRunParity:
    """run() is a drop-in for the recursive engine."""

    def test_paper_example(self, pipeline):
        cand, aux, order = pipeline
        out = FrameMachine(IntersectionLC()).run(
            PAPER_QUERY, PAPER_DATA, cand, aux, order
        )
        assert out.solved
        assert out.num_matches == 2
        assert set(out.embeddings) == PAPER_MATCHES

    def test_matches_recursive_on_all_counters(self, heavy):
        query, data, cand, aux, order = heavy
        rec = BacktrackingEngine(IntersectionLC(), use_failing_sets=True).run(
            query, data, cand, aux, order, match_limit=2000
        )
        it = FrameMachine(IntersectionLC(), use_failing_sets=True).run(
            query, data, cand, aux, order, match_limit=2000
        )
        assert it.num_matches == rec.num_matches
        assert it.embeddings == rec.embeddings
        assert it.stats.recursion_calls == rec.stats.recursion_calls
        assert it.stats.candidates_scanned == rec.stats.candidates_scanned
        assert it.stats.conflicts == rec.stats.conflicts
        assert it.stats.failing_set_prunes == rec.stats.failing_set_prunes

    def test_embeddings_are_plain_ints(self, pipeline):
        cand, aux, order = pipeline
        out = FrameMachine(IntersectionLC()).run(
            PAPER_QUERY, PAPER_DATA, cand, aux, order
        )
        for emb in out.embeddings:
            assert all(type(v) is int for v in emb)

    def test_empty_candidate_set_short_circuits(self, pipeline):
        _, aux, order = pipeline
        empty = CandidateSets(PAPER_QUERY, [[0], [], [3, 5], [10]])
        out = FrameMachine(CandidateScanLC()).run(
            PAPER_QUERY, PAPER_DATA, empty, None, order
        )
        assert out.num_matches == 0
        assert out.solved
        assert out.stats.recursion_calls == 0

    def test_static_mode_requires_order(self, pipeline):
        cand, aux, _ = pipeline
        with pytest.raises(ValueError, match="requires a matching order"):
            FrameMachine(IntersectionLC()).run(
                PAPER_QUERY, PAPER_DATA, cand, aux, None
            )

    def test_direct_enumeration_without_candidates(self):
        out = FrameMachine(NeighborScanLC()).run(
            PAPER_QUERY, PAPER_DATA, None, None, [0, 1, 2, 3]
        )
        assert set(out.embeddings) == PAPER_MATCHES


class TestLimits:
    def test_match_limit(self, pipeline):
        cand, aux, order = pipeline
        out = FrameMachine(IntersectionLC()).run(
            PAPER_QUERY, PAPER_DATA, cand, aux, order, match_limit=1
        )
        assert out.num_matches == 1
        assert out.solved

    def test_store_limit(self, pipeline):
        cand, aux, order = pipeline
        out = FrameMachine(IntersectionLC()).run(
            PAPER_QUERY, PAPER_DATA, cand, aux, order, store_limit=1
        )
        assert out.num_matches == 2
        assert len(out.embeddings) == 1

    def test_time_limit_kills_heavy_query(self):
        data = rmat_graph(400, 16.0, 1, seed=3, clustering=0.3)
        query = extract_query(data, 12, seed=1)
        cand = GraphQLFilter().run(query, data)
        aux = AuxiliaryStructure.build(query, data, cand, scope="all")
        order = GraphQLOrdering().order(query, data, cand)
        out = FrameMachine(IntersectionLC()).run(
            query, data, cand, aux, order, match_limit=None, time_limit=0.05
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
        machine = FrameMachine(IntersectionLC()).start(
            query, data, cand, aux, order,
            match_limit=3000, store_limit=0, emit_rows=True,
        )
        rows = []
        while True:
            batch = machine.advance()
            if batch is None:
                break
            assert isinstance(batch, list) and batch
            for row in batch:
                assert type(row) is tuple and len(row) == query.num_vertices
                assert all(type(v) is int for v in row)
            rows.extend(batch)
        assert rows == rec.embeddings
        assert machine.num_matches == rec.num_matches

    def test_advance_after_done_returns_none(self, pipeline):
        cand, aux, order = pipeline
        machine = FrameMachine(IntersectionLC()).start(
            PAPER_QUERY, PAPER_DATA, cand, aux, order, emit_rows=True
        )
        while machine.advance() is not None:
            pass
        assert machine.done
        assert machine.advance() is None


class TestPauseResume:
    def test_restore_replays_identically(self, heavy):
        query, data, cand, aux, order = heavy
        machine = FrameMachine(IntersectionLC()).start(
            query, data, cand, aux, order,
            match_limit=3000, store_limit=0, emit_rows=True,
        )
        # Advance a few batches, snapshot, then record the rest...
        for _ in range(3):
            assert machine.advance() is not None
        snapshot = machine.save_state()
        first = []
        while True:
            batch = machine.advance()
            if batch is None:
                break
            first.extend(batch)
        total = machine.num_matches
        # ...rewind and the continuation must replay byte-for-byte.
        machine.restore_state(snapshot)
        assert not machine.done
        second = []
        while True:
            batch = machine.advance()
            if batch is None:
                break
            second.extend(batch)
        assert second == first
        assert machine.num_matches == total

    def test_restore_truncates_retained_embeddings(self, pipeline):
        cand, aux, order = pipeline
        machine = FrameMachine(IntersectionLC()).start(
            PAPER_QUERY, PAPER_DATA, cand, aux, order, emit_rows=True
        )
        snapshot = machine.save_state()
        while machine.advance() is not None:
            pass
        assert machine.num_matches == 2
        stored = machine._store.as_tuples()
        assert sorted(stored) == sorted(PAPER_MATCHES)
        machine.restore_state(snapshot)
        assert machine.num_matches == 0
        assert len(machine._store) == 0
        while machine.advance() is not None:
            pass
        assert machine.num_matches == 2
        assert machine._store.as_tuples() == stored
        with pytest.raises(ValueError):
            machine._store.truncate(3)

    def test_snapshot_preserves_stats(self, heavy):
        query, data, cand, aux, order = heavy
        machine = FrameMachine(IntersectionLC()).start(
            query, data, cand, aux, order,
            match_limit=3000, store_limit=0, emit_rows=True,
        )
        machine.advance()
        snapshot = machine.save_state()
        calls = machine.stats.recursion_calls
        while machine.advance() is not None:
            pass
        final = machine.stats.recursion_calls
        machine.restore_state(snapshot)
        assert machine.stats.recursion_calls == calls
        while machine.advance() is not None:
            pass
        assert machine.stats.recursion_calls == final


    @pytest.mark.parametrize("kernel", ["rows", "scalar"])
    @pytest.mark.parametrize("fs", [False, True])
    @pytest.mark.parametrize("quantum", [1, 7, 128])
    def test_steps_add_up_to_one_run(self, heavy, kernel, fs, quantum):
        query, data, cand, aux, order = heavy

        def machine():
            return FrameMachine(
                IntersectionLC(kernel=get_kernel(kernel)), use_failing_sets=fs
            )

        whole = machine().run(query, data, cand, aux, order, match_limit=2500)
        stepped = machine().start(query, data, cand, aux, order, match_limit=2500)
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
