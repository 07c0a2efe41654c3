"""Determinism and lifecycle contract of intra-query parallel matching.

The fan-out promises results *byte-identical* to the sequential frame
machine: same embeddings in the same order, same match counts, and —
because the chunk grid is fixed at :data:`DEFAULT_CHUNKS` regardless of
the worker count — identical merged counters across ``n_workers``.
These tests pin that contract, the cancellation path, and the
shared-memory lifecycle (publish on first parallel match, unlink on
session close, nothing leaked by the one-shot API).
"""

import os
from dataclasses import replace

import pytest

from repro.core.algorithms import get_algorithm
from repro.core.api import match
from repro.core.session import MatchSession
from repro.enumeration.support import DEADLINE_STRIDE
from repro.graph.generators import erdos_renyi_graph
from repro.graph.query_gen import extract_query
from repro.ordering import RandomOrdering
from repro.parallel import DEFAULT_CHUNKS

ALGORITHM = "GQL-opt"  # static order, no failing sets: counters must agree
MATCH_LIMIT = 500_000  # far above the workload's match count — no capping
WORKER_COUNTS = (1, 2, 4)


def _shm_names():
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


@pytest.fixture(scope="module")
def workload():
    data = erdos_renyi_graph(1000, 16.0, 8, seed=7)
    query = extract_query(data, 10, seed=1)
    return query, data


@pytest.fixture(scope="module")
def sequential(workload):
    query, data = workload
    return match(
        query, data, algorithm=ALGORITHM,
        match_limit=MATCH_LIMIT, store_limit=MATCH_LIMIT,
    )


class TestDeterminism:
    @pytest.mark.parametrize("n_workers", WORKER_COUNTS)
    def test_byte_identical_across_worker_counts(
        self, workload, sequential, n_workers
    ):
        query, data = workload
        result = match(
            query, data, algorithm=ALGORITHM,
            match_limit=MATCH_LIMIT, store_limit=MATCH_LIMIT,
            n_workers=n_workers,
        )
        assert result.num_matches == sequential.num_matches
        assert result.solved
        assert result.embeddings == sequential.embeddings

    @pytest.mark.parametrize("n_workers", WORKER_COUNTS)
    def test_merged_counters_match_sequential(
        self, workload, sequential, n_workers
    ):
        # GQL-opt prunes nothing at the root (no failing sets), and the
        # workload finishes under the cap, so every chunk-local counter
        # must sum exactly to the sequential total.
        query, data = workload
        result = match(
            query, data, algorithm=ALGORITHM,
            match_limit=MATCH_LIMIT, store_limit=0,
            n_workers=n_workers,
        )
        assert result.stats == sequential.stats

    def test_repeated_runs_are_stable(self, workload):
        query, data = workload
        runs = [
            match(
                query, data, algorithm=ALGORITHM,
                match_limit=MATCH_LIMIT, store_limit=MATCH_LIMIT,
                n_workers=2,
            )
            for _ in range(2)
        ]
        assert runs[0].embeddings == runs[1].embeddings
        assert runs[0].stats == runs[1].stats

    def test_parallel_path_actually_ran(self, workload):
        query, data = workload
        result = match(
            query, data, algorithm=ALGORITHM,
            match_limit=MATCH_LIMIT, store_limit=0, n_workers=2,
        )
        counters = result.metrics.to_dict()["counters"]
        assert counters.get("parallel.matches") == 1
        assert counters.get("parallel.chunks") == DEFAULT_CHUNKS

    def test_env_var_enables_pool(self, workload, monkeypatch):
        query, data = workload
        monkeypatch.setenv("REPRO_WORKERS", "2")
        result = match(
            query, data, algorithm=ALGORITHM,
            match_limit=MATCH_LIMIT, store_limit=0,
        )
        counters = result.metrics.to_dict()["counters"]
        assert counters.get("parallel.matches") == 1

    def test_match_limit_truncation_matches_sequential(
        self, workload, sequential
    ):
        # The cap lands inside some middle chunk; the merged prefix must
        # still be the sequential prefix.
        query, data = workload
        limit = sequential.num_matches // 2
        seq = match(
            query, data, algorithm=ALGORITHM,
            match_limit=limit, store_limit=limit,
        )
        par = match(
            query, data, algorithm=ALGORITHM,
            match_limit=limit, store_limit=limit, n_workers=2,
        )
        assert par.num_matches == seq.num_matches == limit
        assert par.solved
        assert par.embeddings == sequential.embeddings[:limit]


class TestCancellation:
    def test_cancel_stops_all_workers_quickly(self, workload, sequential):
        query, data = workload
        result = match(
            query, data, algorithm=ALGORITHM,
            match_limit=MATCH_LIMIT, store_limit=0,
            n_workers=2, cancel=lambda: True,
        )
        assert not result.solved
        # The flag is stored before the workers pass their first
        # deadline stride, so no chunk runs meaningfully past one
        # stride's worth of search nodes — and the whole merged run
        # stays far below the full sequential search.
        bound = DEFAULT_CHUNKS * 2 * DEADLINE_STRIDE
        assert result.stats.recursion_calls < bound
        assert result.stats.recursion_calls < sequential.stats.recursion_calls

    def test_deadline_expires_in_workers(self, workload):
        query, data = workload
        result = match(
            query, data, algorithm=ALGORITHM,
            match_limit=MATCH_LIMIT, store_limit=0,
            n_workers=2, time_limit=1e-6,
        )
        assert not result.solved


class TestLifecycle:
    def test_session_close_unlinks_segment(self, workload):
        query, data = workload
        before = _shm_names()
        session = MatchSession(data, algorithm=ALGORITHM, n_workers=2)
        session.match(query, match_limit=1000, store_limit=0)
        during = _shm_names() - before
        assert during, "parallel match should have published the graph"
        session.close()
        assert not (_shm_names() - before)
        session.close()  # idempotent

    def test_oneshot_api_leaves_nothing_behind(self, workload):
        query, data = workload
        before = _shm_names()
        match(
            query, data, algorithm=ALGORITHM,
            match_limit=1000, store_limit=0, n_workers=2,
        )
        assert not (_shm_names() - before)

    def test_sequential_session_never_publishes(self, workload):
        query, data = workload
        before = _shm_names()
        session = MatchSession(data, algorithm=ALGORITHM)
        session.match(query, match_limit=1000, store_limit=0)
        assert not (_shm_names() - before)
        session.close()


class TestFallback:
    def test_ineligible_plan_falls_back_to_sequential(self, workload):
        # The adaptive DP-iso selector has no fixed root list: the match
        # must silently run sequentially and still be correct.
        query, data = workload
        seq = match(
            query, data, algorithm="DP",
            match_limit=5000, store_limit=5000,
        )
        par = match(
            query, data, algorithm="DP",
            match_limit=5000, store_limit=5000, n_workers=2,
        )
        assert par.num_matches == seq.num_matches
        assert par.embeddings == seq.embeddings


class TestSeededOrdering:
    """Workers run the parent's order; they never call the ordering again.

    A seeded random ordering's rng has moved on by the time the plan is
    pickled for a chunk, so an order derived in the worker would be
    another sample, with another root list for the parent's windows.
    """

    @staticmethod
    def _spec(seed):
        return replace(get_algorithm(ALGORITHM), ordering=RandomOrdering(seed=seed))

    def _sequential(self, query, data, seed):
        return match(
            query, data, algorithm=self._spec(seed),
            match_limit=MATCH_LIMIT, store_limit=MATCH_LIMIT,
        )

    def test_fan_out_equals_sequential(self, workload):
        query, data = workload
        seq = self._sequential(query, data, 11)
        par = match(
            query, data, algorithm=self._spec(11),
            match_limit=MATCH_LIMIT, store_limit=MATCH_LIMIT, n_workers=2,
        )
        assert par.metrics.counters["parallel.matches"] == 1
        assert par.order == seq.order
        assert par.num_matches == seq.num_matches
        assert par.embeddings == seq.embeddings
        assert par.solved and seq.solved

    def test_two_seeds_in_one_pool_keep_their_own_orders(self, workload):
        query, data = workload
        session = MatchSession(data, n_workers=2)
        try:
            for seed in (11, 12):
                seq = self._sequential(query, data, seed)
                par = session.match(
                    query, algorithm=self._spec(seed),
                    match_limit=MATCH_LIMIT, store_limit=MATCH_LIMIT,
                )
                assert par.metrics.counters["parallel.matches"] == 1
                assert par.order == seq.order
                assert par.num_matches == seq.num_matches
                assert par.embeddings == seq.embeddings
        finally:
            session.close()
