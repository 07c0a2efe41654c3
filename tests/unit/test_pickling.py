"""Pickle round-trips for plans, prepared queries, specs and kernels.

The parallel fan-out ships compiled :class:`MatchPlan`s and
:class:`PreparedQuery` artifacts to worker processes, so everything a
plan closes over must survive ``pickle`` — including the kernel objects
whose caches are keyed by ``id()`` and therefore must be dropped, not
serialized, at the process boundary.
"""

import pickle

import pytest

from repro.core.algorithms import PRESETS
from repro.core.plan import compile_plan, prepare_query, run_plan
from repro.graph import Graph, query_fingerprint
from repro.graph.generators import rmat_graph
from repro.graph.query_gen import extract_query
from repro.graph.store import MmapStore, SharedMemoryStore, write_rgf
from repro.obs.metrics import Metrics
from repro.utils.kernels import BitsetKernel, QFilterKernel, available_kernels


@pytest.fixture(scope="module")
def workload():
    data = rmat_graph(300, 8.0, 3, seed=11, clustering=0.1)
    query = extract_query(data, 5, seed=2)
    return query, data


class TestSpecAndPlanPickling:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_plan_round_trips(self, name, workload):
        query, data = workload
        plan = compile_plan(name, query, data)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.algorithm.name == plan.algorithm.name
        assert clone.fingerprint == plan.fingerprint
        assert clone.aux_scope == plan.aux_scope

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_unpickled_plan_still_answers(self, name, workload):
        query, data = workload
        plan = compile_plan(name, query, data)
        expected, _ = run_plan(
            plan, query, data, match_limit=200, store_limit=200
        )
        clone = pickle.loads(pickle.dumps(plan))
        result, _ = run_plan(
            clone, query, data, match_limit=200, store_limit=200
        )
        assert result.num_matches == expected.num_matches
        assert result.embeddings == expected.embeddings

    def test_prepared_query_round_trips(self, workload):
        query, data = workload
        plan = compile_plan("GQL-opt", query, data)
        prepared = prepare_query(plan, query, data, Metrics())
        clone = pickle.loads(pickle.dumps(prepared))
        expected, _ = run_plan(
            plan, query, data, prepared=prepared,
            match_limit=200, store_limit=200,
        )
        result, _ = run_plan(
            plan, query, data, prepared=clone,
            match_limit=200, store_limit=200,
        )
        assert result.num_matches == expected.num_matches
        assert result.embeddings == expected.embeddings


class TestKernelPickling:
    def test_bitset_kernel_drops_cache(self, workload):
        query, data = workload
        kernel = BitsetKernel()
        # Populate the id-keyed cache, then round-trip: the clone must
        # start cold — cached ids from the parent process would alias
        # arbitrary objects in the child.
        kernel.intersect(data.neighbors(0), data.neighbors(1))
        assert kernel._cache
        clone = pickle.loads(pickle.dumps(kernel))
        assert clone._cache == {}

    def test_qfilter_kernel_keeps_block_bits(self):
        kernel = QFilterKernel(block_bits=16)
        kernel.intersect([1, 2, 40], [2, 40, 41])
        assert kernel._cache
        clone = pickle.loads(pickle.dumps(kernel))
        assert clone.block_bits == kernel.block_bits == 16
        assert clone._cache == {}
        assert clone.intersect([1, 2, 40], [2, 40, 41]) == [2, 40]

    @pytest.mark.parametrize(
        "name", [k for k in available_kernels() if k != "auto"]
    )
    def test_registry_kernels_round_trip(self, name, workload):
        from repro.utils.kernels import get_kernel

        query, data = workload
        kernel = get_kernel(name)
        clone = pickle.loads(pickle.dumps(kernel))
        expected = kernel.intersect(data.neighbors(0), data.neighbors(1))
        got = clone.intersect(data.neighbors(0), data.neighbors(1))
        assert list(got) == list(expected)


class TestGraphMemoPickling:
    """``hash(bytes)`` is salted per process: a memoized hash must never
    ride a pickle to a pool worker, and no constructor path may leave the
    two memo slots unset."""

    @staticmethod
    def assert_fresh_and_equivalent(view: Graph, original: Graph):
        fingerprint = query_fingerprint(original)
        assert view._hash is None and view._fingerprint is None
        assert view == original
        assert hash(view) == hash(original)
        assert view._hash is not None  # recomputed, then kept
        assert query_fingerprint(view) == fingerprint
        assert {original: 1}[view] == 1

    def test_state_ships_neither_memo(self, workload):
        query, _ = workload
        hash(query), query_fingerprint(query)
        assert set(query.__getstate__()) == {
            "_labels", "_offsets", "_neighbors", "_num_edges",
        }

    def test_unpickled_graph_recomputes(self, workload):
        query, _ = workload
        hash(query), query_fingerprint(query)
        clone = pickle.loads(pickle.dumps(query))
        self.assert_fresh_and_equivalent(clone, query)
        fresh = Graph(
            labels=query.labels.tolist(), edges=list(query.edges())
        )
        assert clone == fresh and hash(clone) == hash(fresh)

    def test_from_csr_starts_unmemoized(self, workload):
        query, _ = workload
        offsets, neighbors = query.csr
        view = Graph.from_csr(
            query.labels, offsets, neighbors, num_edges=query.num_edges
        )
        self.assert_fresh_and_equivalent(view, query)

    def test_mmap_view_starts_unmemoized(self, workload, tmp_path):
        query, _ = workload
        path = tmp_path / "q.rgf"
        write_rgf(query, path)
        with MmapStore(path) as store:
            self.assert_fresh_and_equivalent(store.graph(), query)

    def test_shared_memory_attach_starts_unmemoized(self, workload):
        query, _ = workload
        owner = SharedMemoryStore.publish(query)
        try:
            attached = SharedMemoryStore.attach(owner.handle)
            try:
                self.assert_fresh_and_equivalent(attached.graph(), query)
            finally:
                attached.close()
        finally:
            owner.close()
