"""MatchSession under concurrent load: correctness and counter integrity.

One :class:`~repro.core.session.MatchSession` is shared by many threads,
which is exactly the serving tier's usage (every request for one
``(tenant, graph)`` pair lands on one session). The session's caches and
counters are lock-guarded; these tests are the load that would expose a
missing lock:

* every thread's results must be byte-identical to a single-threaded
  reference run (enumeration state must not leak across threads);
* the session's counters must balance exactly — ``session.queries``
  equals the submitted total and each cache's ``hits + misses`` equals
  its lookups — which fails under lost ``+= 1`` updates;
* the prep cache's LRU bookkeeping must survive concurrent reordering
  and eviction.

A barrier lines all workers up before the first query so the cache-miss
window (every thread preparing the same cold query at once) is actually
contested.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.plan import LRUCache
from repro.core.session import MatchSession
from repro.graph import erdos_renyi_graph, extract_query

THREADS = 8
ROUNDS = 6


@pytest.fixture(scope="module")
def data():
    return erdos_renyi_graph(150, 6.0, 4, seed=21)


@pytest.fixture(scope="module")
def query_pool(data):
    # Distinct extracted patterns: some shared by all threads, some
    # per-thread, so both cache-hit and cache-miss paths are contested.
    return [extract_query(data, 5, seed=s) for s in range(2 + THREADS)]


def run_workers(worker, threads=THREADS):
    """Start ``threads`` workers behind a barrier; re-raise their errors."""
    barrier = threading.Barrier(threads)
    errors = []

    def wrapped(tid):
        try:
            barrier.wait()
            worker(tid)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    pool = [
        threading.Thread(target=wrapped, args=(tid,), daemon=True)
        for tid in range(threads)
    ]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    if errors:
        raise errors[0]


class TestSharedSessionStress:
    def test_results_identical_to_single_threaded_reference(
        self, data, query_pool
    ):
        # Reference: each query's embeddings from a fresh session.
        reference = {}
        ref_session = MatchSession(data)
        for i, q in enumerate(query_pool):
            reference[i] = ref_session.match(q, match_limit=500).embeddings

        session = MatchSession(data)
        results = {}
        lock = threading.Lock()

        def worker(tid):
            # Every thread hits the shared queries (0, 1) plus its own.
            mine = [0, 1, 2 + tid]
            local = []
            for round_no in range(ROUNDS):
                for qi in mine:
                    result = session.match(
                        query_pool[qi], match_limit=500, validate=False
                    )
                    local.append((qi, result.embeddings))
            with lock:
                results[tid] = local

        run_workers(worker)

        assert set(results) == set(range(THREADS))
        for tid, local in results.items():
            assert len(local) == ROUNDS * 3
            for qi, embeddings in local:
                assert embeddings == reference[qi], (
                    f"thread {tid} got different embeddings for query {qi}"
                )

    def test_counters_balance_exactly(self, data, query_pool):
        # Nine distinct queries through four slots: threads evict each
        # other's entries while others reorder them.
        session = MatchSession(data, prep_cache_size=4)

        def worker(tid):
            for _ in range(ROUNDS):
                session.match(query_pool[0], match_limit=100, validate=False)
                session.match(
                    query_pool[2 + tid], match_limit=100, validate=False
                )

        run_workers(worker)

        total = THREADS * ROUNDS * 2
        counters = session.metrics.counters
        assert counters["session.queries"] == total
        assert (
            counters["session.prep_cache_hits"]
            + counters["session.prep_cache_misses"]
            == total
        )
        info = session.cache_info()
        assert info["prep"]["hits"] + info["prep"]["misses"] == total
        # Lost updates would leave hits+misses short of the lookup count;
        # LRU corruption would typically show as a KeyError/size blowup.
        assert info["prep"]["size"] <= 4

    def test_count_and_has_match_agree_under_load(self, data, query_pool):
        session = MatchSession(data)
        expected = MatchSession(data).count_matches(query_pool[0])
        observed = []
        lock = threading.Lock()

        def worker(tid):
            local = []
            for _ in range(ROUNDS):
                local.append(session.count_matches(query_pool[0]))
                local.append(session.has_match(query_pool[0]))
            with lock:
                observed.extend(local)

        run_workers(worker)

        counts = [x for x in observed if not isinstance(x, bool)]
        flags = [x for x in observed if isinstance(x, bool)]
        assert counts == [expected] * (THREADS * ROUNDS)
        assert flags == [expected > 0] * (THREADS * ROUNDS)


class TestLRUCacheStress:
    def test_hammered_cache_keeps_exact_accounting(self):
        cache = LRUCache(capacity=8)
        lookups_per_thread = 400

        def worker(tid):
            for i in range(lookups_per_thread):
                key = (tid, i % 12) if i % 3 else ("shared", i % 12)
                if cache.get(key) is None:
                    cache.put(key, i)

        run_workers(worker)

        info = cache.info()
        assert info["hits"] + info["misses"] == THREADS * lookups_per_thread
        assert info["size"] <= 8
