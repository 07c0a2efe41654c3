"""Unit tests for MatchSession, MatchPlan and the LRU prep cache."""

import json

import pytest

from repro import MatchSession, compile_plan, count_matches, has_match, match
from repro.core.plan import LRUCache, run_plan
from repro.errors import InvalidQueryError
from repro.graph import Graph
from repro.serve import MatchServer, MatchService
from repro.serve.protocol import graph_to_payload
from fixtures import PAPER_DATA, PAPER_MATCHES, PAPER_QUERY

RING = Graph(
    labels=[0, 1, 0, 1, 0, 1],
    edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 2), (3, 5)],
)
PATH = Graph(labels=[1, 0, 1, 0], edges=[(0, 1), (1, 2), (2, 3)])
WEDGE = Graph(labels=[0, 1, 0], edges=[(0, 1), (1, 2)])


class TestLRUCache:
    def test_hit_miss_counters(self):
        cache = LRUCache(capacity=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.info() == {
            "hits": 1, "misses": 1, "size": 1, "capacity": 2,
        }

    def test_eviction_is_lru(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # a becomes most-recent
        cache.put("c", 3)       # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_capacity_zero_disables(self):
        cache = LRUCache(capacity=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0
        assert cache.misses == 1

    def test_capacity_none_is_unbounded(self):
        cache = LRUCache(capacity=None)
        for i in range(500):
            cache.put(i, i)
        assert len(cache) == 500

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=-1)

    def test_clear_keeps_counters(self):
        cache = LRUCache()
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0 and cache.hits == 1


class TestCompile:
    def test_exact_repeat_reuses_plan_and_prepared(self, monkeypatch):
        compiled = []

        def counting_compile(*args, **kwargs):
            compiled.append(compile_plan(*args, **kwargs))
            return compiled[-1]

        monkeypatch.setattr("repro.core.session.compile_plan", counting_compile)
        session = MatchSession(PAPER_DATA, algorithm="GQL")
        session.match(PAPER_QUERY)
        (entry,) = session._prep._entries.values()
        session.match(PAPER_QUERY)
        assert len(compiled) == 1
        (again,) = session._prep._entries.values()
        assert again is entry  # the hit neither recompiled nor re-put
        plan, _, winner = entry
        assert plan is compiled[0]
        assert plan.algorithm.name == "GQL"
        assert winner is None

    def test_distinct_algorithms_get_distinct_plans(self):
        session = MatchSession(RING)
        gql = session.match(PATH, algorithm="GQL")
        ri = session.match(PATH, algorithm="RI")
        assert ri.metrics.counters["plan.cache_miss"] == 1
        assert (gql.algorithm, ri.algorithm) == ("GQL", "RI")
        plans = [plan for plan, _, _ in session._prep._entries.values()]
        assert [p.algorithm.name for p in plans] == ["GQL", "RI"]

    def test_compile_plan_standalone(self):
        plan = compile_plan("GQLfs", PAPER_QUERY, PAPER_DATA)
        assert plan.algorithm.failing_sets
        result, prepared = run_plan(plan, PAPER_QUERY, PAPER_DATA)
        assert result.num_matches == len(PAPER_MATCHES)
        # Reusing the prepared artifacts reproduces the result with zero
        # preprocessing charged.
        again, _ = run_plan(plan, PAPER_QUERY, PAPER_DATA, prepared=prepared)
        assert again.num_matches == result.num_matches
        assert again.preprocessing_ms == 0.0


class TestNoFingerprintOnRequestPath:
    """Matching never fingerprints a query: the prep cache keys on the
    exact graph, so a miss, a hit and a never-seen wire payload all
    answer with the fingerprint unavailable."""

    @pytest.fixture(autouse=True)
    def no_fingerprint(self, monkeypatch):
        def refuse(graph):
            raise AssertionError("query fingerprinted on the request path")

        monkeypatch.setattr("repro.graph.fingerprint._compute_fingerprint", refuse)

    def test_session_miss_and_hit(self):
        # A fresh graph: a shared fixture may carry a memoized fingerprint.
        query = Graph(
            labels=[PAPER_QUERY.label(u) for u in PAPER_QUERY.vertices()],
            edges=list(PAPER_QUERY.edges()),
        )
        session = MatchSession(PAPER_DATA, algorithm="GQL")
        first = session.match(query)
        second = session.match(query)
        assert first.metrics.counters["plan.cache_miss"] == 1
        assert second.metrics.counters["plan.cache_hit"] == 1
        assert first.num_matches == second.num_matches == len(PAPER_MATCHES)

    def test_server_dispatch_of_unseen_payload(self):
        with MatchService(workers=1) as service:
            service.add_graph("paper", PAPER_DATA)
            server = MatchServer(service, port=0)
            reply = server._dispatch(json.dumps({
                "op": "match", "graph": "paper",
                "query": graph_to_payload(PAPER_QUERY),
            }))
        assert reply["ok"] is True, reply
        assert reply["num_matches"] == len(PAPER_MATCHES)


class TestSessionMatch:
    def test_agrees_with_one_shot(self):
        session = MatchSession(PAPER_DATA, algorithm="GQL")
        result = session.match(PAPER_QUERY)
        one_shot = match(PAPER_QUERY, PAPER_DATA, algorithm="GQL")
        assert result.num_matches == one_shot.num_matches
        assert result.mappings == one_shot.mappings
        assert {tuple(m[u] for u in sorted(m)) for m in result.mappings} \
            == PAPER_MATCHES

    def test_repeat_hits_both_caches(self):
        session = MatchSession(PAPER_DATA, algorithm="GQL")
        first = session.match(PAPER_QUERY)
        second = session.match(PAPER_QUERY)
        assert first.metrics.counters["plan.cache_miss"] == 1
        assert first.metrics.counters["plan.prep_miss"] == 1
        assert second.metrics.counters["plan.cache_hit"] == 1
        assert second.metrics.counters["plan.prep_hit"] == 1
        assert second.num_matches == first.num_matches
        assert second.mappings == first.mappings
        # The prep-reuse run charges no preprocessing time.
        assert second.preprocessing_ms == 0.0

    def test_session_metrics_aggregate(self):
        session = MatchSession(PAPER_DATA, algorithm="GQL")
        for _ in range(3):
            session.match(PAPER_QUERY)
        counters = session.metrics.counters
        assert counters["session.queries"] == 3
        assert counters["session.prep_cache_hits"] == 2
        assert counters["session.prep_cache_misses"] == 1
        assert session.cache_info() == {
            "prep": {"hits": 2, "misses": 1, "size": 1, "capacity": 64},
        }

    def test_one_shot_match_has_no_cache_counters(self):
        result = match(PAPER_QUERY, PAPER_DATA, algorithm="GQL")
        assert not any(k.startswith("plan.") for k in result.metrics.counters)

    def test_prep_cache_disabled_still_correct(self):
        session = MatchSession(PAPER_DATA, algorithm="GQL", prep_cache_size=0)
        first = session.match(PAPER_QUERY)
        second = session.match(PAPER_QUERY)
        assert second.num_matches == first.num_matches
        assert "plan.prep_hit" not in second.metrics.counters
        assert second.preprocessing_ms > 0.0

    def test_prep_lru_eviction_under_capacity_one(self):
        session = MatchSession(RING, algorithm="GQL", prep_cache_size=1)
        session.match(PATH)
        session.match(WEDGE)       # evicts PATH's artifacts
        result = session.match(PATH)
        assert result.metrics.counters["plan.prep_miss"] == 1

    def test_clear_caches(self):
        session = MatchSession(PAPER_DATA, algorithm="GQL")
        session.match(PAPER_QUERY)
        session.clear_caches()
        result = session.match(PAPER_QUERY)
        assert result.metrics.counters["plan.cache_miss"] == 1
        assert session.metrics.counters["session.queries"] == 2

    def test_per_call_algorithm_override(self):
        session = MatchSession(PAPER_DATA, algorithm="GQL")
        ri = session.match(PAPER_QUERY, algorithm="RIfs")
        assert ri.algorithm == "RIfs"
        assert ri.num_matches == len(PAPER_MATCHES)

    def test_validation_on_by_default(self):
        session = MatchSession(PAPER_DATA)
        with pytest.raises(InvalidQueryError):
            session.match(Graph(labels=[0, 0], edges=[(0, 1)]))

    def test_match_many_in_order(self):
        session = MatchSession(RING, algorithm="GQLfs")
        workload = [PATH, WEDGE, PATH, WEDGE, PATH]
        results = session.match_many(workload)
        singles = [match(q, RING, algorithm="GQLfs") for q in workload]
        assert [r.num_matches for r in results] \
            == [s.num_matches for s in singles]
        assert session.metrics.counters["session.queries"] == 5
        assert session.metrics.counters["session.prep_cache_misses"] == 2

    def test_count_and_has_match(self):
        session = MatchSession(PAPER_DATA, algorithm="GQL")
        assert session.count_matches(PAPER_QUERY) == len(PAPER_MATCHES)
        assert session.has_match(PAPER_QUERY)
        impossible = Graph(labels=[7, 7, 7], edges=[(0, 1), (1, 2)])
        assert not session.has_match(impossible)

    def test_repr(self):
        session = MatchSession(PAPER_DATA, algorithm="GQL")
        session.match(PAPER_QUERY)
        text = repr(session)
        assert "MatchSession" in text and "'GQL'" in text and "queries=1" in text


class TestApiPassthrough:
    def test_count_matches_validate_passthrough(self):
        small = Graph(labels=[0, 0], edges=[(0, 1)])
        with pytest.raises(InvalidQueryError):
            count_matches(small, PAPER_DATA, algorithm="GQL")

    def test_has_match_validate_passthrough(self):
        small = Graph(labels=[0, 0], edges=[(0, 1)])
        with pytest.raises(InvalidQueryError):
            has_match(small, PAPER_DATA, algorithm="GQL")

    def test_count_matches_store_limit_passthrough(self):
        # store_limit only caps retained embeddings; the count is exact
        # either way.
        assert count_matches(
            PAPER_QUERY, PAPER_DATA, algorithm="GQL", store_limit=1
        ) == len(PAPER_MATCHES)

    def test_has_match_accepts_validate_false(self):
        assert has_match(
            PAPER_QUERY, PAPER_DATA, algorithm="GQL", validate=False
        )


class TestOverrideRecording:
    """A per-call override must be resolved AND recorded identically
    whether the caller uses match(), count_matches() or has_match().

    count_matches/has_match delegate to match(), so the override flows
    through one code path; this pins that the MatchResult the internal
    run produces carries the resolved kernel name for every entry point
    (the serving tier reports it to clients verbatim).
    """

    @pytest.fixture
    def captured_kernels(self, monkeypatch):
        import repro.core.session as session_module

        captured = []
        inner = session_module.run_plan

        def spy(*args, **kwargs):
            result, prepared = inner(*args, **kwargs)
            captured.append(result.kernel)
            return result, prepared

        monkeypatch.setattr(session_module, "run_plan", spy)
        return captured

    def test_session_count_and_has_match_record_override(
        self, captured_kernels
    ):
        session = MatchSession(PAPER_DATA, algorithm="GQLfs")
        n = session.count_matches(PAPER_QUERY, kernel="numpy")
        found = session.has_match(PAPER_QUERY, kernel="numpy")
        direct = session.match(PAPER_QUERY, kernel="numpy")
        assert n == len(PAPER_MATCHES) and found
        assert direct.kernel == "numpy"
        assert captured_kernels == ["numpy"] * 3

    def test_api_count_and_has_match_record_override(self, captured_kernels):
        n = count_matches(
            PAPER_QUERY, PAPER_DATA, algorithm="GQLfs", kernel="numpy"
        )
        found = has_match(
            PAPER_QUERY, PAPER_DATA, algorithm="GQLfs", kernel="numpy"
        )
        assert n == len(PAPER_MATCHES) and found
        assert captured_kernels == ["numpy"] * 2
