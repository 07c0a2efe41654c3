"""The server's table of decoded queries: what it keeps and what it never does.

Interning is meant to be invisible except in time (the property suite
pins that); these cases pin the table itself — a hit hands ``submit`` the
identical object, both bounds hold, invalid queries are never kept, and
an interned query on a dynamic graph is still answered at the new epoch.
"""

import json

import pytest

from repro.graph import erdos_renyi_graph
from repro.serve import MatchServer, MatchService
from repro.serve import server as server_module


@pytest.fixture
def service():
    service = MatchService(workers=1)
    service.add_graph("g", erdos_renyi_graph(60, 5.0, 3, seed=4))
    yield service
    service.close()


@pytest.fixture
def server(service):
    return MatchServer(service, port=0)


def send(server, **request):
    request.setdefault("op", "match")
    request.setdefault("graph", "g")
    return server._dispatch(json.dumps(request))


def path(first_label, edges=((0, 1), (1, 2))):
    """A 3-vertex path whose labels make it distinct per ``first_label``."""
    return {
        "labels": [first_label, first_label + 1, first_label + 2],
        "edges": [list(e) for e in edges],
    }


def counter(service, name):
    return service.metrics.counters.get(f"serve.interned_{name}", 0)


class TestInternedQueries:
    def test_a_hit_hands_match_the_identical_object(
        self, service, server, monkeypatch
    ):
        seen = []
        match = service.match

        def spy(query, **kwargs):
            seen.append((query, kwargs["validate"]))
            return match(query, **kwargs)

        monkeypatch.setattr(service, "match", spy)
        for _ in range(3):
            assert send(server, query=path(0))["ok"]
        (first, v1), (second, v2), (third, v3) = seen
        assert first is second is third
        assert (v1, v2, v3) == (True, False, False)  # validated once
        assert counter(service, "misses") == 1
        assert counter(service, "hits") == 2

    def test_edge_order_is_part_of_the_key_not_of_the_answer(self, service, server):
        forward = send(server, query=path(0), include_embeddings=True)
        backward = send(
            server, query=path(0, edges=((2, 1), (1, 0), (0, 1))),
            include_embeddings=True,
        )
        assert counter(service, "misses") == 2
        assert forward["embeddings"] == backward["embeddings"]

    def test_the_257th_distinct_query_evicts_the_least_recently_used(
        self, service, server
    ):
        capacity = server_module._INTERN_CAPACITY
        assert capacity == 256
        for label in range(capacity):
            assert send(server, query=path(label))["ok"]
        assert len(server._queries) == capacity
        send(server, query=path(0))  # refresh: label 1 is now the oldest
        assert counter(service, "hits") == 1
        assert send(server, query=path(capacity))["ok"]
        assert len(server._queries) == capacity
        send(server, query=path(0))
        assert counter(service, "hits") == 2  # survived
        send(server, query=path(1))
        assert counter(service, "hits") == 2  # evicted: decoded again
        assert counter(service, "misses") == capacity + 2

    def test_a_query_over_the_size_bound_is_never_kept(self, service, server):
        limit = server_module._INTERN_MAX_SIZE
        repeated = ((0, 1), (1, 2)) * limit  # duplicates collapse on decode
        at_limit = path(500, edges=repeated[: limit - 3])
        assert send(server, query=at_limit)["ok"]
        assert len(server._queries) == 1
        padding = repeated[: limit - 2]  # one element over
        for label in range(300):
            assert send(server, query=path(label, edges=padding))["ok"]
        assert len(server._queries) == 1
        assert counter(service, "skipped") == 300
        assert counter(service, "hits") == 0

    def test_an_invalid_query_is_never_kept_and_always_counted(
        self, service, server
    ):
        disconnected = {"labels": [0, 1, 2, 0], "edges": [[0, 1], [1, 2]]}
        float_label = {"labels": [0, 1.0, 2], "edges": [[0, 1], [1, 2]]}
        for _ in range(3):
            assert send(server, query=disconnected)["code"] == "InvalidQueryError"
        assert len(server._queries) == 0
        assert service.metrics.counters["serve.rejected_invalid"] == 3
        # 1.0 == 1 and they hash alike: the type check runs before the
        # lookup, so a warm table cannot launder a float label.
        assert send(server, query=path(0))["ok"]
        assert send(server, query=float_label)["code"] == "GraphFormatError"
        assert send(server, query=disconnected)["code"] == "InvalidQueryError"
        assert service.metrics.counters["serve.rejected_invalid"] == 4
        assert len(server._queries) == 1

    def test_a_rejected_request_does_not_intern_its_query(self, service, server):
        assert send(server, query=path(0), graph="nope")["code"] == "UnknownGraphError"
        assert send(server, query=path(0), match_limit="ten")["code"] == "GraphFormatError"
        assert len(server._queries) == 0

    def test_stats_op_reports_table_size_and_counters(self, service, server):
        send(server, query=path(0))
        send(server, query=path(0))
        send(server, query=path(7))
        stats = send(server, op="stats")["stats"]
        assert stats["interned"] == 2
        assert stats["counters"]["serve.interned_hits"] == 1
        assert stats["counters"]["serve.interned_misses"] == 2

    def test_an_interned_query_is_answered_at_the_new_epoch(self, service, server):
        live = {"labels": [0, 1, 2, 2], "edges": [[0, 1], [1, 2]]}
        added = send(server, op="add_graph", name="live", graph=live, dynamic=True)
        assert added["ok"]
        before = send(server, graph="live", query=path(0), include_embeddings=True)
        assert (before["epoch"], before["embeddings"]) == (0, [[0, 1, 2]])
        mutated = send(
            server, op="mutate", graph="live", mutations=[["add_edge", 1, 3]]
        )
        assert mutated["epoch"] == 1
        after = send(server, graph="live", query=path(0), include_embeddings=True)
        assert counter(service, "hits") == 1  # same object, new snapshot
        assert after["epoch"] == 1
        assert sorted(after["embeddings"]) == [[0, 1, 2], [0, 1, 3]]
