"""Unit tests for the serving tier: clock, service, wire protocol.

The concurrency semantics (coalescing parity, deadlines under load,
backpressure races) live in ``tests/concurrency/``; these tests pin the
single-threaded contracts — admission outcomes, counter accounting,
response shapes, wire encoding — that the concurrent suite builds on.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import (
    DeadlineExceededError,
    GraphFormatError,
    QueueFullError,
    ServeError,
    ServiceClosedError,
    UnknownGraphError,
)
from repro.graph import Graph, erdos_renyi_graph, extract_query
from repro.serve import (
    FakeClock,
    MatchService,
    ServeResponse,
    SystemClock,
)
from repro.serve import protocol


@pytest.fixture(scope="module")
def data():
    return erdos_renyi_graph(80, 5.0, 4, seed=77)


@pytest.fixture(scope="module")
def query(data):
    return extract_query(data, 5, seed=1)


@pytest.fixture
def service(data):
    service = MatchService(workers=2)
    service.add_graph("g", data)
    yield service
    service.close()


class TestClock:
    def test_system_clock_is_monotonic(self):
        clock = SystemClock()
        a, b = clock.now(), clock.now()
        assert b >= a

    def test_fake_clock_advances_exactly(self):
        clock = FakeClock(start=10.0)
        assert clock.now() == 10.0
        clock.advance(0.5)
        assert clock.now() == 10.5

    def test_fake_clock_rejects_going_backwards(self):
        with pytest.raises(ValueError):
            FakeClock().advance(-1.0)


class TestServiceBasics:
    def test_match_roundtrip(self, service, query, data):
        response = service.match(query, graph="g", tenant="alice")
        assert isinstance(response, ServeResponse)
        assert response.ok and response.status == "ok"
        assert response.tenant == "alice"
        assert response.graph == "g"
        assert not response.coalesced
        assert response.result.num_matches > 0
        assert response.total_seconds >= response.queue_seconds >= 0.0

    def test_graph_registry(self, service, data):
        assert service.graphs() == ["g"]
        service.add_graph("other", data)
        assert service.graphs() == ["g", "other"]
        service.remove_graph("other")
        assert service.graphs() == ["g"]

    def test_sessions_are_per_tenant_and_graph(self, service, query):
        service.match(query, graph="g", tenant="a")
        service.match(query, graph="g", tenant="b")
        s_a = service.session_for("a", "g")
        s_b = service.session_for("b", "g")
        assert s_a is not s_b
        assert s_a is service.session_for("a", "g")  # cached

    def test_session_for_unknown_graph_raises(self, service):
        with pytest.raises(UnknownGraphError):
            service.session_for("a", "missing")

    def test_results_match_direct_session(self, service, query, data):
        from repro.core.session import MatchSession

        direct = MatchSession(data).match(query)
        served = service.match(query, graph="g").result
        assert served.embeddings == direct.embeddings
        assert served.num_matches == direct.num_matches

    def test_counters_accounting(self, data, query):
        service = MatchService(workers=1)
        service.add_graph("g", data)
        try:
            for _ in range(3):
                service.match(query, graph="g")
            with pytest.raises(UnknownGraphError):
                service.submit(query, graph="missing")
        finally:
            service.close()
        counters = service.metrics.counters
        assert counters["serve.requests"] == 4
        assert counters["serve.admitted"] == 3
        assert counters["serve.completed"] == 3
        assert counters["serve.rejected_unknown_graph"] == 1

    def test_stats_snapshot_shape(self, service, query):
        service.match(query, graph="g")
        stats = service.stats()
        assert stats["graphs"] == ["g"]
        assert stats["pending"] == 0
        assert stats["inflight"] == 0
        assert stats["queue_depth_peak"] >= 1
        assert stats["counters"]["serve.completed"] >= 1
        assert "serve.execute" in stats["phase_seconds"]

    def test_close_then_submit_raises(self, data, query):
        service = MatchService(workers=1)
        service.add_graph("g", data)
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(query, graph="g")

    def test_context_manager_closes(self, data, query):
        with MatchService(workers=1) as service:
            service.add_graph("g", data)
            assert service.match(query, graph="g").ok
        with pytest.raises(ServiceClosedError):
            service.submit(query, graph="g")

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            MatchService(workers=0)
        with pytest.raises(ValueError):
            MatchService(max_queue_depth=0)
        with pytest.raises(ValueError):
            MatchService().add_graph("", None)

    def test_serve_errors_share_base(self):
        for exc_type in (
            UnknownGraphError,
            QueueFullError,
            DeadlineExceededError,
            ServiceClosedError,
        ):
            assert issubclass(exc_type, ServeError)

    def test_execution_error_propagates_to_future(self, data, query, monkeypatch):
        # An unknown algorithm name no longer gets this far (admission
        # rejects it), so the failure is injected where executions run.
        service = MatchService(workers=1)
        service.add_graph("g", data)

        def boom(*args, **kwargs):
            raise RuntimeError("engine failure")

        monkeypatch.setattr(service.session_for("public", "g"), "match", boom)
        try:
            future = service.submit(query, graph="g")
            with pytest.raises(RuntimeError, match="engine failure"):
                future.result(timeout=60)
            assert service.metrics.counters["serve.errors"] == 1
        finally:
            service.close()

    def test_cancel_inflight_shutdown_yields_partial_result(self, data):
        # A query with a huge result space, preempted by shutdown: the
        # engine stops at a leaf-batch boundary and reports unsolved.
        big = erdos_renyi_graph(300, 8.0, 1, seed=5)  # single label
        triangle_ish = extract_query(big, 4, seed=3)
        service = MatchService(workers=1)
        service.add_graph("g", big)
        service._cancel_event.set()  # preempt before the run starts
        future = service.submit(
            triangle_ish, graph="g", match_limit=None, store_limit=0
        )
        response = future.result(timeout=60)
        service.close()
        assert response.status == "ok"
        assert not response.result.solved


class TestProtocol:
    def test_graph_payload_roundtrip(self, query):
        payload = protocol.graph_to_payload(query)
        rebuilt = protocol.graph_from_payload(payload)
        assert rebuilt == query

    @pytest.mark.parametrize(
        "bad",
        [
            None,
            [],
            {"labels": "abc", "edges": []},
            {"labels": [0, 1], "edges": "nope"},
            {"labels": [0, 1, 0], "edges": [[0]]},
            {"labels": [0, 1, 0], "edges": [[0, "x"]]},
        ],
    )
    def test_bad_graph_payloads_raise(self, bad):
        with pytest.raises(GraphFormatError):
            protocol.graph_from_payload(bad)

    def test_parse_request_validates_op(self):
        assert protocol.parse_request('{"op": "ping"}')["op"] == "ping"
        with pytest.raises(GraphFormatError):
            protocol.parse_request("not json")
        with pytest.raises(GraphFormatError):
            protocol.parse_request('["op"]')
        with pytest.raises(GraphFormatError):
            protocol.parse_request('{"op": "explode"}')

    def test_encode_response_is_one_json_line(self):
        raw = protocol.encode_response({"ok": True, "id": 7})
        assert raw.endswith(b"\n") and raw.count(b"\n") == 1
        assert json.loads(raw) == {"ok": True, "id": 7}

    def test_error_response_carries_class_name(self):
        payload = protocol.error_response(QueueFullError("full"), 3)
        assert payload == {
            "ok": False,
            "error": "full",
            "code": "QueueFullError",
            "id": 3,
        }

    def test_match_response_fields(self, service, query):
        response = service.match(query, graph="g", tenant="t")
        payload = protocol.match_response(
            response, request_id=9, include_embeddings=True
        )
        assert payload["ok"] and payload["status"] == "ok"
        assert payload["id"] == 9
        assert payload["num_matches"] == response.result.num_matches
        assert payload["kernel"] == response.result.kernel
        assert len(payload["embeddings"]) == len(response.result.embeddings)
        json.dumps(payload)  # wire-safe

    def test_match_response_without_embeddings(self, service, query):
        response = service.match(query, graph="g")
        payload = protocol.match_response(response)
        assert "embeddings" not in payload
        assert "id" not in payload
