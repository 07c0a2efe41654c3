"""Unit tests for mutation support in the session and serving tiers.

:class:`~repro.core.session.MatchSession` over a dynamic graph
(``mutate``/``ingest``/``subscribe``), :class:`MatchService.mutate`
with its per-tenant fan-out, epoch-stamped responses, and the wire
protocol's ``mutate`` op.
"""

from __future__ import annotations

import json

import pytest

from repro.core.session import MatchSession, MutationOutcome
from repro.dynamic import DynamicGraph, Mutation
from repro.errors import ConfigurationError, InvalidGraphError, UnknownGraphError
from repro.graph.graph import Graph
from repro.serve import MatchService
from repro.serve.server import MatchServer


def triangle():
    return Graph(labels=[0, 1, 2], edges=[(0, 1), (1, 2), (0, 2)])


def host():
    # Triangles (0, 1, 2) and (3, 4, 5); vertex 6 (label 1) dangles off 2.
    return Graph(
        labels=[0, 1, 2, 0, 1, 2, 1],
        edges=[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 6)],
    )


# ----------------------------------------------------------------------
# MatchSession
# ----------------------------------------------------------------------


class TestSessionMutation:
    def test_static_sessions_reject_the_dynamic_surface(self):
        session = MatchSession(host())
        try:
            with pytest.raises(ConfigurationError, match="immutable"):
                session.mutate([("add_edge", 0, 4)])
            with pytest.raises(ConfigurationError, match="immutable"):
                session.subscribe(triangle())
        finally:
            session.close()

    def test_mutate_then_match_sees_the_new_epoch(self):
        dyn = DynamicGraph(host())
        session = MatchSession(dyn, algorithm="GQL")
        try:
            before = session.match(triangle())
            assert before.num_matches == 2
            assert before.metrics.counters["session.data_epoch"] == 0

            outcome = session.mutate([("add_edge", 6, 0)])
            assert isinstance(outcome, MutationOutcome)
            assert outcome.epoch == 1
            assert outcome.delta.added_edges == ((0, 6),)

            after = session.match(triangle())
            assert after.num_matches == 3
            assert after.metrics.counters["session.data_epoch"] == 1
            assert session.metrics.counters["session.mutations"] == 1
            assert session.metrics.counters["session.mutated_edges"] == 1
        finally:
            session.close()

    def test_mutate_accepts_mutation_objects_and_op_tuples(self):
        session = MatchSession(DynamicGraph(host()))
        try:
            outcome = session.mutate(
                [Mutation("add_vertex", 2), ("add_edge", 6, 7)]
            )
            assert outcome.delta.added_vertices == ((7, 2),)
            assert outcome.delta.added_edges == ((6, 7),)
        finally:
            session.close()

    def test_mutation_outcome_carries_subscription_updates(self):
        dyn = DynamicGraph(host())
        session = MatchSession(dyn)
        try:
            sub = session.subscribe(triangle())
            assert session.subscriptions == (sub,)
            assert sub.matches() == [(0, 1, 2), (3, 4, 5)]

            outcome = session.mutate([("add_edge", 6, 0)])
            assert len(outcome.updates) == 1
            assert outcome.updates[0].added == ((0, 6, 2),)
            assert sub.num_matches == 3

            session.unsubscribe(sub)
            outcome = session.mutate([("remove_edge", 6, 0)])
            assert outcome.updates == ()
            assert sub.num_matches == 3  # unsubscribed: no longer maintained
        finally:
            session.close()

    def test_mutate_drops_the_superseded_cache_entries(self):
        """Epoch-keyed entries are dead after a write; they must not sit
        in the LRU until newer ones push them out."""
        session = MatchSession(DynamicGraph(host()), algorithm="GQL")
        try:
            session.match(triangle())
            session.match(triangle())
            before = session.cache_info()
            assert before["prep"]["size"] == 1

            session.mutate([("add_edge", 0, 1)])  # no-op: epoch unchanged
            assert session.cache_info() == before

            session.mutate([("add_edge", 6, 0)])
            after = session.cache_info()["prep"]
            assert after["size"] == 0
            assert after["hits"] == before["prep"]["hits"]
            assert after["misses"] == before["prep"]["misses"]
        finally:
            session.close()

    def test_ingest_folds_an_externally_applied_delta(self):
        dyn = DynamicGraph(host())
        session = MatchSession(dyn)
        try:
            sub = session.subscribe(triangle())
            delta = dyn.add_edge(6, 0)  # applied outside the session
            outcome = session.ingest(delta)
            assert outcome.epoch == 1
            assert outcome.updates[0].added == ((0, 6, 2),)
            # Idempotent per delta: a replay is a no-op for subscribers.
            assert session.ingest(delta).updates[0].empty
            assert sub.num_matches == 3
            assert session.match(triangle()).num_matches == 3
        finally:
            session.close()


# ----------------------------------------------------------------------
# MatchService
# ----------------------------------------------------------------------


@pytest.fixture
def service():
    service = MatchService(workers=2)
    service.add_graph("static", host())
    service.add_graph("live", host(), dynamic=True)
    yield service
    service.close()


class TestServiceMutation:
    def test_mutate_requires_a_known_dynamic_graph(self, service):
        with pytest.raises(UnknownGraphError):
            service.mutate("nope", [("add_edge", 0, 4)])
        with pytest.raises(ConfigurationError, match="dynamic=True"):
            service.mutate("static", [("add_edge", 0, 4)])

    def test_mutate_advances_the_epoch_and_responses_carry_it(self, service):
        first = service.match(triangle(), graph="live", tenant="a")
        assert first.epoch == 0
        assert first.result.num_matches == 2

        applied = service.mutate("live", [("add_edge", 6, 0)])
        assert applied.graph == "live"
        assert applied.epoch == 1
        assert applied.delta.added_edges == ((0, 6),)

        second = service.match(triangle(), graph="live", tenant="a")
        assert second.epoch == 1
        assert second.result.num_matches == 3
        assert service.metrics.counters["serve.mutations"] == 1
        assert service.metrics.counters["serve.mutated_edges"] == 1

    def test_static_graph_responses_have_no_epoch(self, service):
        response = service.match(triangle(), graph="static", tenant="a")
        assert response.epoch is None

    def test_a_rejected_batch_reaches_no_subscriber(self, service):
        sub = service.session_for("alice", "live").subscribe(triangle())
        bad = [["add_edge", 6, 0], ["add_edge", 1, 99]]  # (6, 0) alone would match
        with pytest.raises(InvalidGraphError):
            service.mutate("live", bad)
        response = MatchServer(service, port=0)._dispatch(
            json.dumps({"op": "mutate", "graph": "live", "mutations": bad})
        )
        assert response["ok"] is False
        assert response["code"] == "InvalidGraphError"

        applied = service.mutate("live", [("add_edge", 6, 3)])
        assert applied.epoch == 1
        assert applied.delta.added_edges == ((3, 6),)
        assert applied.updates["alice"][0].empty
        assert sub.matches() == [(0, 1, 2), (3, 4, 5)]
        response = service.match(triangle(), graph="live", tenant="alice")
        assert response.epoch == 1
        assert response.result.num_matches == 2

    def test_mutate_fans_out_to_subscribed_tenants_only(self, service):
        sub = service.session_for("alice", "live").subscribe(triangle())
        service.session_for("bob", "live")  # session, but no subscription

        applied = service.mutate("live", [("add_edge", 6, 0)])
        assert set(applied.updates) == {"alice"}
        assert applied.updates["alice"][0].added == ((0, 6, 2),)
        assert sub.num_matches == 3
        # Both tenants read the post-batch snapshot.
        for tenant in ("alice", "bob"):
            response = service.match(triangle(), graph="live", tenant=tenant)
            assert response.epoch == 1
            assert response.result.num_matches == 3


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------


class TestServerMutateOp:
    def dispatch(self, service, payload):
        server = MatchServer(service, port=0)
        return server._dispatch(json.dumps(payload))

    def test_mutate_op_round_trip(self, service):
        response = self.dispatch(
            service,
            {
                "op": "mutate",
                "id": 7,
                "graph": "live",
                "mutations": [["add_edge", 6, 0], ["add_vertex", 1]],
            },
        )
        assert response == {
            "ok": True,
            "graph": "live",
            "epoch": 1,
            "added_edges": 1,
            "removed_edges": 0,
            "added_vertices": 1,
            "id": 7,
        }

    def test_mutate_op_requires_a_mutations_list(self, service):
        response = self.dispatch(
            service, {"op": "mutate", "graph": "live", "id": 8}
        )
        assert response["ok"] is False
        assert "mutations" in response["error"]
        assert response["code"] == "GraphFormatError"

    def test_mutate_op_surfaces_immutable_graph_errors(self, service):
        response = self.dispatch(
            service,
            {"op": "mutate", "graph": "static", "mutations": [["add_edge", 0, 4]]},
        )
        assert response["ok"] is False
