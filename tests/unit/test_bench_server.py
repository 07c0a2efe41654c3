"""Unit tests for the server benchmark's records."""

import copy
import json

import pytest

import bench_server
import claims
from repro.obs import TraceSchemaError


@pytest.fixture(scope="module")
def payload():
    # Tiny scale: the records, the counter accounting and the two-mode
    # agreement are under test here, not the speedup headline. Not
    # tinier: a caller alone inside MatchService.match runs its execution
    # itself, so three clients only ever overlap (and coalesce) when an
    # execution outlasts the interpreter's 5 ms switch interval — these
    # take 10-20 ms; at 0.1 ms one client finishes before the next starts.
    return bench_server.run_server_benchmark(
        vertices=800,
        tenants=2,
        clients=3,
        workers=2,
        distinct=2,
        requests_per_client=4,
        query_size=8,
        match_limit=30_000,
    )


def _modes(run):
    return {r["name"]: r for r in run}


class TestPayload:
    def test_validates_and_is_json_serializable(self, payload):
        claims.check(payload, "server")
        json.dumps(payload)

    def test_schema_stamp(self, payload):
        assert [(r["suite"], r["name"]) for r in payload] == [
            ("server", "coalescing_on"), ("server", "coalescing_off"),
        ]

    def test_workload_shape(self, payload):
        for r in payload:
            assert r["counters"]["total_requests"] == 3 * 4
            assert r["key"]["vertices"] == 800

    def test_every_request_completed_in_both_modes(self, payload):
        for r in payload:
            assert r["counters"]["serve.completed"] == 12
            assert r["counters"]["serve.admitted"] == 12

    def test_coalescing_off_executes_every_request(self, payload):
        counters = _modes(payload)["coalescing_off"]["counters"]
        assert counters["serve.executed"] == 12
        assert counters.get("serve.coalesced", 0) == 0

    def test_coalescing_on_executes_fewer(self, payload):
        on = _modes(payload)["coalescing_on"]["counters"]
        off = _modes(payload)["coalescing_off"]["counters"]
        assert on["serve.executed"] <= off["serve.executed"]
        assert on["serve.executed"] + on["serve.coalesced"] == 12

    def test_results_agree(self, payload):
        assert _modes(payload)["coalescing_on"]["counters"]["results_agree"] == 1

    def test_percentiles_ordered(self, payload):
        for r in payload:
            assert r["metrics"]["p99_ms"] >= r["metrics"]["p50_ms"] > 0


class TestValidatorRejections:
    @pytest.fixture
    def valid(self, payload):
        return copy.deepcopy(payload)

    def test_wrong_schema_version(self, valid):
        # An older payload format's version stamp is no record field.
        valid[0]["schema_version"] = 99
        with pytest.raises(TraceSchemaError, match="schema_version"):
            claims.check(valid)

    def test_wrong_benchmark_id(self, valid):
        valid[1]["suite"] = "something-else"
        with pytest.raises(TraceSchemaError, match="known suite"):
            claims.check(valid)

    def test_inconsistent_total(self, valid):
        valid[0]["key"]["requests_per_client"] += 1
        with pytest.raises(TraceSchemaError, match="total_requests"):
            claims.check(valid)

    def test_missing_mode(self, valid):
        with pytest.raises(TraceSchemaError, match="executes no more often"):
            claims.check(valid[:1])

    def test_completed_short_of_workload(self, valid):
        valid[0]["counters"]["serve.completed"] -= 1
        with pytest.raises(TraceSchemaError, match="serve.completed"):
            claims.check(valid)

    def test_no_coalescing_observed(self, valid):
        valid[0]["counters"]["serve.coalesced"] = 0
        with pytest.raises(TraceSchemaError, match="coalesced"):
            claims.check(valid)

    def test_coalescing_executed_more_than_off(self, valid):
        on, off = valid
        on["counters"]["serve.executed"] = off["counters"]["serve.executed"] + 1
        with pytest.raises(TraceSchemaError, match="executes no more often"):
            claims.check(valid)

    def test_results_disagree(self, valid):
        valid[0]["counters"]["results_agree"] = 0
        with pytest.raises(TraceSchemaError, match="agree on every match count"):
            claims.check(valid)

    @pytest.mark.parametrize("value", [None, "3", [], {}, [1], {"n": 1}])
    def test_malformed_coalesced_counter(self, valid, value):
        valid[0]["counters"]["serve.coalesced"] = value
        with pytest.raises(TraceSchemaError, match="serve.coalesced"):
            claims.check(valid)

    def test_uncoalesced_run_may_omit_coalesced_counter(self, valid):
        valid[1]["counters"].pop("serve.coalesced", None)
        claims.check(valid)

    def test_inverted_percentiles(self, valid):
        valid[0]["metrics"]["p50_ms"] = valid[0]["metrics"]["p99_ms"] + 1.0
        with pytest.raises(TraceSchemaError, match="p99_ms"):
            claims.check(valid)
