"""Unit tests for the server benchmark's BENCH_server.json contract."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

from repro.obs import (
    BENCH_SERVER_SCHEMA_VERSION,
    TraceSchemaError,
    validate_bench_server,
)

_BENCH_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_server.py"


@pytest.fixture(scope="module")
def bench_module():
    spec = importlib.util.spec_from_file_location("bench_server", _BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def payload(bench_module):
    # Tiny scale: the schema, the counter accounting and the two-mode
    # agreement are under test here, not the speedup headline. Not
    # tinier: a caller alone inside MatchService.match runs its execution
    # itself, so three clients only ever overlap (and coalesce) when an
    # execution outlasts the interpreter's 5 ms switch interval — these
    # take 10-20 ms; at 0.1 ms one client finishes before the next starts.
    return bench_module.run_server_benchmark(
        vertices=800,
        tenants=2,
        clients=3,
        workers=2,
        distinct=2,
        requests_per_client=4,
        query_size=8,
        match_limit=30_000,
    )


class TestPayload:
    def test_validates_and_is_json_serializable(self, payload):
        validate_bench_server(payload)
        json.dumps(payload)

    def test_schema_stamp(self, payload):
        assert payload["schema_version"] == BENCH_SERVER_SCHEMA_VERSION
        assert payload["benchmark"] == "server-throughput"

    def test_workload_shape(self, payload):
        workload = payload["workload"]
        assert workload["total_requests"] == 3 * 4
        assert workload["data_vertices"] == 800

    def test_every_request_completed_in_both_modes(self, payload):
        for mode in ("coalescing_on", "coalescing_off"):
            counters = payload[mode]["counters"]
            assert counters["serve.completed"] == 12
            assert counters["serve.admitted"] == 12

    def test_coalescing_off_executes_every_request(self, payload):
        counters = payload["coalescing_off"]["counters"]
        assert counters["serve.executed"] == 12
        assert counters.get("serve.coalesced", 0) == 0

    def test_coalescing_on_executes_fewer(self, payload):
        on = payload["coalescing_on"]["counters"]
        off = payload["coalescing_off"]["counters"]
        assert on["serve.executed"] <= off["serve.executed"]
        assert on["serve.executed"] + on["serve.coalesced"] == 12

    def test_results_agree(self, payload):
        assert payload["results_agree"] is True

    def test_percentiles_ordered(self, payload):
        for mode in ("coalescing_on", "coalescing_off"):
            stats = payload[mode]
            assert stats["p99_ms"] >= stats["p50_ms"] > 0


class TestValidatorRejections:
    @pytest.fixture
    def valid(self, payload):
        return copy.deepcopy(payload)

    def test_wrong_schema_version(self, valid):
        valid["schema_version"] = 99
        with pytest.raises(TraceSchemaError, match="schema_version"):
            validate_bench_server(valid)

    def test_wrong_benchmark_id(self, valid):
        valid["benchmark"] = "something-else"
        with pytest.raises(TraceSchemaError, match="benchmark id"):
            validate_bench_server(valid)

    def test_inconsistent_total(self, valid):
        valid["workload"]["total_requests"] += 1
        with pytest.raises(TraceSchemaError, match="total_requests"):
            validate_bench_server(valid)

    def test_missing_mode(self, valid):
        del valid["coalescing_off"]
        with pytest.raises(TraceSchemaError, match="coalescing_off"):
            validate_bench_server(valid)

    def test_completed_short_of_workload(self, valid):
        valid["coalescing_on"]["counters"]["serve.completed"] -= 1
        with pytest.raises(TraceSchemaError, match="serve.completed"):
            validate_bench_server(valid)

    def test_no_coalescing_observed(self, valid):
        valid["coalescing_on"]["counters"]["serve.coalesced"] = 0
        with pytest.raises(TraceSchemaError, match="serve.coalesced"):
            validate_bench_server(valid)

    def test_coalescing_executed_more_than_off(self, valid):
        valid["coalescing_on"]["counters"]["serve.executed"] = (
            valid["coalescing_off"]["counters"]["serve.executed"] + 1
        )
        with pytest.raises(TraceSchemaError, match="execute more often"):
            validate_bench_server(valid)

    def test_results_disagree(self, valid):
        valid["results_agree"] = False
        with pytest.raises(TraceSchemaError, match="results_agree"):
            validate_bench_server(valid)

    @pytest.mark.parametrize("value", [None, "3", [], {}, [1], {"n": 1}])
    def test_malformed_coalesced_counter(self, valid, value):
        valid["coalescing_on"]["counters"]["serve.coalesced"] = value
        with pytest.raises(TraceSchemaError, match="serve.coalesced"):
            validate_bench_server(valid)

    def test_uncoalesced_run_may_omit_coalesced_counter(self, valid):
        valid["coalescing_off"]["counters"].pop("serve.coalesced", None)
        validate_bench_server(valid)

    def test_inverted_percentiles(self, valid):
        valid["coalescing_on"]["p50_ms"] = (
            valid["coalescing_on"]["p99_ms"] + 1.0
        )
        with pytest.raises(TraceSchemaError, match="p99_ms"):
            validate_bench_server(valid)
