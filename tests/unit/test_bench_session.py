"""Unit tests for the session benchmark's BENCH_session.json contract."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

from repro.obs import (
    BENCH_SESSION_SCHEMA_VERSION,
    TraceSchemaError,
    validate_bench_session,
)

_BENCH_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_session.py"


@pytest.fixture(scope="module")
def bench_module():
    spec = importlib.util.spec_from_file_location("bench_session", _BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def payload(bench_module):
    # Tiny scale: the schema and the cache accounting are under test
    # here, not the speedup headline.
    return bench_module.run_session_benchmark(
        vertices=200, distinct=2, repeats=3, query_size=5, match_limit=50
    )


class TestPayload:
    def test_validates_and_is_json_serializable(self, payload):
        validate_bench_session(payload)
        json.dumps(payload)

    def test_schema_stamp(self, payload):
        assert payload["schema_version"] == BENCH_SESSION_SCHEMA_VERSION
        assert payload["benchmark"] == "session-throughput"

    def test_workload_shape(self, payload):
        workload = payload["workload"]
        assert workload["total_queries"] == 2 * 3
        assert workload["data_vertices"] == 200

    def test_matches_agree(self, payload):
        assert payload["matches_agree"] is True

    def test_cache_accounting(self, payload):
        info = payload["cache"]["prep"]
        assert info["hits"] + info["misses"] == 6
        assert info["misses"] == 2     # one per distinct pattern

    def test_speedup_is_consistent(self, payload):
        assert payload["speedup_session_vs_one_shot"] == pytest.approx(
            payload["one_shot"]["seconds_total"]
            / payload["session"]["seconds_total"]
        )


class TestValidatorRejects:
    def test_wrong_schema_version(self, payload):
        bad = copy.deepcopy(payload)
        bad["schema_version"] = 99
        with pytest.raises(TraceSchemaError, match="schema_version"):
            validate_bench_session(bad)

    def test_wrong_benchmark_id(self, payload):
        bad = copy.deepcopy(payload)
        bad["benchmark"] = "something-else"
        with pytest.raises(TraceSchemaError, match="benchmark id"):
            validate_bench_session(bad)

    def test_inconsistent_workload_total(self, payload):
        bad = copy.deepcopy(payload)
        bad["workload"]["total_queries"] += 1
        with pytest.raises(TraceSchemaError, match="total_queries"):
            validate_bench_session(bad)

    def test_cache_counters_must_cover_workload(self, payload):
        bad = copy.deepcopy(payload)
        bad["cache"]["prep"]["hits"] += 1
        with pytest.raises(TraceSchemaError, match="hits"):
            validate_bench_session(bad)

    def test_disagreeing_matches_rejected(self, payload):
        bad = copy.deepcopy(payload)
        bad["matches_agree"] = False
        with pytest.raises(TraceSchemaError, match="matches_agree"):
            validate_bench_session(bad)

    def test_missing_mode_timings(self, payload):
        bad = copy.deepcopy(payload)
        del bad["session"]["seconds_per_query"]
        with pytest.raises(TraceSchemaError, match="seconds_per_query"):
            validate_bench_session(bad)
