"""Unit tests for the session benchmark's record."""

import copy
import json

import pytest

import bench_session
import claims
from repro.obs import TraceSchemaError


@pytest.fixture(scope="module")
def payload():
    # Tiny scale: the record and the cache accounting are under test
    # here, not the speedup headline.
    return bench_session.run_session_benchmark(
        vertices=200, distinct=2, repeats=3, query_size=5, match_limit=50
    )


@pytest.fixture
def record(payload):
    return payload[0]


class TestPayload:
    def test_validates_and_is_json_serializable(self, payload):
        claims.check(payload, "session")
        json.dumps(payload)

    def test_schema_stamp(self, record):
        assert (record["suite"], record["name"]) == ("session", "repeated_queries")
        assert record["nproc"] >= 1

    def test_workload_shape(self, record):
        assert record["counters"]["total_queries"] == 2 * 3
        assert record["counters"]["data_vertices"] == 200

    def test_matches_agree(self, record):
        assert record["counters"]["matches_agree"] == 1

    def test_cache_accounting(self, record):
        counters = record["counters"]
        assert counters["prep_hits"] + counters["prep_misses"] == 6
        assert counters["prep_misses"] == 2     # one per distinct pattern

    def test_speedup_is_consistent(self, record):
        metrics = record["metrics"]
        assert metrics["speedup_session_vs_one_shot"] == pytest.approx(
            metrics["one_shot_seconds"] / metrics["session_seconds"]
        )


def _doctored(payload, section, field, value):
    bad = copy.deepcopy(payload)
    if value is None:
        del bad[0][section][field]
    else:
        bad[0][section][field] = value
    return bad


class TestValidatorRejects:
    def test_wrong_schema_version(self, payload):
        # An older payload format's version stamp is no record field.
        bad = copy.deepcopy(payload)
        bad[0]["schema_version"] = 99
        with pytest.raises(TraceSchemaError, match="schema_version"):
            claims.check(bad)

    def test_wrong_benchmark_id(self, payload):
        bad = copy.deepcopy(payload)
        bad[0]["suite"] = "something-else"
        with pytest.raises(TraceSchemaError, match="known suite"):
            claims.check(bad)
        with pytest.raises(TraceSchemaError, match="known suite"):
            claims.check(payload, "server")

    def test_inconsistent_workload_total(self, payload):
        bad = _doctored(payload, "counters", "total_queries", 7)
        with pytest.raises(TraceSchemaError, match="total_queries"):
            claims.check(bad)

    def test_cache_counters_must_cover_workload(self, payload):
        hits = payload[0]["counters"]["prep_hits"]
        bad = _doctored(payload, "counters", "prep_hits", hits + 1)
        with pytest.raises(TraceSchemaError, match="hits"):
            claims.check(bad)

    def test_disagreeing_matches_rejected(self, payload):
        bad = _doctored(payload, "counters", "matches_agree", 0)
        with pytest.raises(TraceSchemaError, match="match counts agree"):
            claims.check(bad)

    def test_missing_mode_timings(self, payload):
        bad = _doctored(payload, "metrics", "session_seconds_per_query", None)
        with pytest.raises(TraceSchemaError, match="session_seconds_per_query"):
            claims.check(bad)
