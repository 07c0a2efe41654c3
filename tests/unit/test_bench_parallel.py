"""Unit tests for the parallel benchmark's records."""

import copy
import json

import pytest

import bench_parallel
import claims
import records
from repro.obs import TraceSchemaError


@pytest.fixture(scope="module")
def payload():
    # Small scale, but large enough that the chunked schedule still
    # clears the speedup floor the claims enforce. The floor is counted
    # from per-chunk recursion_calls, which load on the host cannot
    # move; CI's parallel-smoke job measures it in wall clock.
    return bench_parallel.run_parallel_benchmark(
        vertices=1_000,
        num_queries=2,
        repeats=1,
        measure=False,
    )


def _queries(run):
    return [r for r in run if r["name"].startswith("query")]


def _chunk_calls(record):
    counters = record["counters"]
    return [counters[name] for name in counters if name.startswith("chunk_calls.")]


class TestGreedyMakespan:
    def test_single_worker_is_the_sum(self):
        assert bench_parallel.greedy_makespan([3.0, 1.0, 2.0], 1) == 6.0

    def test_many_workers_bounded_by_longest(self):
        times = [5.0, 1.0, 1.0, 1.0]
        assert bench_parallel.greedy_makespan(times, 4) == 5.0

    def test_balances_across_workers(self):
        times = [4.0, 3.0, 3.0, 2.0]
        # Longest-first greedy: {4, 2} and {3, 3}.
        assert bench_parallel.greedy_makespan(times, 2) == 6.0


class TestPayload:
    def test_validates_and_is_json_serializable(self, payload):
        claims.check(payload, "parallel")
        json.dumps(payload)

    def test_schema_stamp(self, payload):
        assert [r["name"] for r in payload] == ["query0", "query1", "overall"]
        assert {r["suite"] for r in payload} == {"parallel"}

    def test_speedup_provenance_is_declared(self, payload):
        assert {r["key"]["speedup_source"] for r in payload} == {"counted"}

    def test_counted_speedup_is_the_makespan_of_chunk_calls(self, payload):
        for r in _queries(payload):
            makespan = bench_parallel.greedy_makespan(_chunk_calls(r), 4)
            assert r["metrics"]["speedup_4"] == (
                r["counters"]["sequential_calls"] / makespan
            )

    def test_embeddings_identical(self, payload):
        assert all(r["counters"]["embeddings_identical"] == 1 for r in payload)

    def test_clears_speedup_floor(self, payload):
        assert payload[-1]["metrics"]["speedup_4"] >= claims.MIN_PARALLEL_SPEEDUP

    def test_no_shared_memory_leaked(self, payload):
        assert all(r["counters"]["shm_segments_leaked"] == 0 for r in payload)

    def test_per_query_chunk_timings_recorded(self, payload):
        for r in _queries(payload):
            calls = _chunk_calls(r)
            assert 0 < len(calls) <= r["key"]["chunks"]
            assert all(f"chunk_seconds.{i}" in r["metrics"] for i in range(len(calls)))
            assert "speedup_4" in r["metrics"]


class TestValidatorRejections:
    def test_wrong_schema_version(self, payload):
        # An older payload format's version stamp is no record field.
        bad = copy.deepcopy(payload)
        bad[-1]["schema_version"] = 1
        with pytest.raises(TraceSchemaError, match="schema_version"):
            claims.check(bad)

    def test_speedup_below_floor(self, payload):
        bad = copy.deepcopy(payload)
        bad[-1]["metrics"]["speedup_4"] = 1.1
        with pytest.raises(TraceSchemaError, match="speedup >= 2.5"):
            claims.check(bad)

    def test_nonidentical_embeddings(self, payload):
        bad = copy.deepcopy(payload)
        bad[0]["counters"]["embeddings_identical"] = 0
        with pytest.raises(TraceSchemaError, match="byte-identical"):
            claims.check(bad)

    def test_leaked_segments(self, payload):
        bad = copy.deepcopy(payload)
        bad[-1]["counters"]["shm_segments_leaked"] = 2
        with pytest.raises(TraceSchemaError, match="shm_segments_leaked"):
            claims.check(bad)

    def test_unknown_speedup_source(self, payload):
        bad = copy.deepcopy(payload)
        bad[0]["key"]["speedup_source"] = "guessed"
        with pytest.raises(TraceSchemaError, match="speedup_source"):
            claims.check(bad)

    def test_chunk_calls_are_required(self, payload):
        bad = copy.deepcopy(payload)
        del bad[0]["counters"]["chunk_calls.0"]
        with pytest.raises(TraceSchemaError, match="each timed and counted"):
            claims.check(bad)

    def test_measured_requires_four_cpus(self, payload):
        bad = copy.deepcopy(payload)
        for r in bad:
            r["key"]["speedup_source"] = "measured"
            r["nproc"] = 1
        with pytest.raises(TraceSchemaError, match="4 CPUs"):
            claims.check(bad)

    def test_missing_four_worker_speedup(self, payload):
        bad = copy.deepcopy(payload)
        del bad[0]["metrics"]["speedup_4"]
        with pytest.raises(TraceSchemaError, match="4-worker speedup"):
            claims.check(bad)


class TestCheckedInPayload:
    def test_repo_payload_validates(self):
        assert claims.main([str(records.RESULTS_DIR / "parallel.jsonl")]) == 0
