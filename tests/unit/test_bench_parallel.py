"""Unit tests for the parallel benchmark's BENCH_parallel.json contract."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

from repro.obs import (
    BENCH_PARALLEL_SCHEMA_VERSION,
    MIN_PARALLEL_SPEEDUP,
    TraceSchemaError,
    validate_bench_parallel,
)

_BENCH_PATH = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "bench_parallel.py"
)


@pytest.fixture(scope="module")
def bench_module():
    spec = importlib.util.spec_from_file_location(
        "bench_parallel", _BENCH_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def payload(bench_module):
    # Small scale, but large enough that the chunked schedule still
    # clears the speedup floor the validator enforces. The floor is
    # counted from per-chunk recursion_calls, which load on the host
    # cannot move; CI's parallel-smoke job measures it in wall clock.
    return bench_module.run_parallel_benchmark(
        vertices=1_000,
        num_queries=2,
        repeats=1,
        measure=False,
    )


class TestGreedyMakespan:
    def test_single_worker_is_the_sum(self, bench_module):
        assert bench_module.greedy_makespan([3.0, 1.0, 2.0], 1) == 6.0

    def test_many_workers_bounded_by_longest(self, bench_module):
        times = [5.0, 1.0, 1.0, 1.0]
        assert bench_module.greedy_makespan(times, 4) == 5.0

    def test_balances_across_workers(self, bench_module):
        times = [4.0, 3.0, 3.0, 2.0]
        # Longest-first greedy: {4, 2} and {3, 3}.
        assert bench_module.greedy_makespan(times, 2) == 6.0


class TestPayload:
    def test_validates_and_is_json_serializable(self, payload):
        validate_bench_parallel(payload)
        json.dumps(payload)

    def test_schema_stamp(self, payload):
        assert payload["schema_version"] == BENCH_PARALLEL_SCHEMA_VERSION
        assert payload["benchmark"] == "parallel-enumeration"

    def test_speedup_provenance_is_declared(self, payload):
        assert payload["speedup_source"] == "counted"

    def test_counted_speedup_is_the_makespan_of_chunk_calls(
        self, payload, bench_module
    ):
        for entry in payload["queries"]:
            makespan = bench_module.greedy_makespan(entry["chunk_calls"], 4)
            assert entry["speedups"]["4"] == (
                entry["sequential_calls"] / makespan
            )

    def test_embeddings_identical(self, payload):
        assert payload["embeddings_identical"] is True
        assert all(q["embeddings_identical"] for q in payload["queries"])

    def test_clears_speedup_floor(self, payload):
        assert (
            payload["overall_speedup_4_workers"] >= MIN_PARALLEL_SPEEDUP
        )

    def test_no_shared_memory_leaked(self, payload):
        assert payload["shm_segments_leaked"] == 0

    def test_per_query_chunk_timings_recorded(self, payload):
        for entry in payload["queries"]:
            assert entry["chunk_seconds"]
            assert len(entry["chunk_seconds"]) <= payload["workload"]["chunks"]
            assert "4" in entry["speedups"]


class TestValidatorRejections:
    def test_wrong_schema_version(self, payload):
        bad = copy.deepcopy(payload)
        bad["schema_version"] = 99
        with pytest.raises(TraceSchemaError, match="schema_version"):
            validate_bench_parallel(bad)

    def test_speedup_below_floor(self, payload):
        bad = copy.deepcopy(payload)
        bad["overall_speedup_4_workers"] = 1.1
        with pytest.raises(TraceSchemaError, match="floor"):
            validate_bench_parallel(bad)

    def test_nonidentical_embeddings(self, payload):
        bad = copy.deepcopy(payload)
        bad["queries"][0]["embeddings_identical"] = False
        with pytest.raises(TraceSchemaError, match="embeddings_identical"):
            validate_bench_parallel(bad)

    def test_leaked_segments(self, payload):
        bad = copy.deepcopy(payload)
        bad["shm_segments_leaked"] = 2
        with pytest.raises(TraceSchemaError, match="shm_segments_leaked"):
            validate_bench_parallel(bad)

    def test_unknown_speedup_source(self, payload):
        bad = copy.deepcopy(payload)
        bad["speedup_source"] = "guessed"
        with pytest.raises(TraceSchemaError, match="speedup_source"):
            validate_bench_parallel(bad)

    def test_chunk_calls_are_required(self, payload):
        bad = copy.deepcopy(payload)
        del bad["queries"][0]["chunk_calls"]
        with pytest.raises(TraceSchemaError, match="chunk_calls"):
            validate_bench_parallel(bad)

    def test_measured_requires_four_cpus(self, payload):
        bad = copy.deepcopy(payload)
        bad["speedup_source"] = "measured"
        bad["host_cpus"] = 1
        with pytest.raises(TraceSchemaError, match="CPUs"):
            validate_bench_parallel(bad)

    def test_missing_four_worker_speedup(self, payload):
        bad = copy.deepcopy(payload)
        del bad["queries"][0]["speedups"]["4"]
        with pytest.raises(TraceSchemaError, match="speedups"):
            validate_bench_parallel(bad)


class TestCheckedInPayload:
    def test_repo_payload_validates(self):
        path = _BENCH_PATH.parent.parent / "BENCH_parallel.json"
        payload = json.loads(path.read_text())
        validate_bench_parallel(payload)
