"""Unit tests for the storage benchmark's BENCH_storage.json contract.

The live benchmark (subprocess out-of-core half included) is exercised
by the CI storage-smoke job; here we pin the validator's honesty rules
against the checked-in payload and targeted mutations of it.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.obs import (
    BENCH_STORAGE_SCHEMA_VERSION,
    MAX_MMAP_WARM_OVERHEAD,
    MAX_OUT_OF_CORE_RSS_RATIO,
    TraceSchemaError,
    validate_bench_storage,
)

_REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def payload():
    return json.loads((_REPO / "BENCH_storage.json").read_text())


class TestCheckedInPayload:
    def test_repo_payload_validates(self, payload):
        validate_bench_storage(payload)
        json.dumps(payload)

    def test_schema_stamp(self, payload):
        assert payload["schema_version"] == BENCH_STORAGE_SCHEMA_VERSION
        assert payload["benchmark"] == "storage-backends"

    def test_out_of_core_claim_is_genuine(self, payload):
        workload = payload["out_of_core"]["workload"]
        assert workload["array_bytes"] > workload["memory_budget_bytes"]
        assert payload["out_of_core"]["rss_ratio"] <= MAX_OUT_OF_CORE_RSS_RATIO

    def test_warm_overhead_within_ceiling(self, payload):
        assert payload["warm"]["mmap_overhead"] <= MAX_MMAP_WARM_OVERHEAD

    def test_nothing_leaked(self, payload):
        assert payload["shm_segments_leaked"] == 0
        assert payload["tempfiles_leaked"] == 0


class TestValidatorRejections:
    def test_wrong_schema_version(self, payload):
        bad = copy.deepcopy(payload)
        bad["schema_version"] = 99
        with pytest.raises(TraceSchemaError, match="schema_version"):
            validate_bench_storage(bad)

    def test_wrong_benchmark_id(self, payload):
        bad = copy.deepcopy(payload)
        bad["benchmark"] = "storage"
        with pytest.raises(TraceSchemaError, match="benchmark id"):
            validate_bench_storage(bad)

    def test_warm_overhead_above_ceiling(self, payload):
        bad = copy.deepcopy(payload)
        bad["warm"]["mmap_seconds"] = bad["warm"]["in_memory_seconds"] * 2.0
        bad["warm"]["mmap_overhead"] = 2.0
        with pytest.raises(TraceSchemaError, match="ceiling"):
            validate_bench_storage(bad)

    def test_warm_overhead_must_be_derived(self, payload):
        # The recorded ratio has to equal the recorded timings — a
        # hand-edited overhead is rejected even when under the ceiling.
        bad = copy.deepcopy(payload)
        bad["warm"]["mmap_overhead"] = 1.0
        with pytest.raises(TraceSchemaError, match="must equal"):
            validate_bench_storage(bad)

    def test_warm_results_must_be_identical(self, payload):
        bad = copy.deepcopy(payload)
        bad["warm"]["results_identical"] = False
        with pytest.raises(TraceSchemaError, match="results_identical"):
            validate_bench_storage(bad)

    def test_workload_must_exceed_budget(self, payload):
        bad = copy.deepcopy(payload)
        workload = bad["out_of_core"]["workload"]
        workload["memory_budget_bytes"] = workload["array_bytes"] + 1
        with pytest.raises(TraceSchemaError, match="not out-of-core"):
            validate_bench_storage(bad)

    def test_rss_ratio_above_ceiling(self, payload):
        bad = copy.deepcopy(payload)
        ooc = bad["out_of_core"]
        ooc["mmap_peak_rss_bytes"] = ooc["in_memory_peak_rss_bytes"]
        ooc["rss_ratio"] = 1.0
        with pytest.raises(TraceSchemaError, match="ceiling"):
            validate_bench_storage(bad)

    def test_rss_ratio_must_be_derived(self, payload):
        bad = copy.deepcopy(payload)
        bad["out_of_core"]["rss_ratio"] = 0.1
        with pytest.raises(TraceSchemaError, match="must equal"):
            validate_bench_storage(bad)

    def test_ooc_results_must_be_identical(self, payload):
        bad = copy.deepcopy(payload)
        bad["out_of_core"]["results_identical"] = False
        with pytest.raises(TraceSchemaError, match="results_identical"):
            validate_bench_storage(bad)

    def test_leaked_segments(self, payload):
        bad = copy.deepcopy(payload)
        bad["shm_segments_leaked"] = 1
        with pytest.raises(TraceSchemaError, match="shm_segments_leaked"):
            validate_bench_storage(bad)

    def test_leaked_tempfiles(self, payload):
        bad = copy.deepcopy(payload)
        bad["tempfiles_leaked"] = 1
        with pytest.raises(TraceSchemaError, match="tempfiles_leaked"):
            validate_bench_storage(bad)

    def test_missing_half_rejected(self, payload):
        bad = copy.deepcopy(payload)
        del bad["out_of_core"]
        with pytest.raises(TraceSchemaError, match="out_of_core"):
            validate_bench_storage(bad)

    def test_nonpositive_timing_rejected(self, payload):
        bad = copy.deepcopy(payload)
        bad["warm"]["shm_seconds"] = 0
        with pytest.raises(TraceSchemaError, match="shm_seconds"):
            validate_bench_storage(bad)
