"""Unit tests for the dynamic benchmark's BENCH_dynamic.json contract."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

from repro.obs import (
    BENCH_DYNAMIC_SCHEMA_VERSION,
    MIN_DYNAMIC_SPEEDUP,
    TraceSchemaError,
    validate_bench_dynamic,
)

_REPO = Path(__file__).resolve().parents[2]
_BENCH_PATH = _REPO / "benchmarks" / "bench_dynamic.py"


@pytest.fixture(scope="module")
def bench_module():
    spec = importlib.util.spec_from_file_location("bench_dynamic", _BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def payload(bench_module):
    # Tiny scale: the schema and the correctness attestations are under
    # test here, not the speedup headline (though even at this scale the
    # per-batch rebuild loses by far more than the floor).
    return bench_module.run_dynamic_benchmark(
        vertices=300,
        degree=6.0,
        labels=3,
        query_size=4,
        churn_fraction=0.02,
        batch_size=2,
        match_limit=5_000,
    )


class TestPayload:
    def test_validates_and_is_json_serializable(self, payload):
        validate_bench_dynamic(payload)
        json.dumps(payload)

    def test_schema_stamp(self, payload):
        assert payload["schema_version"] == BENCH_DYNAMIC_SCHEMA_VERSION
        assert payload["benchmark"] == "dynamic-mutation"

    def test_attestations_hold(self, payload):
        assert payload["states_identical"] is True
        assert payload["final_match_identical"] is True

    def test_speedup_clears_the_floor_and_is_consistent(self, payload):
        assert payload["speedup_incremental_vs_scratch"] >= MIN_DYNAMIC_SPEEDUP
        assert payload["speedup_incremental_vs_scratch"] == pytest.approx(
            payload["timings"]["scratch_seconds"]
            / payload["timings"]["incremental_seconds"]
        )

    def test_no_leaks(self, payload):
        assert payload["shm_segments_leaked"] == 0
        assert payload["tempfiles_leaked"] == 0

    def test_workload_accounting(self, payload):
        workload = payload["workload"]
        assert workload["ops_total"] >= workload["num_batches"]
        assert 0 < workload["churn_fraction"] <= 1


class TestCheckedInPayloads:
    @pytest.mark.parametrize("path", ["BENCH_dynamic.json"])
    def test_committed_payload_still_validates(self, path):
        committed = json.loads((_REPO / path).read_text())
        validate_bench_dynamic(committed)


class TestValidatorRejects:
    def test_wrong_schema_version(self, payload):
        bad = copy.deepcopy(payload)
        bad["schema_version"] = 99
        with pytest.raises(TraceSchemaError, match="schema_version"):
            validate_bench_dynamic(bad)

    def test_wrong_benchmark_id(self, payload):
        bad = copy.deepcopy(payload)
        bad["benchmark"] = "something-else"
        with pytest.raises(TraceSchemaError, match="benchmark id"):
            validate_bench_dynamic(bad)

    def test_speedup_below_floor_rejected(self, payload):
        bad = copy.deepcopy(payload)
        bad["timings"]["scratch_seconds"] = bad["timings"]["incremental_seconds"]
        bad["speedup_incremental_vs_scratch"] = 1.0
        with pytest.raises(TraceSchemaError, match="floor"):
            validate_bench_dynamic(bad)

    def test_inconsistent_speedup_rejected(self, payload):
        bad = copy.deepcopy(payload)
        bad["speedup_incremental_vs_scratch"] += 1.0
        with pytest.raises(TraceSchemaError, match="must equal"):
            validate_bench_dynamic(bad)

    def test_diverged_states_rejected(self, payload):
        bad = copy.deepcopy(payload)
        bad["states_identical"] = False
        with pytest.raises(TraceSchemaError, match="states_identical"):
            validate_bench_dynamic(bad)

    def test_diverged_final_match_rejected(self, payload):
        bad = copy.deepcopy(payload)
        bad["final_match_identical"] = False
        with pytest.raises(TraceSchemaError, match="final_match_identical"):
            validate_bench_dynamic(bad)

    def test_leaks_rejected(self, payload):
        for key in ("shm_segments_leaked", "tempfiles_leaked"):
            bad = copy.deepcopy(payload)
            bad[key] = 2
            with pytest.raises(TraceSchemaError, match=key):
                validate_bench_dynamic(bad)

    def test_missing_timings_rejected(self, payload):
        bad = copy.deepcopy(payload)
        del bad["timings"]["incremental_seconds"]
        with pytest.raises(TraceSchemaError, match="incremental_seconds"):
            validate_bench_dynamic(bad)
