"""Unit tests for the storage benchmark's records.

The live benchmark (subprocess out-of-core half included) is exercised
by the CI storage-smoke job; here we pin the claims against the
checked-in records and targeted mutations of them.
"""

import copy
import json

import pytest

import claims
import records
from repro.obs import TraceSchemaError


@pytest.fixture(scope="module")
def payload():
    return list(claims.runs(claims.load(records.RESULTS_DIR / "storage.jsonl")))[-1]


def _half(run, name):
    return next(r for r in run if r["name"] == name)


class TestCheckedInPayload:
    def test_repo_payload_validates(self, payload):
        claims.check(payload, "storage")
        json.dumps(payload)

    def test_schema_stamp(self, payload):
        assert [(r["suite"], r["name"]) for r in payload] == [
            ("storage", "warm"), ("storage", "out_of_core"),
        ]
        assert all(r["sha"] and r["nproc"] >= 1 for r in payload)

    def test_out_of_core_claim_is_genuine(self, payload):
        ooc = _half(payload, "out_of_core")
        assert ooc["counters"]["array_bytes"] > ooc["counters"]["memory_budget_bytes"]
        assert ooc["metrics"]["rss_ratio"] <= claims.MAX_OUT_OF_CORE_RSS_RATIO

    def test_warm_overhead_within_ceiling(self, payload):
        warm = _half(payload, "warm")
        assert warm["metrics"]["mmap_overhead"] <= claims.MAX_MMAP_WARM_OVERHEAD

    def test_nothing_leaked(self, payload):
        for r in payload:
            assert r["counters"]["shm_segments_leaked"] == 0
            assert r["counters"]["tempfiles_leaked"] == 0


class TestValidatorRejections:
    @pytest.fixture
    def bad(self, payload):
        return copy.deepcopy(payload)

    def test_wrong_schema_version(self, bad):
        # An older payload format's version stamp is no record field.
        bad[0]["schema_version"] = 99
        with pytest.raises(TraceSchemaError, match="schema_version"):
            claims.check(bad)

    def test_wrong_benchmark_id(self, bad):
        bad[0]["suite"] = "storage-backends"
        with pytest.raises(TraceSchemaError, match="known suite"):
            claims.check(bad)

    def test_warm_overhead_above_ceiling(self, bad):
        warm = _half(bad, "warm")["metrics"]
        warm["mmap_seconds"] = warm["in_memory_seconds"] * 2.0
        warm["mmap_overhead"] = 2.0
        with pytest.raises(TraceSchemaError, match="mmap_overhead <= 1.3"):
            claims.check(bad)

    def test_warm_overhead_must_be_derived(self, bad):
        # The recorded ratio has to equal the recorded timings — a
        # hand-edited overhead is rejected even when under the ceiling.
        _half(bad, "warm")["metrics"]["mmap_overhead"] = 1.0
        with pytest.raises(TraceSchemaError, match="mmap_overhead = "):
            claims.check(bad)

    def test_warm_results_must_be_identical(self, bad):
        _half(bad, "warm")["counters"]["results_identical"] = 0
        with pytest.raises(TraceSchemaError, match="identical results"):
            claims.check(bad)

    def test_workload_must_exceed_budget(self, bad):
        counters = _half(bad, "out_of_core")["counters"]
        counters["memory_budget_bytes"] = counters["array_bytes"] + 1
        with pytest.raises(TraceSchemaError, match="exceed the memory budget"):
            claims.check(bad)

    def test_rss_ratio_above_ceiling(self, bad):
        ooc = _half(bad, "out_of_core")
        ooc["counters"]["mmap_peak_rss_bytes"] = ooc["counters"]["in_memory_peak_rss_bytes"]
        ooc["metrics"]["rss_ratio"] = 1.0
        with pytest.raises(TraceSchemaError, match="rss_ratio <= 0.5"):
            claims.check(bad)

    def test_rss_ratio_must_be_derived(self, bad):
        _half(bad, "out_of_core")["metrics"]["rss_ratio"] = 0.1
        with pytest.raises(TraceSchemaError, match="rss_ratio = "):
            claims.check(bad)

    def test_ooc_results_must_be_identical(self, bad):
        _half(bad, "out_of_core")["counters"]["results_identical"] = 0
        with pytest.raises(TraceSchemaError, match="identical results"):
            claims.check(bad)

    def test_leaked_segments(self, bad):
        bad[0]["counters"]["shm_segments_leaked"] = 1
        with pytest.raises(TraceSchemaError, match="nothing leaked"):
            claims.check(bad)

    def test_leaked_tempfiles(self, bad):
        bad[1]["counters"]["tempfiles_leaked"] = 1
        with pytest.raises(TraceSchemaError, match="nothing leaked"):
            claims.check(bad)

    def test_missing_half_rejected(self, bad):
        with pytest.raises(TraceSchemaError, match="exceed the memory budget"):
            claims.check(bad[:1])

    def test_nonpositive_timing_rejected(self, bad):
        _half(bad, "warm")["metrics"]["shm_seconds"] = 0
        with pytest.raises(TraceSchemaError, match="shm_seconds"):
            claims.check(bad)
