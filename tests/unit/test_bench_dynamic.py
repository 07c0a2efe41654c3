"""Unit tests for the dynamic benchmark's record."""

import copy
import json

import pytest

import bench_dynamic
import claims
import records
from repro.obs import TraceSchemaError

#: Tiny scale: the record, the correctness attestations and the counted
#: floor are under test here, not the wall-clock headline, which a loaded
#: host can push under the floor at this scale (CI's dynamic-smoke job
#: holds it to the floor).
_TINY = dict(
    vertices=300,
    degree=6.0,
    labels=3,
    query_size=4,
    churn_fraction=0.02,
    batch_size=2,
    match_limit=5_000,
)


@pytest.fixture(scope="module")
def payload():
    return bench_dynamic.run_dynamic_benchmark(**_TINY)


def _doctored(payload, section, field, value):
    bad = copy.deepcopy(payload)
    if value is None:
        del bad[0][section][field]
    else:
        bad[0][section][field] = value
    return bad


class TestPayload:
    def test_validates_and_is_json_serializable(self, payload):
        claims.check(payload, "dynamic")
        json.dumps(payload)

    def test_schema_stamp(self, payload):
        assert [(r["suite"], r["name"]) for r in payload] == [
            ("dynamic", "maintenance")
        ]

    def test_attestations_hold(self, payload):
        assert payload[0]["counters"]["states_identical"] == 1
        assert payload[0]["counters"]["final_match_identical"] == 1

    def test_speedup_clears_the_floor_and_is_consistent(self, payload):
        metrics, counters = payload[0]["metrics"], payload[0]["counters"]
        assert metrics["speedup_counted"] >= claims.MIN_DYNAMIC_SPEEDUP
        assert metrics["speedup_counted"] == pytest.approx(
            counters["scratch_entries"] / counters["incremental_entries"]
        )
        assert metrics["speedup_incremental_vs_scratch"] == pytest.approx(
            metrics["scratch_seconds"] / metrics["incremental_seconds"]
        )

    def test_counted_work_is_deterministic(self, payload):
        again = bench_dynamic.run_dynamic_benchmark(**_TINY)[0]["counters"]
        for field in ("incremental_entries", "scratch_entries"):
            assert again[field] == payload[0]["counters"][field]

    def test_no_leaks(self, payload):
        assert payload[0]["counters"]["shm_segments_leaked"] == 0
        assert payload[0]["counters"]["tempfiles_leaked"] == 0

    def test_workload_accounting(self, payload):
        counters = payload[0]["counters"]
        assert counters["ops_total"] >= counters["num_batches"]
        assert 0 < payload[0]["key"]["churn_fraction"] <= 1


class TestCheckedInPayloads:
    @pytest.mark.parametrize("path", ["dynamic.jsonl"])
    def test_committed_payload_still_validates(self, path):
        assert claims.main([str(records.RESULTS_DIR / path)]) == 0


class TestValidatorRejects:
    def test_wrong_schema_version(self, payload):
        # An older payload format's version stamp is no record field.
        bad = copy.deepcopy(payload)
        bad[0]["schema_version"] = 2
        with pytest.raises(TraceSchemaError, match="schema_version"):
            claims.check(bad)

    def test_wrong_benchmark_id(self, payload):
        bad = copy.deepcopy(payload)
        bad[0]["suite"] = "something-else"
        with pytest.raises(TraceSchemaError, match="known suite"):
            claims.check(bad)

    def test_speedup_below_floor_rejected(self, payload):
        entries = payload[0]["counters"]["incremental_entries"]
        bad = _doctored(payload, "counters", "scratch_entries", entries)
        bad[0]["metrics"]["speedup_counted"] = 1.0
        with pytest.raises(TraceSchemaError, match="speedup_counted >= 5.0"):
            claims.check(bad)

    def test_a_slow_wall_clock_is_left_to_ci(self, payload):
        # Seconds move with the host's load; the claims hold them to
        # their ratio only, and CI's dynamic-smoke job to the floor.
        seconds = payload[0]["metrics"]["incremental_seconds"]
        slow = _doctored(payload, "metrics", "scratch_seconds", seconds)
        slow[0]["metrics"]["speedup_incremental_vs_scratch"] = 1.0
        claims.check(slow)

    def test_inconsistent_speedup_rejected(self, payload):
        for field in ("speedup_incremental_vs_scratch", "speedup_counted"):
            bad = _doctored(
                payload, "metrics", field, payload[0]["metrics"][field] + 1.0
            )
            with pytest.raises(TraceSchemaError, match=f"{field} = "):
                claims.check(bad)

    def test_diverged_states_rejected(self, payload):
        bad = _doctored(payload, "counters", "states_identical", 0)
        with pytest.raises(TraceSchemaError, match="equal a rebuild's"):
            claims.check(bad)

    def test_diverged_final_match_rejected(self, payload):
        bad = _doctored(payload, "counters", "final_match_identical", 0)
        with pytest.raises(TraceSchemaError, match="equal a rebuild's"):
            claims.check(bad)

    def test_leaks_rejected(self, payload):
        for field in ("shm_segments_leaked", "tempfiles_leaked"):
            bad = _doctored(payload, "counters", field, 2)
            with pytest.raises(TraceSchemaError, match="nothing leaked"):
                claims.check(bad)

    def test_missing_timings_rejected(self, payload):
        bad = _doctored(payload, "metrics", "incremental_seconds", None)
        with pytest.raises(TraceSchemaError, match="scratch / incremental seconds"):
            claims.check(bad)
