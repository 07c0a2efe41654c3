"""Unit tests for the kernel shoot-out's records."""

import pytest

import bench_kernels
import claims
import records
from repro.obs import TraceSchemaError
from repro.utils.kernels import available_kernels


@pytest.fixture(scope="module")
def run():
    # Small arrays: the records are under test here, not the timings.
    return bench_kernels.run_backend_shootout(universe=4_000, size=256)


class TestShootoutPayload:
    def test_schema_version_stamped(self, run):
        # The one record format carries provenance, not a version stamp.
        for r in run:
            assert r["suite"] == "kernels"
            assert r["nproc"] >= 1
            assert r["sha"] == records.head_sha()
            assert "schema_version" not in r

    def test_resolved_kernel_names_stamped(self, run):
        names = [n for n in available_kernels() if n != "auto"]
        assert {r["name"]: r["key"]["kernel"] for r in run} == {n: n for n in names}
        assert "qfilter" in names

    def test_payload_validates(self, run):
        claims.check(run, "kernels")

    def test_written_file_round_trips_through_validator(self, run, tmp_path):
        path = tmp_path / "kernels.jsonl"
        records.append(run, path)
        records.append(run, path)
        assert list(claims.runs(claims.load(path))) == [run, run]
        assert claims.main([str(path)]) == 0

    def test_timings_positive(self, run):
        assert all(r["metrics"]["seconds_per_call"] > 0 for r in run)
        assert all(r["metrics"]["speedup_vs_scalar"] > 0 for r in run)


class TestCheckedInArtifact:
    """The repository's checked-in kernels records hold their claims."""

    @pytest.mark.parametrize("relative", ["benchmarks/results/kernels.jsonl"])
    def test_artifact_validates(self, relative):
        assert claims.main([str(records.RESULTS_DIR.parent.parent / relative)]) == 0


class TestValidatorRejections:
    def test_missing_kernels_key(self, run):
        bad = [dict(r, key={"universe": 4_000, "array_size": 256}) for r in run]
        with pytest.raises(TraceSchemaError, match="names the kernel"):
            claims.check(bad)

    def test_stale_schema_version(self, run):
        bad = [dict(r) for r in run]
        bad[0]["schema_version"] = 2
        with pytest.raises(TraceSchemaError, match="schema_version is not a record field"):
            claims.check(bad)
