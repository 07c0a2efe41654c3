"""Unit tests for the kernel shoot-out's BENCH_kernels.json contract."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.obs import (
    BENCH_KERNELS_SCHEMA_VERSION,
    TraceSchemaError,
    validate_bench_kernels,
)
from repro.utils.kernels import available_kernels

_BENCH_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_kernels.py"


@pytest.fixture(scope="module")
def bench_module():
    spec = importlib.util.spec_from_file_location("bench_kernels", _BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def payload(bench_module):
    # Small arrays: the schema is under test here, not the timings.
    return bench_module.run_backend_shootout(universe=4_000, size=256)


class TestShootoutPayload:
    def test_schema_version_stamped(self, payload):
        assert payload["schema_version"] == BENCH_KERNELS_SCHEMA_VERSION

    def test_resolved_kernel_names_stamped(self, payload):
        names = [n for n in available_kernels() if n != "auto"]
        assert payload["kernels"] == {name: name for name in names}
        assert "qfilter" in names

    def test_payload_validates(self, payload):
        validate_bench_kernels(payload)

    def test_written_file_round_trips_through_validator(self, payload, tmp_path):
        path = tmp_path / "BENCH_kernels.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
        validate_bench_kernels(json.loads(path.read_text()))

    def test_timings_positive(self, payload):
        assert all(t > 0 for t in payload["seconds_per_call"].values())
        assert payload["speedup_numpy_vs_scalar"] > 0
        assert payload["speedup_bitset_vs_scalar"] > 0


class TestCheckedInArtifact:
    """The repository's committed BENCH_kernels.json matches the schema."""

    @pytest.mark.parametrize("relative", ["BENCH_kernels.json"])
    def test_artifact_validates(self, relative):
        path = Path(__file__).resolve().parents[2] / relative
        if not path.exists():  # pragma: no cover - fresh clone without runs
            pytest.skip(f"{relative} not generated yet")
        validate_bench_kernels(json.loads(path.read_text()))


class TestValidatorRejections:
    def test_missing_kernels_key(self, payload):
        bad = dict(payload)
        bad.pop("kernels")
        with pytest.raises(TraceSchemaError):
            validate_bench_kernels(bad)

    def test_stale_schema_version(self, payload):
        bad = dict(payload)
        bad["schema_version"] = BENCH_KERNELS_SCHEMA_VERSION - 1
        with pytest.raises(TraceSchemaError):
            validate_bench_kernels(bad)
