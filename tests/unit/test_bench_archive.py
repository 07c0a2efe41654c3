"""The figure benches archive their tables only at the default scale.

``benchmarks/results/<bench>.txt`` holds the checked-in result of a full
run; a scaled-down check (``REPRO_SCALE``, ``REPRO_BENCH_QUERIES``) prints
its table and must leave that file as it is.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def bench_conftest():
    spec = importlib.util.spec_from_file_location(
        "bench_conftest", ROOT / "benchmarks" / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "knob, value", [("REPRO_SCALE", "0.1"), ("REPRO_BENCH_QUERIES", "1")]
)
def test_a_scaled_run_leaves_the_archived_table(bench_conftest, monkeypatch, knob, value):
    path = bench_conftest.RESULTS_DIR / "bench_fig10_set_intersection.txt"
    before = path.read_bytes()
    monkeypatch.setenv(knob, value)
    bench_conftest.archive(path.stem, "a scaled-down table")
    assert path.read_bytes() == before


def test_the_default_scale_archives(bench_conftest, monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    monkeypatch.delenv("REPRO_BENCH_QUERIES", raising=False)
    monkeypatch.setattr(bench_conftest, "RESULTS_DIR", tmp_path)
    bench_conftest.archive("bench_x", "a table")
    assert (tmp_path / "bench_x.txt").read_text() == "a table\n"
