"""Shared benchmark infrastructure.

Every ``bench_*.py`` module reproduces one figure or table of the paper's
evaluation (see DESIGN.md's experiment index). Each experiment runs once
under ``benchmark.pedantic`` (so pytest-benchmark records its wall time),
prints the paper-style table through the ``report`` fixture (bypassing
pytest's capture so it lands in the console / bench_output.txt), and, at
the default scale and query count only, saves a copy under
``benchmarks/results/`` (:func:`archive`).

Scale knobs (environment variables):

* ``REPRO_SCALE``          — dataset stand-in size multiplier (default 1.0)
* ``REPRO_BENCH_QUERIES``  — queries per query set (default 5)
* ``REPRO_TIME_LIMIT``     — per-query enumeration budget, seconds (default 2;
                             benches default to 0.5 via BENCH_TIME_LIMIT)
* ``REPRO_MATCH_CAP``      — match cap per query (default 10000)
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

RESULTS_DIR = Path(__file__).parent / "results"


#: The scale and queries per set the archived tables were run at.
DEFAULT_SCALE = 1.0
DEFAULT_QUERIES = 5


def bench_queries() -> int:
    """Queries per set in benchmark workloads."""
    return int(os.environ.get("REPRO_BENCH_QUERIES", str(DEFAULT_QUERIES)))


def archive(name: str, text: str) -> None:
    """Save ``text`` as ``results/<name>.txt`` when this run is at the
    default scale and query count, the ones the checked-in tables were
    run at. A scaled-down run prints its table and leaves the archived
    one as it is."""
    scale = float(os.environ.get("REPRO_SCALE", str(DEFAULT_SCALE)))
    if scale != DEFAULT_SCALE or bench_queries() != DEFAULT_QUERIES:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def bench_time_limit() -> float:
    """Per-query budget for benchmark runs (seconds)."""
    return float(os.environ.get("REPRO_TIME_LIMIT", "0.5"))


def bench_match_cap() -> int:
    return int(os.environ.get("REPRO_MATCH_CAP", "10000"))


@pytest.fixture
def report(pytestconfig, request):
    """Print experiment tables through pytest's capture and archive them
    (:func:`archive`)."""
    capman = pytestconfig.pluginmanager.getplugin("capturemanager")

    def _report(text: str) -> None:
        archive(request.node.name.replace("/", "_"), text)
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print("\n" + text, flush=True)
        else:
            print("\n" + text, flush=True)

    return _report
