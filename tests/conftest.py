"""Shared pytest configuration: path setup and common fixtures."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# Make `from fixtures import ...` work from any test subdirectory, and
# the benchmark mains with their record writer and claims importable
# (`import bench_dynamic`, `import claims`).
sys.path.insert(0, str(Path(__file__).parent))
sys.path.append(str(Path(__file__).resolve().parent.parent / "benchmarks"))

from fixtures import PAPER_DATA, PAPER_QUERY  # noqa: E402

from repro.graph import Graph, erdos_renyi_graph  # noqa: E402


@pytest.fixture
def paper_query() -> Graph:
    """The Figure 1(a) query graph."""
    return PAPER_QUERY


@pytest.fixture
def paper_data() -> Graph:
    """The Figure 1(b) data graph."""
    return PAPER_DATA


@pytest.fixture
def triangle() -> Graph:
    """A labeled triangle."""
    return Graph(labels=[0, 1, 2], edges=[(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def small_random() -> Graph:
    """A fixed small random graph for deterministic unit tests."""
    return erdos_renyi_graph(30, 4.0, 3, seed=99)
