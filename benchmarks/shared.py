"""Workload construction shared by the benchmark modules.

Builds (and memoizes) the per-dataset query sets used across experiments so
Figure 7 and Figure 8 (for example) measure the same queries.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from conftest import bench_match_cap, bench_queries, bench_time_limit

from repro.graph.graph import Graph
from repro.study import (
    QuerySet,
    build_query_set,
    load_dataset,
    run_algorithm_on_set,
)

#: Dataset order used in the paper's per-dataset figures.
ALL_DATASETS = ["ye", "hu", "hp", "wn", "up", "yt", "db", "eu"]

#: Scaled stand-ins for the paper's default query sets (Q32D/Q32S, or
#: Q20D/Q20S on hu/wn): our defaults are Q12D/Q12S (Q8D/Q8S on hu/wn).
DEFAULT_SIZE = {key: (8 if key in ("hu", "wn") else 12) for key in ALL_DATASETS}

#: Query-size ladders for the "vary |V(q)|" panels.
SIZE_LADDER = {key: ([4, 6, 8] if key in ("hu", "wn") else [4, 8, 12, 16]) for key in ALL_DATASETS}

_QUERY_CACHE: Dict[Tuple[str, int, Optional[str]], QuerySet] = {}


def dataset(key: str) -> Graph:
    """The stand-in graph for dataset ``key`` (cached by the study layer)."""
    return load_dataset(key)


def query_set(key: str, size: int, density: Optional[str]) -> QuerySet:
    """Memoized query set so all experiments measure identical queries."""
    cache_key = (key, size, density)
    if cache_key not in _QUERY_CACHE:
        _QUERY_CACHE[cache_key] = build_query_set(
            dataset(key),
            key,
            size,
            density,  # type: ignore[arg-type]
            bench_queries(),
            seed=4242 + size,
        )
    return _QUERY_CACHE[cache_key]


def default_sets(key: str) -> List[QuerySet]:
    """The dataset's default dense and sparse sets (paper Section 4)."""
    size = DEFAULT_SIZE[key]
    return [query_set(key, size, "dense"), query_set(key, size, "sparse")]


def run(
    algorithm,
    key: str,
    qs: QuerySet,
    time_limit: Optional[float] = None,
    kernel: Optional[str] = None,
):
    """Run one algorithm over one query set with benchmark limits
    (``kernel``: the intersection backend's registry name)."""
    return run_algorithm_on_set(
        algorithm,
        dataset(key),
        qs.queries,
        dataset_key=key,
        query_set_label=qs.label,
        match_limit=bench_match_cap(),
        time_limit=time_limit if time_limit is not None else bench_time_limit(),
        kernel=kernel,
    )


def paper_note(text: str) -> str:
    """Standard footer tying a bench table back to the paper's claim."""
    return f"paper: {text}"
