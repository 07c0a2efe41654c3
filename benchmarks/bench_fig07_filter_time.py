"""Figure 7: preprocessing time of the filtering methods.

Paper findings to reproduce in shape:
(1) GQL is generally the slowest filter (higher time complexity);
(2) CECI and DP spend more time than CFL (more refinement / more candidate
    edges) despite the same asymptotic complexity;
(3) preprocessing grows with |V(q)| and differs little between dense and
    sparse queries; absolute values stay small.

Every time table has a work twin: ``filter.neighbors_gathered``, the CSR
entries the filter read, which does not move with the machine. Before a
column is measured the dataset's neighbour-label columns are built (the
NLF seed reads them; they are graph data, charged to no counter, but the
first touch takes time) and each filter runs once untimed on the
column's first query, so no cell carries import or first-touch cost.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from conftest import bench_queries
from shared import ALL_DATASETS, DEFAULT_SIZE, SIZE_LADDER, dataset, query_set

from repro.filtering import CECIFilter, CFLFilter, DPisoFilter, GraphQLFilter
from repro.obs import Metrics, collecting
from repro.study import format_series
from repro.utils.timer import Timer

FILTERS = {
    "GQL": GraphQLFilter,
    "CFL": CFLFilter,
    "CECI": CECIFilter,
    "DP": DPisoFilter,
}


def _avg_filter_cost(filter_cls, data, queries) -> Tuple[float, float]:
    """Average ``(ms, CSR entries gathered)`` of one filter over ``queries``."""
    metrics = Metrics()
    total = 0.0
    for query in queries:
        filt = filter_cls()
        with collecting(metrics), Timer() as t:
            filt.run(query, data)
        total += t.elapsed_ms
    n = max(1, len(queries))
    return total / n, metrics.counters.get("filter.neighbors_gathered", 0) / n


def _panel(title: str, columns, cells) -> Tuple[str, str]:
    """The time table and the work table of one panel.

    ``cells`` yields one ``(data, queries)`` per column.
    """
    times: Dict[str, List[float]] = {name: [] for name in FILTERS}
    work: Dict[str, List[float]] = {name: [] for name in FILTERS}
    for data, queries in cells:
        for label in data.label_set:
            data.neighbor_label_counts(label)
        for cls in FILTERS.values():
            cls().run(queries[0], data)
        for name, cls in FILTERS.items():
            ms, gathered = _avg_filter_cost(cls, data, queries)
            times[name].append(ms)
            work[name].append(gathered)
    return (
        format_series(f"{title} — avg filtering time (ms)", columns, times),
        format_series(f"{title} — avg CSR entries gathered", columns, work),
    )


def _experiment() -> str:
    panels: List[Tuple[str, str]] = []

    # (a) + (c): per dataset, dense and sparse default sets.
    for density in ("dense", "sparse"):
        panels.append(
            _panel(
                f"Figure 7(a/c), {density} default sets",
                ALL_DATASETS,
                (
                    (dataset(key), query_set(key, DEFAULT_SIZE[key], density).queries)
                    for key in ALL_DATASETS
                ),
            )
        )

    # (b): vary |V(q)| on yt.
    sizes = SIZE_LADDER["yt"]
    panels.append(
        _panel(
            "Figure 7(b), yt, |V(q)| varied",
            sizes,
            (
                (dataset("yt"), query_set("yt", size, "dense" if size > 4 else None).queries)
                for size in sizes
            ),
        )
    )

    blocks = [time for time, _ in panels] + [work for _, work in panels]
    blocks.append(
        f"[{bench_queries()} queries/set] paper: GQL slowest; CECI/DP slower "
        "than CFL; time grows with |V(q)|; dense vs sparse gap small."
    )
    return "\n\n".join(blocks)


def bench_fig07_filter_preprocessing_time(benchmark, report):
    table = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    report(table)
