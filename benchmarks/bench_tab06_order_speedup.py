"""Table 6: speedup of the best sampled matching order over GQL and RI.

For every query in the yt default dense and sparse sets, sample random
connected orders plus the orders of all seven methods, take the best
enumeration time, and report the speedup over GQL's and RI's own orders
(mean, std, max, and the count exceeding 10x).

Paper finding to reproduce in shape: both GQL and RI leave headroom —
some queries run >10x faster under a sampled order, with GQL leaving more
headroom than RI on this sparse dataset.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List

from conftest import bench_match_cap, bench_time_limit
from shared import DEFAULT_SIZE, dataset, query_set

from repro.filtering import GraphQLFilter
from repro.ordering import (
    CECIOrdering,
    CFLOrdering,
    GraphQLOrdering,
    QuickSIOrdering,
    RIOrdering,
    VF2ppOrdering,
    sample_orders,
)
from repro.study import format_table, time_order


def _orders_per_query() -> int:
    return int(os.environ.get("REPRO_SPECTRUM_ORDERS", "40"))


def _enum_ms(query, data, candidates, order) -> float:
    """Unsolved orders count as the full time limit (the paper's rule)."""
    elapsed = time_order(
        query, data, candidates, order,
        match_limit=bench_match_cap(), time_limit=bench_time_limit(),
    )
    if elapsed is None:
        return bench_time_limit() * 1000.0
    return max(1e-3, elapsed)


def _experiment() -> str:
    data = dataset("yt")
    rows: List[List[object]] = []
    for density in ("dense", "sparse"):
        qs = query_set("yt", DEFAULT_SIZE["yt"], density)
        speedups: Dict[str, List[float]] = {"GQL": [], "RI": []}
        for query in qs.queries:
            candidates = GraphQLFilter().run(query, data)

            times = {}
            for name, ordering in [
                ("QSI", QuickSIOrdering()),
                ("GQL", GraphQLOrdering()),
                ("CFL", CFLOrdering()),
                ("CECI", CECIOrdering()),
                ("RI", RIOrdering()),
                ("2PP", VF2ppOrdering()),
            ]:
                order = ordering.order(query, data, candidates)
                times[name] = _enum_ms(query, data, candidates, order)

            best = min(times.values())
            for order in sample_orders(query, _orders_per_query(), seed=31337):
                best = min(best, _enum_ms(query, data, candidates, order))
            speedups["GQL"].append(times["GQL"] / best)
            speedups["RI"].append(times["RI"] / best)

        for name in ("GQL", "RI"):
            values = speedups[name]
            mean = sum(values) / len(values)
            std = math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
            rows.append(
                [
                    f"{name} ({qs.label})",
                    round(mean, 2),
                    round(std, 2),
                    round(max(values), 2),
                    sum(1 for v in values if v > 10),
                ]
            )

    table = format_table(
        ["algorithm (set)", "mean", "std", "max", ">10"],
        rows,
        title="Table 6 — speedup of best sampled order over GQL/RI on yt",
    )
    note = (
        f"[{_orders_per_query()} sampled orders/query] paper: both leave "
        "headroom; GQL more than RI on this sparse dataset."
    )
    return table + "\n\n" + note


def bench_tab06_order_speedup(benchmark, report):
    table = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    report(table)
