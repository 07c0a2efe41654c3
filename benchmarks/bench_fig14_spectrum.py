"""Figure 14: spectrum analysis — enumeration time across random orders.

For one dense and one sparse query per dataset (ye and yt here), sample
random connected matching orders, run the optimized GQL configuration
under each, and print the distribution next to the times achieved by the
GQL and RI orderings.

Paper finding to reproduce in shape: the sampled spectrum is wide — orders
exist that beat the algorithmic orders by large factors, i.e. every
ordering method can generate ineffective orders.
"""

from __future__ import annotations

import os
from typing import List, Optional

from conftest import bench_match_cap, bench_time_limit
from shared import dataset, query_set, DEFAULT_SIZE

from repro.filtering import GraphQLFilter
from repro.ordering import GraphQLOrdering, RIOrdering, sample_orders
from repro.study import format_table, time_order


def _orders_per_query() -> int:
    return int(os.environ.get("REPRO_SPECTRUM_ORDERS", "60"))


def _time_with_order(query, data, candidates, order) -> Optional[float]:
    return time_order(
        query, data, candidates, order,
        match_limit=bench_match_cap(), time_limit=bench_time_limit(),
    )


def _percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(q * (len(ordered) - 1)))
    return ordered[index]


def _experiment() -> str:
    rows: List[List[object]] = []
    for key, density in [("ye", "dense"), ("ye", "sparse"), ("yt", "dense"), ("yt", "sparse")]:
        data = dataset(key)
        qs = query_set(key, DEFAULT_SIZE[key], density)
        query = qs.queries[0]
        candidates = GraphQLFilter().run(query, data)

        sampled: List[float] = []
        timeouts = 0
        for order in sample_orders(query, _orders_per_query(), seed=999):
            t = _time_with_order(query, data, candidates, order)
            if t is None:
                timeouts += 1
            else:
                sampled.append(t)

        gql_t = _time_with_order(
            query, data, candidates,
            GraphQLOrdering().order(query, data, candidates),
        )
        ri_t = _time_with_order(
            query, data, candidates,
            RIOrdering().order(query, data, candidates),
        )
        if not sampled:
            sampled = [bench_time_limit() * 1000.0]
        rows.append(
            [
                f"{key}/{qs.label}",
                round(min(sampled), 3),
                round(_percentile(sampled, 0.5), 3),
                round(max(sampled), 3),
                timeouts,
                round(gql_t, 3) if gql_t is not None else "timeout",
                round(ri_t, 3) if ri_t is not None else "timeout",
            ]
        )

    table = format_table(
        ["query", "best(ms)", "median(ms)", "worst(ms)", "timeouts", "GQL(ms)", "RI(ms)"],
        rows,
        title="Figure 14 — spectrum of enumeration time over sampled orders",
    )
    note = (
        f"[{_orders_per_query()} sampled orders/query] paper: the spectrum "
        "is wide and better orders than GQL's/RI's exist for some queries."
    )
    return table + "\n\n" + note


def bench_fig14_spectrum(benchmark, report):
    table = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    report(table)
