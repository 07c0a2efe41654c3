"""Table 6: speedup of the best sampled matching order over GQL and RI.

For every query in the yt default dense and sparse sets, sample random
connected orders plus the orders of all seven methods, take the best
enumeration time, and report the speedup over GQL's and RI's own orders
(mean, std, max, and the count exceeding 10x).

Paper finding to reproduce in shape: both GQL and RI leave headroom —
some queries run >10x faster under a sampled order, with GQL leaving more
headroom than RI on this sparse dataset.

The ``raced`` rows run what a session does for a repeated count-only
``recommended`` query: its own run, then :func:`repro.core.plan.race_orders`
(GraphQL's refinement sweep over its NLF candidates, then the race over
the refined ones, its own configuration first). They report the
best sampled order's speedup over the winner, and (second table, geometric
means over the set) how much of GQL's headroom the winner captures —
``log(GQL / raced) / log(GQL / best)`` — beside the race's own wall time.
"""

from __future__ import annotations

import math
import os
import time
from typing import Dict, List, Optional, Tuple

from conftest import bench_match_cap, bench_time_limit
from shared import DEFAULT_SIZE, dataset, query_set

from repro.core.plan import RaceWinner, compile_plan, race_orders, run_plan
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


def _enum_ms(query, data, candidates, order, failing_sets=False) -> float:
    """Unsolved orders count as the full time limit (the paper's rule)."""
    elapsed = time_order(
        query, data, candidates, order,
        match_limit=bench_match_cap(), time_limit=bench_time_limit(),
        failing_sets=failing_sets,
    )
    if elapsed is None:
        return bench_time_limit() * 1000.0
    return max(1e-3, elapsed)


def _race(query, data) -> Tuple[Optional[RaceWinner], float]:
    """``recommended``'s race winner and the race's wall ms; ``(None, 0)``
    when its own run is unsolved, which a session never races."""
    plan = compile_plan("recommended", query, data)
    result, prepared = run_plan(
        plan, query, data, match_limit=bench_match_cap(),
        time_limit=bench_time_limit(), store_limit=0,
    )
    if not result.solved:
        return None, 0.0
    began = time.perf_counter()
    winner = race_orders(plan, query, data, prepared, match_limit=bench_match_cap())
    return winner, (time.perf_counter() - began) * 1000.0


def _gmean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _experiment() -> str:
    data = dataset("yt")
    rows: List[List[object]] = []
    raced_rows: List[List[object]] = []
    for density in ("dense", "sparse"):
        qs = query_set("yt", DEFAULT_SIZE["yt"], density)
        speedups: Dict[str, List[float]] = {"GQL": [], "RI": [], "raced": []}
        gql_ms: List[float] = []
        best_ms: List[float] = []
        raced_ms: List[float] = []
        race_ms: List[float] = []
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
            winner, cost = _race(query, data)
            if winner is None:
                raced = bench_time_limit() * 1000.0
            else:
                raced = _enum_ms(
                    query, data, candidates, winner.prepared.order,
                    failing_sets=winner.failing_sets,
                )
            speedups["GQL"].append(times["GQL"] / best)
            speedups["RI"].append(times["RI"] / best)
            speedups["raced"].append(raced / best)
            gql_ms.append(times["GQL"])
            best_ms.append(best)
            raced_ms.append(raced)
            race_ms.append(max(1e-3, cost))

        headroom = _gmean([g / b for g, b in zip(gql_ms, best_ms)])
        gained = _gmean([g / r for g, r in zip(gql_ms, raced_ms)])
        raced_rows.append(
            [
                qs.label,
                round(headroom, 2),
                round(gained, 2),
                round(math.log(gained) / math.log(headroom), 2)
                if headroom > 1.0
                else "-",
                round(_gmean(gql_ms), 2),
                round(_gmean(raced_ms), 2),
                round(_gmean(race_ms), 2),
            ]
        )
        for name in ("GQL", "RI", "raced"):
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
    raced_table = format_table(
        ["set", "GQL/best", "GQL/raced", "captured", "GQL ms", "raced ms", "race ms"],
        raced_rows,
        title="recommended's order race against GQL's order (geometric means)",
    )
    note = (
        f"[{_orders_per_query()} sampled orders/query] paper: both leave "
        "headroom; GQL more than RI on this sparse dataset. 'raced' rows: "
        "best sampled order over the race winner (failing sets as raced); "
        "captured = log(GQL/raced) / log(GQL/best); race ms is paid once "
        "per cached query."
    )
    return table + "\n\n" + raced_table + "\n\n" + note


def bench_tab06_order_speedup(benchmark, report):
    table = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    report(table)
