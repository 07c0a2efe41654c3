"""Figure 10: Hybrid vs QFilter-style intersection in the enumeration.

The optimized GQL algorithm runs once per registered intersection backend
(:mod:`repro.utils.kernels`); every series is a registry name on the
request, so the table compares exactly the substrates it names.

The paper's three:

* ``Hybrid`` (``scalar``) — the paper's §3.3.2 merge/galloping method;
* ``QFilter/BSR`` (``qfilter``) — the faithful base-and-state layout: a
  base comparison covers a whole block, but the per-block merge runs in
  interpreted ops;
* ``QFilter/bitmap`` (``bitset``) — one packed word-wise ``&`` per
  intersection, near-free per element, with an encode and a decode that
  are linear in ``|V(G)|``.

Two pure-Python models, because no single one reproduces a SIMD kernel
from both sides; EXPERIMENTS.md E4 records which of them shows the
paper's dense-graph win and which its sparse-graph layout overhead.
This repository's own two backends ride along, labelled as such — they
are not the paper's series: ``numpy (this repo)`` is the hybrid
vectorized, ``rows (this repo)`` the candidate-space bitmap rows
``auto`` serves. A row is built the first time the search reads it, so
the enumeration time tabulated here includes building the rows the
search reached; the list series build their array tables in
preprocessing, outside it.

Paper findings to reproduce in shape: QFilter wins on the dense graphs
(eu, hu) where each operation covers many set elements, and loses on
sparse graphs to layout overhead.
"""

from __future__ import annotations

from typing import Dict, List

from conftest import bench_queries
from shared import ALL_DATASETS, DEFAULT_SIZE, SIZE_LADDER, query_set, run

from repro.study import format_series

#: Series label -> registry name. Every run resolves its name afresh, so
#: the caching backends encode the long-lived auxiliary lists once per
#: query (QFilter's one-time layout).
SERIES = {
    "Hybrid": "scalar",
    "QFilter/BSR": "qfilter",
    "QFilter/bitmap": "bitset",
    "numpy (this repo)": "numpy",
    "rows (this repo)": "rows",
}


def _experiment() -> str:
    blocks: List[str] = []

    series: Dict[str, List[float]] = {label: [] for label in SERIES}
    for key in ALL_DATASETS:
        qs = query_set(key, DEFAULT_SIZE[key], "dense")
        for label, kernel in SERIES.items():
            result = run("GQL-opt", key, qs, kernel=kernel)
            series[label].append(result.avg_enumeration_ms)
    blocks.append(
        format_series(
            "Figure 10(a) — optimized GQL enumeration time (ms) by intersection kernel",
            ALL_DATASETS,
            series,
        )
    )

    sizes = SIZE_LADDER["yt"]
    series_b: Dict[str, List[float]] = {label: [] for label in SERIES}
    for size in sizes:
        qs = query_set("yt", size, "dense" if size > 4 else None)
        for label, kernel in SERIES.items():
            result = run("GQL-opt", "yt", qs, kernel=kernel)
            series_b[label].append(result.avg_enumeration_ms)
    blocks.append(
        format_series(
            "Figure 10(b) — dense queries on yt, |V(q)| varied",
            sizes,
            series_b,
        )
    )

    blocks.append(
        f"[{bench_queries()} queries/set] paper: QFilter wins on dense eu/hu, "
        "loses on sparse graphs to layout overhead; BSR and bitmap model its "
        "layout from two sides (pure Python cannot show both in one kernel). "
        "numpy/rows are this repository's backends, not the paper's."
    )
    return "\n\n".join(blocks)


def bench_fig10_set_intersection(benchmark, report):
    table = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    report(table)
