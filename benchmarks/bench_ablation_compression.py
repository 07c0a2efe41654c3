"""Ablation: NEC query compression (the Section 3.4 technique).

The paper cites the CFL study's verdict on query-graph compression: "only
a small number of query vertices could be compressed" on realistic
queries, so the technique was dropped from the main comparison. This
bench quantifies both halves:

1. measured compression ratios on the paper-style random-walk query sets
   (expected: close to 1.0 — little to compress);
2. the speedup on compression-friendly shapes (stars and same-label
   cliques), where grouping interchangeable vertices avoids enumerating
   ``Π |class|!`` permutations explicitly.
"""

from __future__ import annotations

import statistics
from typing import Callable, List, Tuple

from conftest import bench_match_cap, bench_queries, bench_time_limit
from shared import DEFAULT_SIZE, dataset, query_set

from repro.core.api import match
from repro.core.result import MatchResult
from repro.extensions import compress_query, match_compressed
from repro.extensions.compression import ENGINE
from repro.graph import Graph
from repro.study import format_table
from repro.utils.timer import Timer

DATASET_KEYS = ["ye", "yt", "db"]
#: Timed runs per cell; the table reports their median.
REPEATS = 9


def _star(center_label: int, leaf_label: int, leaves: int) -> Graph:
    return Graph(
        labels=[center_label] + [leaf_label] * leaves,
        edges=[(0, i) for i in range(1, leaves + 1)],
    )


def _clique(label: int, size: int) -> Graph:
    return Graph(
        labels=[label] * size,
        edges=[(a, b) for a in range(size) for b in range(a + 1, size)],
    )


def _median_run(run: Callable[[], MatchResult]) -> Tuple[MatchResult, float]:
    """The last result of ``REPEATS`` runs and their median time in ms."""
    times = []
    for _ in range(REPEATS):
        with Timer() as timer:
            result = run()
        times.append(timer.elapsed_ms)
    return result, statistics.median(times)


def _experiment() -> str:
    blocks: List[str] = []

    # 1. Compression ratios on random-walk query sets.
    rows: List[List[object]] = []
    for key in DATASET_KEYS:
        for density in ("dense", "sparse"):
            qs = query_set(key, DEFAULT_SIZE[key], density)
            ratios = [
                compress_query(query).compression_ratio
                for query in qs.queries
            ]
            rows.append(
                [
                    f"{key}/{qs.label}",
                    round(sum(ratios) / len(ratios), 3),
                    round(max(ratios), 3),
                ]
            )
    blocks.append(
        format_table(
            ["query set", "avg ratio", "max ratio"],
            rows,
            title="Ablation — NEC compression ratio on random-walk queries "
            "(1.0 = incompressible)",
        )
    )

    # 2. Speedup on compression-friendly stars and same-label cliques.
    # The plain column runs the composition NEC searches with, so the two
    # differ only by the class constraint.
    data = dataset("yt")
    labels = sorted(data.label_set, key=lambda l: -data.label_frequency(l))
    shapes = [(f"star-{k}", _star(labels[0], labels[1], k)) for k in (3, 4, 5)]
    shapes += [(f"clique-{k}", _clique(labels[0], k)) for k in (3, 4)]
    rows2: List[List[object]] = []
    for name, query in shapes:
        plain, plain_ms = _median_run(
            lambda: match(
                query, data, algorithm=ENGINE,
                match_limit=bench_match_cap(),
                time_limit=bench_time_limit(), store_limit=0,
            )
        )
        nec, nec_ms = _median_run(
            lambda: match_compressed(
                query, data,
                match_limit=bench_match_cap(),
                time_limit=bench_time_limit(), store_limit=0,
            )
        )
        rows2.append(
            [
                name,
                compress_query(query).compression_ratio,
                plain.num_matches,
                nec.num_matches,
                "yes" if nec.solved else "no",
                round(plain_ms, 2),
                round(nec_ms, 2),
                round(plain_ms / max(1e-3, nec_ms), 2),
            ]
        )
    blocks.append(
        format_table(
            [
                "query", "ratio", "plain #", "NEC #", "NEC solved",
                "plain ms", "NEC ms", "speedup",
            ],
            rows2,
            title=f"Ablation — NEC vs {ENGINE} on compression-friendly shapes "
            f"(yt, whole call, median of {REPEATS})",
        )
    )

    blocks.append(
        f"[{bench_queries()} queries/set] paper (via CFL study): random "
        "queries barely compress; the technique only pays on special shapes."
    )
    return "\n\n".join(blocks)


def bench_ablation_compression(benchmark, report):
    table = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    report(table)
