"""Session throughput: one-shot ``match()`` vs ``MatchSession.match_many``.

The workload is the one the compilation layer exists for: a small pool of
distinct query patterns, each submitted many times (as a pattern-matching
service or the paper's repeated experiment sweeps do). The one-shot
baseline pays resolution + filtering + ordering on every call; the
session compiles each pattern once, reuses the prepared candidates /
auxiliary structure / order on every repeat, and keeps the kernel's
encode caches warm.

Run directly (``python benchmarks/bench_session.py``) to append the
``repeated_queries`` record to ``benchmarks/results/session.jsonl``.
Flags scale the workload down for CI smoke runs (``--vertices 300
--distinct 2 --repeats 3``).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # standalone run: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.api import match
from repro.core.session import MatchSession
from repro.graph.generators import rmat_graph
from repro.graph.query_gen import extract_query

import records

#: Defaults sized so preprocessing is a real fraction of per-query time
#: (the regime the paper's Figure 7 measures) while the whole benchmark
#: stays under a minute.
DEFAULT_VERTICES = 3_000
DEFAULT_DISTINCT = 6
DEFAULT_REPEATS = 20
DEFAULT_QUERY_SIZE = 8
DEFAULT_MATCH_LIMIT = 200
DEFAULT_ALGORITHM = "GQL-opt"


def build_workload(
    vertices: int, distinct: int, repeats: int, query_size: int
):
    """A data graph plus ``distinct * repeats`` queries, repeats interleaved
    (round-robin over the pool — the service-traffic shape, and the worst
    case for any cache smaller than the pool)."""
    data = rmat_graph(vertices, 8.0, 12, seed=7, clustering=0.1)
    pool = [
        extract_query(data, query_size, seed=seed) for seed in range(distinct)
    ]
    workload = [pool[i % distinct] for i in range(distinct * repeats)]
    return data, pool, workload


def run_session_benchmark(
    vertices: int = DEFAULT_VERTICES,
    distinct: int = DEFAULT_DISTINCT,
    repeats: int = DEFAULT_REPEATS,
    query_size: int = DEFAULT_QUERY_SIZE,
    match_limit: int = DEFAULT_MATCH_LIMIT,
    algorithm: str = DEFAULT_ALGORITHM,
) -> list:
    """Time the repeated-query workload both ways; returns the record."""
    data, _pool, workload = build_workload(
        vertices, distinct, repeats, query_size
    )

    # Warm-up outside the timed regions (imports, first-touch numpy paths).
    match(workload[0], data, algorithm=algorithm, match_limit=1, store_limit=0)

    start = time.perf_counter()
    one_shot_counts = [
        match(
            query,
            data,
            algorithm=algorithm,
            match_limit=match_limit,
            store_limit=0,
            validate=False,
        ).num_matches
        for query in workload
    ]
    one_shot_seconds = time.perf_counter() - start

    session = MatchSession(data, algorithm=algorithm, prep_cache_size=None)
    start = time.perf_counter()
    session_results = session.match_many(
        workload, match_limit=match_limit, store_limit=0, validate=False
    )
    session_seconds = time.perf_counter() - start
    session_counts = [r.num_matches for r in session_results]

    total = len(workload)
    prep = session.cache_info()["prep"]
    key = {
        "vertices": vertices, "distinct": distinct, "repeats": repeats,
        "query_size": query_size, "match_limit": match_limit,
        "algorithm": algorithm,
    }
    metrics = {
        "one_shot_seconds": one_shot_seconds,
        "session_seconds": session_seconds,
        "one_shot_seconds_per_query": one_shot_seconds / total,
        "session_seconds_per_query": session_seconds / total,
        "speedup_session_vs_one_shot": one_shot_seconds / session_seconds,
    }
    counters = {
        "data_vertices": data.num_vertices,
        "total_queries": total,
        "prep_hits": prep["hits"],
        "prep_misses": prep["misses"],
        "prep_size": prep["size"],
        "matches_agree": int(one_shot_counts == session_counts),
    }
    return [records.record("session", "repeated_queries", key, metrics, counters)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--vertices", type=int, default=DEFAULT_VERTICES)
    parser.add_argument("--distinct", type=int, default=DEFAULT_DISTINCT)
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--query-size", type=int, default=DEFAULT_QUERY_SIZE)
    parser.add_argument("--match-limit", type=int, default=DEFAULT_MATCH_LIMIT)
    parser.add_argument("--algorithm", default=DEFAULT_ALGORITHM)
    return records.main("session", run_session_benchmark, parser, argv)


if __name__ == "__main__":
    sys.exit(main())
