"""Dynamic graphs: incremental candidate maintenance vs from-scratch rebuild.

The workload is the serving tier's steady state: a resident data graph
absorbing a stream of small mutation batches (1% total edge churn by
default) while a standing query's candidate structure must stay
current. Two ways to stay current:

* **incremental** — the shipped path: fold each batch's
  :class:`~repro.dynamic.MutationDelta` into a live
  :class:`~repro.dynamic.IncrementalCandidates` over the
  :class:`~repro.dynamic.DynamicGraph` overlay (work proportional to
  the delta);
* **from scratch** — the baseline: rebuild the immutable
  :class:`~repro.graph.graph.Graph` from its edge list after each batch
  and run the full two-pass candidate build (work proportional to the
  graph).

Correctness rides along, twice: before timing, the script replays once
with ``equal_state`` checked against a full rebuild *after every
batch*, and the final graph's match result must be byte-identical
between the overlay snapshot and a from-scratch graph. The benchmark
refuses to emit a payload otherwise.

Run directly (``python benchmarks/bench_dynamic.py``) to write
``BENCH_dynamic.json``, schema-stamped and validated by
:func:`repro.obs.schema.validate_bench_dynamic` — which enforces the
``MIN_DYNAMIC_SPEEDUP`` floor and zero shared-memory/tempfile leaks.
Flags scale the workload down for CI smoke runs
(``--vertices 400 --batch-size 2``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

if __name__ == "__main__":  # standalone run: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.core.api import match
from repro.dynamic import DynamicGraph, IncrementalCandidates, Mutation
from repro.graph.generators import erdos_renyi_graph
from repro.graph.graph import Graph
from repro.graph.query_gen import extract_query
from repro.obs.schema import (
    BENCH_DYNAMIC_SCHEMA_VERSION,
    validate_bench_dynamic,
)

DEFAULT_VERTICES = 2_000
DEFAULT_DEGREE = 8.0
DEFAULT_LABELS = 4
DEFAULT_QUERY_SIZE = 5
DEFAULT_CHURN = 0.01
DEFAULT_BATCH_SIZE = 4
DEFAULT_MATCH_LIMIT = 100_000


def _shm_names() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:  # non-Linux: no visible segment directory
        return set()


def _temp_entries() -> set:
    try:
        return set(os.listdir(tempfile.gettempdir()))
    except OSError:
        return set()


def build_workload(
    vertices: int,
    degree: float,
    labels: int,
    query_size: int,
    churn_fraction: float,
    batch_size: int,
    seed: int = 13,
):
    """One ER graph, one extracted query, one seeded mutation script.

    The script alternates removing live edges and inserting fresh ones
    (so the graph neither empties nor densifies over the run), with an
    occasional vertex insertion wired onto an existing vertex — the
    serving scenarios are append-heavy. Total edge ops come to
    ``churn_fraction`` of the base edge count, split into
    ``batch_size``-op batches.
    """
    data = erdos_renyi_graph(vertices, degree, labels, seed=seed)
    query = extract_query(data, query_size, seed=seed + 1)
    rng = np.random.default_rng(seed + 2)

    ops_total = max(batch_size, int(churn_fraction * data.num_edges))
    live = set(data.edges())
    absent_pool = []
    while len(absent_pool) < ops_total:
        u, v = (int(x) for x in rng.integers(0, vertices, size=2))
        if u != v and (min(u, v), max(u, v)) not in live:
            absent_pool.append((min(u, v), max(u, v)))

    script = []
    batch = []
    next_vertex = vertices
    for i in range(ops_total):
        if i % 2 == 0:
            pick = sorted(live)[int(rng.integers(0, len(live)))]
            batch.append(Mutation("remove_edge", *pick))
            live.discard(pick)
        elif i % 9 == 5:
            label = int(rng.integers(0, labels))
            anchor = int(rng.integers(0, vertices))
            batch.append(Mutation("add_vertex", label))
            batch.append(Mutation("add_edge", anchor, next_vertex))
            next_vertex += 1
        else:
            edge = absent_pool.pop()
            batch.append(Mutation("add_edge", *edge))
            live.add(edge)
        if len(batch) >= batch_size:
            script.append(tuple(batch))
            batch = []
    if batch:
        script.append(tuple(batch))
    return data, query, script


def _replay_scratch(data: Graph, script) -> list:
    """The per-batch edge lists a from-scratch consumer would rebuild."""
    labels = data.labels.tolist()
    edges = set(data.edges())
    states = []
    for batch in script:
        for mutation in batch:
            if mutation.op == "add_vertex":
                labels = labels + [mutation.a]
            else:
                edge = (min(mutation.a, mutation.b), max(mutation.a, mutation.b))
                if mutation.op == "add_edge":
                    edges.add(edge)
                else:
                    edges.discard(edge)
        states.append((list(labels), sorted(edges)))
    return states


def run_dynamic_benchmark(
    vertices: int = DEFAULT_VERTICES,
    degree: float = DEFAULT_DEGREE,
    labels: int = DEFAULT_LABELS,
    query_size: int = DEFAULT_QUERY_SIZE,
    churn_fraction: float = DEFAULT_CHURN,
    batch_size: int = DEFAULT_BATCH_SIZE,
    match_limit: int = DEFAULT_MATCH_LIMIT,
) -> dict:
    """Time both maintenance strategies; returns the validated payload."""
    shm_before = _shm_names()
    tmp_before = _temp_entries()
    data, query, script = build_workload(
        vertices, degree, labels, query_size, churn_fraction, batch_size
    )
    scratch_states = _replay_scratch(data, script)
    ops_total = sum(len(batch) for batch in script)

    # Verification replay (untimed): incremental state must equal a full
    # rebuild after every batch, and the final match must be
    # byte-identical between the overlay snapshot and a fresh graph.
    dyn = DynamicGraph(data)
    inc = IncrementalCandidates(query, dyn)
    states_identical = True
    for batch in script:
        inc.apply_delta(dyn.apply(batch))
        if not inc.equal_state(inc.rebuild()):
            states_identical = False
            break
    final_scratch = Graph(labels=scratch_states[-1][0], edges=scratch_states[-1][1])
    incremental_result = match(
        query, dyn.snapshot(), match_limit=match_limit, store_limit=match_limit
    )
    scratch_result = match(
        query, final_scratch, match_limit=match_limit, store_limit=match_limit
    )
    final_match_identical = (
        incremental_result.num_matches == scratch_result.num_matches
        and incremental_result.embeddings == scratch_result.embeddings
    )
    if not (states_identical and final_match_identical):
        raise SystemExit(
            "incremental maintenance diverged from the from-scratch rebuild "
            "— refusing to write a benchmark payload for a broken path"
        )

    # Timed: the shipped incremental path.
    dyn = DynamicGraph(data)
    inc = IncrementalCandidates(query, dyn)
    start = time.perf_counter()
    for batch in script:
        inc.apply_delta(dyn.apply(batch))
    incremental_seconds = time.perf_counter() - start

    # Timed: rebuild the graph and the candidate structure per batch.
    start = time.perf_counter()
    for state_labels, state_edges in scratch_states:
        rebuilt = Graph(labels=state_labels, edges=state_edges)
        IncrementalCandidates(query, rebuilt)
    scratch_seconds = time.perf_counter() - start

    payload = {
        "schema_version": BENCH_DYNAMIC_SCHEMA_VERSION,
        "benchmark": "dynamic-mutation",
        "workload": {
            "data_vertices": data.num_vertices,
            "data_edges": data.num_edges,
            "data_degree": degree,
            "num_labels": labels,
            "query_vertices": query.num_vertices,
            "num_batches": len(script),
            "ops_total": ops_total,
            "churn_fraction": churn_fraction,
            "batch_size": batch_size,
            "match_limit": match_limit,
        },
        "timings": {
            "incremental_seconds": incremental_seconds,
            "scratch_seconds": scratch_seconds,
            "incremental_seconds_per_batch": incremental_seconds / len(script),
            "scratch_seconds_per_batch": scratch_seconds / len(script),
        },
        "speedup_incremental_vs_scratch": scratch_seconds / incremental_seconds,
        "final_matches": incremental_result.num_matches,
        "states_identical": states_identical,
        "final_match_identical": final_match_identical,
        "shm_segments_leaked": len(_shm_names() - shm_before),
        "tempfiles_leaked": len(_temp_entries() - tmp_before),
    }
    validate_bench_dynamic(payload)
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--vertices", type=int, default=DEFAULT_VERTICES)
    parser.add_argument("--degree", type=float, default=DEFAULT_DEGREE)
    parser.add_argument("--labels", type=int, default=DEFAULT_LABELS)
    parser.add_argument("--query-size", type=int, default=DEFAULT_QUERY_SIZE)
    parser.add_argument("--churn", type=float, default=DEFAULT_CHURN)
    parser.add_argument("--batch-size", type=int, default=DEFAULT_BATCH_SIZE)
    parser.add_argument("--match-limit", type=int, default=DEFAULT_MATCH_LIMIT)
    parser.add_argument(
        "--output", default="BENCH_dynamic.json",
        help="payload path",
    )
    args = parser.parse_args(argv)

    results = run_dynamic_benchmark(
        vertices=args.vertices,
        degree=args.degree,
        labels=args.labels,
        query_size=args.query_size,
        churn_fraction=args.churn,
        batch_size=args.batch_size,
        match_limit=args.match_limit,
    )
    payload = json.dumps(results, indent=2) + "\n"
    out = Path(args.output)
    out.write_text(payload)
    print(payload, end="")
    print(f"wrote {out.resolve()}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
