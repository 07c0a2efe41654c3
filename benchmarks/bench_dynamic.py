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
with the overlay snapshot checked against the from-scratch graph of
:func:`repro.qa.replay_script`'s plain edge-set replay and
``equal_state`` against a full rebuild *after every batch*, and the
final graph's match result must be byte-identical between the overlay
snapshot and the from-scratch graph. The benchmark refuses to emit
records otherwise.

The speedup is reported twice. ``speedup_incremental_vs_scratch`` is
wall clock. ``speedup_counted`` divides the candidate-state entries the
rebuilds write (every seed, ``d1``/``d2`` membership and support-counter
slot, per batch) by the entries the incremental path touches (its seed
checks, counter updates and rechecks). Counts are deterministic, so no
load on the host can move the counted figure.

Run directly (``python benchmarks/bench_dynamic.py``) to append the
``maintenance`` record to ``benchmarks/results/dynamic.jsonl``;
``claims.py`` holds the counted speedup to ``MIN_DYNAMIC_SPEEDUP`` and
the leak counters to zero (CI's ``dynamic-smoke`` job holds the
wall-clock speedup to the same floor). Flags scale the workload down for
CI smoke runs (``--vertices 400 --batch-size 2``).
"""

from __future__ import annotations

import argparse
import sys
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
from repro.qa import replay_script

import records

DEFAULT_VERTICES = 2_000
DEFAULT_DEGREE = 8.0
DEFAULT_LABELS = 4
DEFAULT_QUERY_SIZE = 5
DEFAULT_CHURN = 0.01
DEFAULT_BATCH_SIZE = 4
DEFAULT_MATCH_LIMIT = 100_000


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


def _state_entries(candidates: IncrementalCandidates) -> int:
    """The entries a from-scratch build of ``candidates`` writes: its
    seed, ``d1`` and ``d2`` memberships and every support counter."""
    return (
        candidates.seed.size
        + candidates.d1.size
        + candidates.d2.size
        + sum(c.size for c in candidates.cnt1.values())
        + sum(c.size for c in candidates.cnt2.values())
    )


def _touched_entries(candidates: IncrementalCandidates) -> int:
    """The entries the incremental path has touched: seed re-evaluations,
    support-counter updates and membership rechecks."""
    counters = candidates.counters
    return (
        counters["dynamic.seed_checks"]
        + counters["dynamic.cnt_updates"]
        + counters["dynamic.rechecks"]
    )


def run_dynamic_benchmark(
    vertices: int = DEFAULT_VERTICES,
    degree: float = DEFAULT_DEGREE,
    labels: int = DEFAULT_LABELS,
    query_size: int = DEFAULT_QUERY_SIZE,
    churn_fraction: float = DEFAULT_CHURN,
    batch_size: int = DEFAULT_BATCH_SIZE,
    match_limit: int = DEFAULT_MATCH_LIMIT,
) -> list:
    """Time both maintenance strategies; returns the ``maintenance`` record."""
    before = records.open_entries()
    data, query, script = build_workload(
        vertices, degree, labels, query_size, churn_fraction, batch_size
    )
    scratch_states = list(replay_script(data, script))
    ops_total = sum(len(batch) for batch in script)

    # Verification replay (untimed): after every batch the overlay
    # snapshot must equal the from-scratch graph of the plain edge-set
    # replay and the incremental state a full rebuild, and the final
    # match must be byte-identical between the two graphs.
    dyn = DynamicGraph(data)
    inc = IncrementalCandidates(query, dyn)
    states_identical = True
    for batch, (state_labels, state_edges) in zip(script, scratch_states):
        inc.apply_delta(dyn.apply(batch))
        if dyn.snapshot() != Graph(
            labels=state_labels, edges=state_edges
        ) or not inc.equal_state(inc.rebuild()):
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
            "— refusing to write records for a broken path"
        )

    # Timed: the shipped incremental path.
    dyn = DynamicGraph(data)
    inc = IncrementalCandidates(query, dyn)
    start = time.perf_counter()
    for batch in script:
        inc.apply_delta(dyn.apply(batch))
    incremental_seconds = time.perf_counter() - start
    incremental_entries = _touched_entries(inc)

    # Timed: rebuild the graph and the candidate structure per batch.
    scratch_entries = 0
    start = time.perf_counter()
    for state_labels, state_edges in scratch_states:
        rebuilt = Graph(labels=state_labels, edges=state_edges)
        scratch_entries += _state_entries(IncrementalCandidates(query, rebuilt))
    scratch_seconds = time.perf_counter() - start

    key = {
        "vertices": vertices, "degree": degree, "labels": labels,
        "query_size": query_size, "churn_fraction": churn_fraction,
        "batch_size": batch_size, "match_limit": match_limit,
    }
    metrics = {
        "incremental_seconds": incremental_seconds,
        "scratch_seconds": scratch_seconds,
        "incremental_seconds_per_batch": incremental_seconds / len(script),
        "scratch_seconds_per_batch": scratch_seconds / len(script),
        "speedup_incremental_vs_scratch": scratch_seconds / incremental_seconds,
        "speedup_counted": scratch_entries / incremental_entries,
    }
    counters = {
        "data_vertices": data.num_vertices,
        "data_edges": data.num_edges,
        "query_vertices": query.num_vertices,
        "num_batches": len(script),
        "ops_total": ops_total,
        "incremental_entries": incremental_entries,
        "scratch_entries": scratch_entries,
        "final_matches": incremental_result.num_matches,
        "states_identical": int(states_identical),
        "final_match_identical": int(final_match_identical),
        **records.leaks_since(before),
    }
    return [records.record("dynamic", "maintenance", key, metrics, counters)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--vertices", type=int, default=DEFAULT_VERTICES)
    parser.add_argument("--degree", type=float, default=DEFAULT_DEGREE)
    parser.add_argument("--labels", type=int, default=DEFAULT_LABELS)
    parser.add_argument("--query-size", type=int, default=DEFAULT_QUERY_SIZE)
    parser.add_argument(
        "--churn", type=float, default=DEFAULT_CHURN, dest="churn_fraction"
    )
    parser.add_argument("--batch-size", type=int, default=DEFAULT_BATCH_SIZE)
    parser.add_argument("--match-limit", type=int, default=DEFAULT_MATCH_LIMIT)
    return records.main("dynamic", run_dynamic_benchmark, parser, argv)


if __name__ == "__main__":
    sys.exit(main())
