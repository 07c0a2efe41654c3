"""Graph storage backends: matching off memmap/shared-memory vs in-memory.

Two claims of the :mod:`repro.graph.store` layer are measured, each with
its correctness attestation baked in:

* **Warm overhead** — once the pages are hot, matching off an ``.rgf``
  memmap (or a shared-memory segment) must cost essentially the same as
  matching off heap arrays: the enumeration reads the same bytes through
  the same numpy views. A resident-scale workload runs the same query
  set against all three backends; the ``warm`` record holds the
  per-backend seconds and ``claims.py`` enforces the 1.3x memmap
  ceiling.

* **Out-of-core peak RSS** — the point of the ``.rgf`` format is opening
  graphs whose CSR arrays exceed the memory budget in O(header) and
  letting the OS page in only what enumeration touches. A large
  ring-lattice graph (built vectorized, straight into CSR — no per-edge
  Python loop) is written to ``.rgf`` once; two subprocesses then run
  the same label-local queries, one fully materializing the arrays, one
  matching straight off :class:`~repro.graph.store.MmapStore`. Each
  child reports ``resource.getrusage`` peak RSS and a digest of its
  embeddings; the benchmark refuses to produce records unless the
  digests agree, and ``claims.py`` enforces the 50% RSS ceiling and that
  the arrays genuinely exceed the declared budget.

Run directly (``python benchmarks/bench_storage.py``) to append the
``warm`` and ``out_of_core`` records to
``benchmarks/results/storage.jsonl``. Flags scale the workload (CI smoke: ``--warm-vertices 1000 --queries 2
--repeats 1 --ooc-vertices 750000``; shrinking the out-of-core graph
much below that makes the interpreter's own footprint dominate both
children and the RSS ratio meaningless).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

if __name__ == "__main__":  # standalone run: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

import repro
from repro.core.api import match
from repro.graph.generators import erdos_renyi_graph
from repro.graph.graph import Graph
from repro.graph.query_gen import extract_query
from repro.graph.store import MmapStore, SharedMemoryStore, write_rgf

import records

DEFAULT_WARM_VERTICES = 4_000
DEFAULT_WARM_DEGREE = 16.0
DEFAULT_WARM_LABELS = 8
DEFAULT_QUERIES = 3
DEFAULT_REPEATS = 3
DEFAULT_QUERY_SIZE = 8
DEFAULT_WARM_ALGORITHM = "GQL-opt"
DEFAULT_MATCH_LIMIT = 20_000

#: Out-of-core graph: a ring lattice (every vertex adjacent to its
#: ``half_degree`` successors and predecessors mod n) with labels in
#: contiguous blocks. Uniform degrees keep the CSR rows equal-sized and
#: block labels keep each query's working set to a few label blocks —
#: the memmap run's whole point is that the rest of the neighbor array
#: stays cold on disk.
DEFAULT_OOC_VERTICES = 1_500_000
DEFAULT_OOC_HALF_DEGREE = 8
DEFAULT_OOC_LABELS = 256
DEFAULT_OOC_QUERIES = 3

#: The declared memory budget is this fraction of the CSR array bytes,
#: so the "arrays exceed the budget" invariant scales with the workload.
BUDGET_FRACTION = 0.7

# The child workload: runs label-and-degree filtering with GraphQL's
# candidate-size ordering and direct neighbor-intersection local
# candidates — deliberately *not* an NLF/ELF preset, which would build
# per-vertex Python caches over the full data graph and turn the
# out-of-core run into an out-of-memory one.
_CHILD_SCRIPT = r"""
import hashlib, json, resource, sys
import numpy as np
from repro.core.api import match
from repro.core.registry import PresetDef, build_spec
from repro.graph.graph import Graph
from repro.graph.store import MmapStore, read_rgf_header

mode, rgf_path, spec = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])

if mode == "mmap":
    store = MmapStore(rgf_path)
    data = store.graph()
elif mode == "memory":
    # Honest materialization: read the segments into heap arrays via
    # syscalls (no mapping left resident) and adopt them.
    layout, _ = read_rgf_header(rgf_path)
    base = np.fromfile(rgf_path, dtype="<i8", offset=64)
    labels, offsets, neighbors, by_label = layout.split(base)
    data = Graph.from_csr(
        labels, offsets, neighbors,
        num_edges=layout.num_edges, by_label=by_label,
    )
else:
    raise SystemExit(f"unknown mode {mode!r}")

algorithm = build_spec(PresetDef(
    name="LDF-GQL", filter="LDF", ordering="GQL", lc="ALG2",
))
out = []
for q in spec["queries"]:
    query = Graph(labels=q["labels"], edges=[tuple(e) for e in q["edges"]])
    result = match(
        query, data, algorithm=algorithm,
        match_limit=spec["match_limit"], store_limit=spec["match_limit"],
    )
    digest = hashlib.sha256(
        "\n".join(",".join(map(str, emb)) for emb in result.embeddings)
        .encode()
    ).hexdigest()
    out.append({"count": result.num_matches, "hash": digest})


def peak_rss_bytes():
    # Linux quirk: ru_maxrss survives execve, so a subprocess spawned by
    # a fat parent inherits the parent's peak. VmHWM is per-mm and does
    # reset on exec — prefer it, fall back to getrusage elsewhere.
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


print(json.dumps({"peak_rss_bytes": peak_rss_bytes(), "queries": out}))
"""


def build_ring_lattice_rgf(
    path: Path, vertices: int, half_degree: int, num_labels: int
) -> dict:
    """Write a ring-lattice graph straight to ``.rgf``, vectorized.

    Vertex ``i`` is adjacent to ``i±1 .. i±half_degree`` (mod n) and
    labeled by contiguous block (``i * num_labels // n``). Returns the
    workload facts (vertices, edges, array bytes).
    """
    n, h = vertices, half_degree
    if n <= 4 * h:
        raise SystemExit("out-of-core graph too small for its half-degree")
    deltas = np.concatenate([np.arange(-h, 0), np.arange(1, h + 1)])
    nbrs = (np.arange(n, dtype=np.int64)[:, None] + deltas) % n
    nbrs.sort(axis=1)
    neighbors = nbrs.reshape(-1)
    del nbrs
    offsets = np.arange(n + 1, dtype=np.int64) * (2 * h)
    labels = (np.arange(n, dtype=np.int64) * num_labels) // n
    graph = Graph.from_csr(
        labels, offsets, neighbors,
        num_edges=n * h, by_label=np.arange(n, dtype=np.int64),
    )
    write_rgf(graph, path)
    layout = graph.store.layout
    return {
        "data_vertices": n,
        "data_edges": n * h,
        "array_bytes": int(layout.total_bytes),
    }


def _ooc_queries(num_labels: int, count: int) -> list:
    """Same-label 3-paths, one per label block spread across the graph."""
    queries = []
    for i in range(count):
        label = (i + 1) * num_labels // (count + 1)
        queries.append(
            {"labels": [label, label, label], "edges": [[0, 1], [1, 2]]}
        )
    return queries


def _run_child(mode: str, rgf_path: Path, spec: str) -> dict:
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT, mode, str(rgf_path), spec],
        capture_output=True, text=True, env=env, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"{mode} child failed:\n{proc.stderr.strip()}"
        )
    return json.loads(proc.stdout)


def run_storage_benchmark(
    warm_vertices: int = DEFAULT_WARM_VERTICES,
    num_queries: int = DEFAULT_QUERIES,
    repeats: int = DEFAULT_REPEATS,
    query_size: int = DEFAULT_QUERY_SIZE,
    match_limit: int = DEFAULT_MATCH_LIMIT,
    algorithm: str = DEFAULT_WARM_ALGORITHM,
    ooc_vertices: int = DEFAULT_OOC_VERTICES,
    ooc_half_degree: int = DEFAULT_OOC_HALF_DEGREE,
    ooc_labels: int = DEFAULT_OOC_LABELS,
    ooc_queries: int = DEFAULT_OOC_QUERIES,
) -> list:
    """Run both halves; returns the ``warm`` and ``out_of_core`` records."""
    before = records.open_entries()
    tmp = Path(tempfile.mkdtemp(prefix="repro-bench-storage-"))
    try:
        run = [
            _run_warm_half(
                tmp, warm_vertices, num_queries, repeats, query_size,
                match_limit, algorithm,
            ),
            _run_ooc_half(
                tmp, ooc_vertices, ooc_half_degree, ooc_labels,
                ooc_queries, match_limit,
            ),
        ]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    leaks = records.leaks_since(before)
    for r in run:
        r["counters"].update(leaks)
    return run


def _run_warm_half(
    tmp: Path,
    vertices: int,
    num_queries: int,
    repeats: int,
    query_size: int,
    match_limit: int,
    algorithm: str,
) -> dict:
    data = erdos_renyi_graph(vertices, DEFAULT_WARM_DEGREE,
                             DEFAULT_WARM_LABELS, seed=7)
    queries = [
        extract_query(data, query_size, seed=seed)
        for seed in range(num_queries)
    ]

    rgf_path = tmp / "warm.rgf"
    write_rgf(data, rgf_path)
    mmap_store = MmapStore(rgf_path, validate=True)
    shm_store = SharedMemoryStore.publish(data)
    backends = {
        "in_memory": data,
        "mmap": mmap_store.graph(),
        "shm": shm_store.graph(),
    }
    seconds = {}
    try:
        # Verification pass (also warms pages and per-graph caches):
        # every backend must return the byte-identical embedding list.
        reference = None
        for name, graph in backends.items():
            results = [
                match(query, graph, algorithm=algorithm,
                      match_limit=match_limit, store_limit=match_limit)
                for query in queries
            ]
            embeddings = [r.embeddings for r in results]
            if reference is None:
                reference = embeddings
            elif embeddings != reference:
                raise SystemExit(
                    f"warm workload: {name} backend returned different "
                    "embeddings than in-memory — refusing to write "
                    "records for a broken storage layer"
                )
        for name, graph in backends.items():
            total = 0.0
            for query in queries:
                best = None
                for _ in range(repeats):
                    start = time.perf_counter()
                    match(query, graph, algorithm=algorithm,
                          match_limit=match_limit, store_limit=0)
                    elapsed = time.perf_counter() - start
                    best = elapsed if best is None else min(best, elapsed)
                total += best
            seconds[name] = total
    finally:
        mmap_store.close()
        shm_store.close()

    key = {
        "warm_vertices": vertices, "degree": DEFAULT_WARM_DEGREE,
        "labels": DEFAULT_WARM_LABELS, "query_size": query_size,
        "queries": num_queries, "match_limit": match_limit,
        "repeats": repeats, "algorithm": algorithm,
    }
    metrics = {
        "in_memory_seconds": seconds["in_memory"],
        "mmap_seconds": seconds["mmap"],
        "shm_seconds": seconds["shm"],
        "mmap_overhead": seconds["mmap"] / seconds["in_memory"],
        "shm_overhead": seconds["shm"] / seconds["in_memory"],
    }
    return records.record(
        "storage", "warm", key, metrics, {"results_identical": 1}
    )


def _run_ooc_half(
    tmp: Path,
    vertices: int,
    half_degree: int,
    num_labels: int,
    num_queries: int,
    match_limit: int,
) -> dict:
    rgf_path = tmp / "ooc.rgf"
    facts = build_ring_lattice_rgf(rgf_path, vertices, half_degree,
                                   num_labels)
    budget = int(facts["array_bytes"] * BUDGET_FRACTION)
    if facts["array_bytes"] <= budget:
        raise SystemExit("out-of-core arrays do not exceed the budget")

    spec = json.dumps({
        "queries": _ooc_queries(num_labels, num_queries),
        "match_limit": match_limit,
    })
    memory = _run_child("memory", rgf_path, spec)
    mmap = _run_child("mmap", rgf_path, spec)
    if memory["queries"] != mmap["queries"]:
        raise SystemExit(
            "out-of-core workload: memmap results differ from in-memory "
            f"({memory['queries']} vs {mmap['queries']}) — refusing to "
            "write records for a broken storage layer"
        )

    key = {
        "ooc_vertices": vertices, "half_degree": half_degree,
        "labels": num_labels, "queries": num_queries,
        "match_limit": match_limit,
    }
    metrics = {"rss_ratio": mmap["peak_rss_bytes"] / memory["peak_rss_bytes"]}
    counters = {
        "data_vertices": facts["data_vertices"],
        "data_edges": facts["data_edges"],
        "array_bytes": facts["array_bytes"],
        "memory_budget_bytes": budget,
        "in_memory_peak_rss_bytes": memory["peak_rss_bytes"],
        "mmap_peak_rss_bytes": mmap["peak_rss_bytes"],
        "results_identical": 1,
    }
    return records.record("storage", "out_of_core", key, metrics, counters)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--warm-vertices", type=int,
                        default=DEFAULT_WARM_VERTICES)
    parser.add_argument(
        "--queries", type=int, default=DEFAULT_QUERIES, dest="num_queries"
    )
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--query-size", type=int, default=DEFAULT_QUERY_SIZE)
    parser.add_argument("--match-limit", type=int,
                        default=DEFAULT_MATCH_LIMIT)
    parser.add_argument("--algorithm", default=DEFAULT_WARM_ALGORITHM)
    parser.add_argument("--ooc-vertices", type=int,
                        default=DEFAULT_OOC_VERTICES)
    parser.add_argument("--ooc-half-degree", type=int,
                        default=DEFAULT_OOC_HALF_DEGREE)
    parser.add_argument("--ooc-labels", type=int, default=DEFAULT_OOC_LABELS)
    parser.add_argument("--ooc-queries", type=int,
                        default=DEFAULT_OOC_QUERIES)
    return records.main("storage", run_storage_benchmark, parser, argv)


if __name__ == "__main__":
    sys.exit(main())
