"""The four workloads and their seeded input generator.

A workload is a data graph (an ``.rgf`` file the server maps) plus a
JSON-lines file of wire requests: the first ``warmup`` lines are sent
before timing starts, the rest is the timed stream. Static streams are
cycled until the run's time is up; the ``mutate_match`` script is long
enough never to wrap. The server only ever sees these files.

The two data graphs are *datasets*: like the paper's (and like the
stand-ins in ``repro.study.datasets``) their generator seed is part of
the workload definition. ``--seed`` draws what the paper draws per
experiment — the query sets — plus the stream order and the mutation
script. A graph redrawn per seed moved ``latency_p50_ms`` by 13 % between
seeds on its own, more than the bound the metric is held to.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.graph import Graph, generate_query_set, load_graph, rmat_graph, write_rgf  # noqa: E402
from repro.serve.protocol import graph_to_payload  # noqa: E402

CACHE = HERE / ".cache"
GRAPH_NAME = "g"

#: name -> rmat_graph arguments. ``dense`` is the ``eu`` stand-in's shape.
GRAPHS: Dict[str, Dict[str, Any]] = {
    "sparse": dict(num_vertices=8_000, average_degree=12.0, num_labels=16, seed=11),
    "dense": dict(
        num_vertices=4_000, average_degree=37.4, num_labels=14, seed=108, clustering=0.3
    ),
}

#: Effective ops in every ``mutate`` batch (mnemon's <=10-edge write shape).
ADDS_PER_BATCH = 6
REMOVES_PER_BATCH = 2
MATCHES_PER_CYCLE = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    graph: str
    #: (query vertices, density class, how many) per query set in the pool.
    pools: Tuple[Tuple[int, Optional[str], int], ...]
    match_limit: int
    store_limit: int
    #: The stream is this many passes over the pool, each in its own seeded
    #: order, so any stretch of it covers the pool evenly.
    passes: int
    #: Send the whole pool before timing, so every timed request finds its
    #: plan and prepared query cached. Otherwise a few requests that the
    #: caches will have evicted by the time the stream reaches them.
    warm: bool
    #: Stream ops replayed by the traced run.
    trace_ops: int
    #: Size of the yardstick request timed beside this workload's: about as
    #: long as one of its own requests (see yardstick.py).
    yardstick_units: int
    #: Above 0 the graph is dynamic and the stream is this many cycles of one
    #: ``mutate`` and two ``match`` ops on queries rotating through the pool.
    mutate_cycles: int = 0
    #: Draw the pool from this seed instead of ``--seed``, which then only
    #: orders the stream.
    pool_seed: Optional[int] = None

    @property
    def warmup(self) -> int:
        return sum(count for _, _, count in self.pools) if self.warm else 8

    @property
    def include_embeddings(self) -> bool:
        return self.store_limit > 0

    @property
    def dynamic(self) -> bool:
        return self.mutate_cycles > 0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            name="cold_sparse",
            why="320 distinct sparse queries, more than the prep and plan caches "
            "hold: every request pays filtering, the paper's preprocessing-bound regime",
            graph="sparse",
            pools=((8, "sparse", 160), (12, "sparse", 160)),
            match_limit=1000, store_limit=0,
            passes=1, warm=False, trace_ops=50, yardstick_units=350,
        ),
        Workload(
            name="enum_dense",
            why="a fixed set of 32 dense queries repeated on a dense graph: the prep cache "
            "always hits, so enumeration and the intersection kernel do the work and filtering none",
            graph="dense",
            pools=((8, "dense", 16), (12, "dense", 16)),
            match_limit=5000, store_limit=0,
            passes=10, warm=True, trace_ops=40, yardstick_units=250, pool_seed=4,
        ),
        Workload(
            name="hot_small",
            why="a fixed set of 32 cached 6-vertex queries, 10 embeddings returned: almost "
            "pure per-request overhead of wire, server, service and session",
            graph="sparse",
            pools=((6, None, 32),),
            match_limit=10, store_limit=10,
            passes=128, warm=True, trace_ops=2000, yardstick_units=3, pool_seed=4,
        ),
        Workload(
            name="mutate_match",
            why="one 8-edge mutate then two matches per cycle on a dynamic graph: "
            "every write rebuilds the snapshot and every read re-filters at the new epoch",
            graph="sparse",
            pools=((6, None, 64),),
            match_limit=1000, store_limit=10,
            passes=0, warm=False, trace_ops=90, yardstick_units=250, mutate_cycles=600,
        ),
    ]
}


#: Share of the full sizes; ``smoke`` exists for test_selftest.py.
SCALES = {"full": 1.0, "smoke": 0.1}


def _scaled(workload: Workload, factor: float) -> Workload:
    return replace(
        workload,
        pools=tuple((size, density, max(8, int(count * factor))) for size, density, count in workload.pools),
        match_limit=max(10, int(workload.match_limit * factor)),
        mutate_cycles=int(workload.mutate_cycles * factor),
        trace_ops=max(12, int(workload.trace_ops * factor)),
    )


@dataclass
class Inputs:
    workload: Workload
    seed: int
    graph_path: Path
    #: Wire request lines, newline-terminated.
    warmup: List[bytes]
    stream: List[bytes]

    def graph(self) -> Graph:
        return load_graph(self.graph_path)


def is_match(line: bytes) -> bool:
    """Whether a wire request line (as ``generate`` writes them) is a ``match``."""
    return b'"op":"match"' in line


def _query_pool(workload: Workload, graph: Graph, seed: int) -> List[Dict[str, Any]]:
    """The workload's distinct queries, walked out of its own data graph."""
    pool: List[Dict[str, Any]] = []
    seen = set()
    for k, (size, density, count) in enumerate(workload.pools):
        picked = 0
        attempt = 0
        while picked < count:
            # Fresh derived seeds until the set holds `count` distinct graphs.
            batch = generate_query_set(
                graph, size, count - picked, seed=seed * 64 + k * 8 + attempt, density=density
            )
            attempt += 1
            for query in batch:
                payload = graph_to_payload(query)
                key = json.dumps(payload)
                if key not in seen:
                    seen.add(key)
                    pool.append(payload)
                    picked += 1
    return pool


def _match_request(workload: Workload, query: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "op": "match",
        "graph": GRAPH_NAME,
        "query": query,
        "match_limit": workload.match_limit,
        "store_limit": workload.store_limit,
        "include_embeddings": workload.include_embeddings,
    }


def _mutation_script(graph: Graph, cycles: int, rng: np.random.Generator) -> List[List[list]]:
    """Batches whose every op is effective against the shadow edge set."""
    edge_list = [(int(u), int(v)) for u, v in graph.edges()]
    edge_set = set(edge_list)
    n = graph.num_vertices
    script = []
    for _ in range(cycles):
        batch: List[list] = []
        while len(batch) < ADDS_PER_BATCH:
            u, v = (int(x) for x in rng.integers(0, n, size=2))
            edge = (min(u, v), max(u, v))
            if u != v and edge not in edge_set:
                edge_set.add(edge)
                edge_list.append(edge)
                batch.append(["add_edge", u, v])
        for _ in range(REMOVES_PER_BATCH):
            i = int(rng.integers(0, len(edge_list)))
            edge_list[i], edge_list[-1] = edge_list[-1], edge_list[i]
            edge = edge_list.pop()
            edge_set.discard(edge)
            batch.append(["remove_edge", edge[0], edge[1]])
        script.append(batch)
    return script


def _requests(workload: Workload, graph: Graph, seed: int) -> Tuple[List[dict], List[dict]]:
    pool_seed = seed if workload.pool_seed is None else workload.pool_seed
    pool = [_match_request(workload, q) for q in _query_pool(workload, graph, pool_seed)]
    rng = np.random.default_rng([seed, len(workload.name)])
    if workload.dynamic:
        stream: List[dict] = []
        for cycle, batch in enumerate(_mutation_script(graph, workload.mutate_cycles, rng)):
            stream.append({"op": "mutate", "graph": GRAPH_NAME, "mutations": batch})
            for j in range(MATCHES_PER_CYCLE):
                stream.append(pool[(cycle * MATCHES_PER_CYCLE + j) % len(pool)])
    else:
        stream = [pool[i] for _ in range(workload.passes) for i in rng.permutation(len(pool))]
    if workload.warm:
        return pool, stream
    # The stream's last matches: by the time it comes round to them the
    # caches have long evicted them.
    return [r for r in stream if r["op"] == "match"][-workload.warmup:], stream


def generate(name: str, seed: int, scale: str = "full") -> Inputs:
    """Build (or reuse from ``.cache/<seed>/``) one workload's inputs."""
    factor = SCALES[scale]
    workload = WORKLOADS[name] if scale == "full" else _scaled(WORKLOADS[name], factor)
    cache = CACHE if scale == "full" else CACHE / scale
    graph_path = cache / f"{workload.graph}.rgf"
    if not graph_path.exists():
        cache.mkdir(parents=True, exist_ok=True)
        shape = dict(GRAPHS[workload.graph])
        shape["num_vertices"] = int(shape["num_vertices"] * factor)
        write_rgf(rmat_graph(**shape), graph_path)
    path = cache / str(seed) / f"{name}.jsonl"
    if not path.exists():
        warmup, stream = _requests(workload, load_graph(graph_path), seed)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            for i, request in enumerate(warmup + stream):
                fh.write(json.dumps(dict(request, id=i), separators=(",", ":")) + "\n")
        os.replace(tmp, path)
    with open(path, "rb") as fh:
        lines = fh.readlines()
    return Inputs(
        workload=workload,
        seed=seed,
        graph_path=graph_path,
        warmup=lines[: workload.warmup],
        stream=lines[workload.warmup:],
    )
