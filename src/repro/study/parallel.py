"""Parallel experiment runner: one query per worker process.

The study's algorithms are single-threaded by design (the paper's
sequential comparison), but a *workload* of independent queries
parallelizes trivially. This module fans a query set out over a process
pool and reassembles the same :class:`~repro.study.runner.RunSummary`
the sequential runner produces.

The data graph is **not** shipped to workers: it is published once as a
:class:`~repro.graph.store.SharedMemoryStore` (one shared-memory
segment holding the CSR arrays) and every worker attaches zero-copy via
the tiny handle the pool initializer receives — attach cost is
independent of graph size, and all workers read the same physical pages.

Timings measured in parallel are noisier than sequential ones (workers
share memory bandwidth), so the benchmark harness stays sequential; this
runner is for users who want answers, not measurements — e.g. scanning a
large workload for hard queries.

Algorithms may be preset names, ``"GLW"``, or explicit
:class:`~repro.core.spec.AlgorithmSpec` instances — a spec holds no
kernel (a kernel is a name on the request), so it pickles as plain
components.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Optional, Sequence, Tuple, Union

from repro.core.result import MatchResult
from repro.core.spec import AlgorithmSpec
from repro.graph.graph import Graph
from repro.graph.store import (
    GraphSource,
    SharedGraphHandle,
    SharedMemoryStore,
    as_graph,
)
from repro.study.runner import (
    QueryRecord,
    RunSummary,
    _measure,
    _measurement_run,
    default_match_limit,
    default_time_limit,
)

__all__ = ["run_algorithm_on_set_parallel"]

AlgorithmLike = Union[str, AlgorithmSpec]

# Worker-process global, set once by the pool initializer: the sequential
# runner's measurement over the attached data graph (which holds its
# store, and the store the mapping) — records must match that runner's
# byte for byte.
_WORKER_RUN: Optional[Callable[[Graph], MatchResult]] = None


def _init_worker(
    handle: SharedGraphHandle,
    algorithm: AlgorithmLike,
    match_limit: Optional[int],
    time_limit: Optional[float],
) -> None:
    global _WORKER_RUN
    data = SharedMemoryStore.attach(handle).graph()
    _WORKER_RUN = _measurement_run(data, algorithm, match_limit, time_limit)


def _run_one(task: Tuple[int, Graph]) -> QueryRecord:
    index, query = task
    assert _WORKER_RUN is not None
    return _measure(_WORKER_RUN, index, query)


def run_algorithm_on_set_parallel(
    algorithm: AlgorithmLike,
    data: GraphSource,
    queries: Sequence[Graph],
    dataset_key: str = "?",
    query_set_label: str = "?",
    match_limit: Optional[int] = None,
    time_limit: Optional[float] = None,
    workers: int = 2,
) -> RunSummary:
    """Parallel counterpart of :func:`repro.study.runner.run_algorithm_on_set`.

    Results are identical (same per-query records, in query order);
    wall-clock time is roughly divided by ``workers`` for CPU-bound
    workloads. ``data`` may be a :class:`Graph`, any
    :class:`~repro.graph.store.GraphStore`, or a ``.graph``/``.rgf``
    path; a graph already backed by a shared-memory store is not
    republished — workers attach to the existing segment.
    """
    if not isinstance(algorithm, (str, AlgorithmSpec)):
        raise TypeError(
            "algorithm must be a preset name, 'GLW', or an AlgorithmSpec"
        )
    if workers < 1:
        raise ValueError("need at least one worker")
    if match_limit is None:
        match_limit = default_match_limit()
    if time_limit is None:
        time_limit = default_time_limit()

    data = as_graph(data)
    summary = RunSummary(
        algorithm=(
            algorithm if isinstance(algorithm, str) else algorithm.name
        ),
        dataset_key=dataset_key,
        query_set_label=query_set_label,
        time_limit=time_limit,
    )
    tasks = list(enumerate(queries))
    store = data._store
    if isinstance(store, SharedMemoryStore):
        shared, handle = None, store.handle
    else:
        shared = SharedMemoryStore.publish(data)
        handle = shared.handle
    try:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(handle, algorithm, match_limit, time_limit),
        ) as pool:
            for record in pool.map(_run_one, tasks):
                summary.records.append(record)
    finally:
        if shared is not None:
            shared.close()
    summary.records.sort(key=lambda r: r.query_index)
    return summary
