"""Worker-process side of intra-query parallelism.

Each pool process attaches the cancel-flag segment once at init, then
serves :func:`_run_chunk` tasks: attach the shared data graph (cached by
segment name), rebuild/reuse the per-query preprocessing artifacts
(cached by a structural plan token + static order + exact query), and run
the frame machine over one window of the root-candidate list. Only the
slim :class:`ChunkResult` travels back — counts, stats, stored embeddings
and the chunk's wall-clock — never graphs or candidate structures.

The static order travels with every chunk: it is the parent's
``prepared.order``, which the root windows were cut from, and the worker
prepares with it instead of calling the plan's ordering again. A seeded
ordering (its rng moved on by the parent's own call) or a raced, sampled
order could not be derived again.

Cache keying: unpickled ``AlgorithmSpec`` instances never compare equal
(their components are fresh objects), so the prepared-query cache keys on
:func:`_plan_token` — the spec/plan's structural identity (names, classes
and flags) — plus the order, the exact query graph (hash/eq over CSR
bytes) and the data segment name. Two keys that are equal prepare
identical artifacts by construction: every registry filter and ComputeLC
is parameterless, ad-hoc components are distinguished by class (and
kernels additionally by registry name), and the order is given.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import List, Optional, Tuple

import numpy as np

from repro.core.plan import (
    LRUCache,
    MatchPlan,
    PreparedQuery,
    prepare_query,
    run_plan,
)
from repro.enumeration.stats import EnumerationStats
from repro.graph.graph import Graph
from repro.graph.store import SharedGraphHandle, SharedMemoryStore
from repro.obs import Metrics

__all__ = ["ChunkResult", "_run_chunk", "_worker_init"]

#: Attached data graphs kept warm per worker (LRU by segment name).
GRAPH_CACHE_SIZE = 4
#: Prepared queries kept warm per worker (LRU).
PREP_CACHE_SIZE = 32

_FLAGS: Optional[np.ndarray] = None
_FLAGS_SHM: Optional[shared_memory.SharedMemory] = None
# Eviction drops the reference only: an attached graph's mapping lives
# until its arrays die (an eager close would raise BufferError on the
# exported views).
_GRAPHS = LRUCache(GRAPH_CACHE_SIZE)
_PREPARED = LRUCache(PREP_CACHE_SIZE)


@dataclass
class ChunkResult:
    """One root window's enumeration outcome (picklable, graph-free)."""

    index: int
    num_matches: int
    solved: bool
    embeddings: List[Tuple[int, ...]]
    stats: EnumerationStats
    #: Enumeration wall-clock inside the worker — the per-chunk cost the
    #: makespan model in bench_parallel is built from.
    elapsed: float = 0.0
    #: Preprocessing seconds this task paid (0 on a prep-cache hit).
    prep_seconds: float = 0.0


def _worker_init(flags_name: str) -> None:
    """Pool initializer: map the cancel-flag segment once per process."""
    global _FLAGS, _FLAGS_SHM
    _FLAGS_SHM = shared_memory.SharedMemory(name=flags_name)
    _FLAGS = np.frombuffer(_FLAGS_SHM.buf, dtype=np.int64)


def _attach_graph(handle: SharedGraphHandle) -> Graph:
    graph = _GRAPHS.get(handle.name)
    if graph is None:
        # The graph view holds its store, and the store the mapping.
        graph = SharedMemoryStore.attach(handle).graph()
        _GRAPHS.put(handle.name, graph)
    return graph


def _component_token(component: object) -> Optional[str]:
    if component is None:
        return None
    token = type(component).__name__
    kernel = getattr(component, "kernel", None)
    if kernel is not None:
        token += f"[{type(kernel).__name__}:{getattr(kernel, 'name', '?')}]"
    return token


def _plan_token(plan: MatchPlan) -> tuple:
    """Structural identity of a plan, stable across pickling. The
    ordering is left out: the chunk's order stands in for it."""
    spec = plan.algorithm
    kernel = plan.kernel_policy
    if kernel is not None and not isinstance(kernel, str):
        kernel = f"{type(kernel).__name__}:{getattr(kernel, 'name', '?')}"
    tree = spec.tree_source
    tree_token = getattr(tree, "__qualname__", None) if tree else None
    return (
        spec.name,
        _component_token(spec.filter),
        _component_token(spec.lc),
        tree_token,
        spec.aux_scope,
        spec.adaptive,
        spec.failing_sets,
        kernel,
    )


def _prepared_for(
    plan: MatchPlan, query: Graph, order: Tuple[int, ...], data: Graph, graph_name: str
) -> Tuple[PreparedQuery, float]:
    """The cached artifacts for this chunk's query, or fresh ones; and
    the preprocessing seconds paid for them (0 on a hit)."""
    key = (graph_name, _plan_token(plan), order, query)
    prepared = _PREPARED.get(key)
    if prepared is not None:
        return prepared, 0.0
    prepared = prepare_query(plan, query, data, Metrics(), order=list(order))
    _PREPARED.put(key, prepared)
    return prepared, prepared.preprocessing_seconds


def _run_chunk(
    handle: SharedGraphHandle,
    plan: MatchPlan,
    query: Graph,
    order: Tuple[int, ...],
    index: int,
    window: Tuple[int, int],
    match_limit: Optional[int],
    deadline_at: Optional[float],
    store_limit: int,
    cancel_slot: Optional[int],
) -> ChunkResult:
    """Enumerate one root window; the pool's task function.

    ``deadline_at`` is an absolute ``time.monotonic()`` instant (clocks
    are shared across fork/spawn on the same host), converted to the
    engine's relative ``time_limit`` here so queue wait counts against
    the budget exactly like the serving tier's admission does.
    """
    data = _attach_graph(handle)
    prepared, prep_seconds = _prepared_for(plan, query, order, data, handle.name)

    time_limit = None
    if deadline_at is not None:
        # An already-expired deadline still runs the engine (which
        # notices on its first stride) so the chunk reports solved=False
        # instead of crashing on a non-positive Deadline.
        time_limit = max(deadline_at - time.monotonic(), 1e-9)

    cancel = None
    if cancel_slot is not None:
        flags = _FLAGS
        assert flags is not None, "worker used before _worker_init"

        def cancel() -> bool:
            return bool(flags[cancel_slot])

    result, _ = run_plan(
        plan,
        query,
        data,
        prepared=prepared,
        match_limit=match_limit,
        time_limit=time_limit,
        store_limit=store_limit,
        metrics=Metrics(),
        cancel=cancel,
        root_window=window,
    )
    return ChunkResult(
        index=index,
        num_matches=result.num_matches,
        solved=result.solved,
        embeddings=list(result.embeddings),
        stats=result.stats,
        elapsed=result.enumeration_seconds,
        prep_seconds=prep_seconds,
    )
