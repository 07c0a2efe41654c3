"""Intra-query parallel enumeration over a shared-memory process pool.

Python's GIL caps one process at one core of enumeration; this package
buys real CPU parallelism for a *single* query by partitioning the root
frame of a compiled plan into contiguous candidate windows, running each
window in a persistent worker process, and merging the per-chunk results
into an outcome byte-identical to the sequential engine's.

Layers:

* :class:`repro.graph.store.SharedMemoryStore` — publishes the data
  graph's CSR arrays once in a shared-memory segment; workers attach
  zero-copy by the picklable :class:`~repro.graph.store.SharedGraphHandle`.
* :mod:`~repro.parallel.pool` — process-wide persistent pools (one per
  worker count) plus the shared cancel flags that carry preemption
  across the process boundary.
* :mod:`~repro.parallel.worker` — the worker-side task: attach, prepare
  (cached), enumerate one root window, return a slim result.
* :mod:`~repro.parallel.executor` — eligibility gate, chunking, dispatch
  + cancel polling, and the order-preserving merge.

Entry points: ``match(n_workers=...)``, ``MatchSession(n_workers=...)``,
the ``REPRO_WORKERS`` environment variable and the ``--workers`` CLI
flag; the serving tier forwards its per-tenant setting the same way.
"""

from repro.parallel.executor import (
    DEFAULT_CHUNKS,
    MIN_PARALLEL_ROOTS,
    ParallelContext,
    chunk_bounds,
    merge_chunks,
)
from repro.parallel.pool import (
    MAX_CANCEL_SLOTS,
    ParallelUnavailable,
    WorkerPool,
    get_pool,
    resolve_workers,
    shutdown_pools,
)
from repro.parallel.worker import ChunkResult

__all__ = [
    "DEFAULT_CHUNKS",
    "MAX_CANCEL_SLOTS",
    "MIN_PARALLEL_ROOTS",
    "ChunkResult",
    "ParallelContext",
    "ParallelUnavailable",
    "WorkerPool",
    "chunk_bounds",
    "get_pool",
    "merge_chunks",
    "resolve_workers",
    "shutdown_pools",
]
