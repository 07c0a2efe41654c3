"""The public matching API: run one algorithm preset end to end.

``match()`` executes the full Algorithm 1 pipeline — filter, auxiliary
structure, matching order, enumeration — with the paper's two limits
(match cap, wall-clock budget) and returns a
:class:`~repro.core.result.MatchResult` carrying the split timings the
study reports.

Since the query-compilation refactor, ``match()`` is a thin back-compat
wrapper: it builds one throwaway :class:`~repro.core.session.MatchSession`
(caches off, cache counters suppressed) and runs the query through it, so
results stay byte-identical to the historical one-shot pipeline. Callers
issuing many queries against one data graph should hold a
:class:`~repro.core.session.MatchSession` instead and get plan caching
and preprocessing reuse for free.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.core.result import MatchResult
from repro.core.session import MatchSession
from repro.core.spec import AlgorithmSpec
from repro.graph.graph import Graph
from repro.utils.kernels import KernelLike

__all__ = ["match", "count_matches", "has_match"]

AlgorithmLike = Union[str, AlgorithmSpec]


def match(
    query: Graph,
    data: Graph,
    algorithm: AlgorithmLike = "recommended",
    match_limit: Optional[int] = 100_000,
    time_limit: Optional[float] = None,
    store_limit: int = 10_000,
    validate: bool = True,
    kernel: Optional[KernelLike] = None,
    cancel: Optional[Callable[[], bool]] = None,
    n_workers: Optional[int] = None,
) -> MatchResult:
    """Find matches of ``query`` in ``data``.

    Parameters
    ----------
    query, data:
        Labeled undirected graphs. The query must be connected with at
        least 3 vertices (the paper's problem setting).
    algorithm:
        A preset name (see
        :func:`repro.core.algorithms.available_algorithms`), the string
        ``"recommended"`` (the paper's Section 6 composition, resolved per
        query/data pair), or an explicit :class:`AlgorithmSpec`.
    match_limit:
        Stop after this many matches (paper default 10^5); ``None`` finds
        all.
    time_limit:
        Wall-clock budget in seconds for the enumeration phase; on expiry
        the result has ``solved=False`` (the paper's unsolved query).
    store_limit:
        Maximum embeddings retained in the result (counting continues).
    validate:
        Check the query's preconditions up front (disable in tight loops).
    kernel:
        Intersection backend for the Algorithm 5 hot path: a registry name
        (``"rows"``, ``"scalar"``, ``"numpy"``, ``"bitset"``,
        ``"qfilter"``, ``"auto"``) or a
        :class:`~repro.utils.kernels.KernelBackend` instance. ``None``
        defers to the ``REPRO_KERNEL`` environment variable, falling back
        to ``"auto"`` (candidate-space bitmap rows whenever a static order
        reads them and they fit ``REPRO_BITSET_CACHE_MB``, numpy
        otherwise). Any other value raises
        :class:`~repro.errors.ConfigurationError`. An explicit argument
        always wins; with ``None``, a spec constructed with its own
        explicit kernel keeps it, and the result's ``kernel`` names the
        backend that ran either way. Ignored (and recorded as ``None`` on
        the result) when the algorithm's ComputeLC is not Algorithm 5.
    cancel:
        Optional zero-argument callable polled by the engine at the
        deadline stride; once it returns True the enumeration stops and
        the result reports ``solved=False`` (cooperative preemption —
        see :mod:`repro.serve`).
    n_workers:
        Intra-query parallelism (see :mod:`repro.parallel`): eligible
        queries split their root-candidate set across this many worker
        processes attached to a shared-memory copy of ``data``, with
        results byte-identical to sequential execution. ``None`` defers
        to the ``REPRO_WORKERS`` environment variable (absent →
        sequential, i.e. 0). One-shot calls publish and tear down the
        shared graph every time — hold a
        :class:`~repro.core.session.MatchSession` to amortize that.

    Examples
    --------
    >>> from repro.graph import Graph
    >>> data = Graph(labels=[0, 1, 0, 1], edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
    >>> triangle_free = Graph(labels=[0, 1, 0], edges=[(0, 1), (1, 2)])
    >>> match(triangle_free, data, algorithm="GQL").num_matches
    4
    """
    session = MatchSession(
        data,
        algorithm=algorithm,
        kernel=kernel,
        plan_cache_size=0,
        prep_cache_size=0,
        record_cache_metrics=False,
        n_workers=n_workers,
    )
    try:
        return session.match(
            query,
            match_limit=match_limit,
            time_limit=time_limit,
            store_limit=store_limit,
            validate=validate,
            cancel=cancel,
        )
    finally:
        # Throwaway session: release its shared-memory segment (if a
        # parallel match published one) deterministically, not at gc.
        session.close()


def count_matches(
    query: Graph,
    data: Graph,
    algorithm: AlgorithmLike = "recommended",
    match_limit: Optional[int] = None,
    time_limit: Optional[float] = None,
    kernel: Optional[KernelLike] = None,
    store_limit: int = 0,
    validate: bool = True,
    n_workers: Optional[int] = None,
) -> int:
    """Number of matches (all of them by default); stores no embeddings.

    ``validate`` and ``store_limit`` pass through to :func:`match` —
    tight loops can skip validation here exactly as they can on
    ``match()`` itself.
    """
    return match(
        query,
        data,
        algorithm=algorithm,
        match_limit=match_limit,
        time_limit=time_limit,
        store_limit=store_limit,
        validate=validate,
        kernel=kernel,
        n_workers=n_workers,
    ).num_matches


def has_match(
    query: Graph,
    data: Graph,
    algorithm: AlgorithmLike = "recommended",
    time_limit: Optional[float] = None,
    kernel: Optional[KernelLike] = None,
    store_limit: int = 0,
    validate: bool = True,
    n_workers: Optional[int] = None,
) -> bool:
    """Whether at least one match exists (stops at the first).

    ``validate`` and ``store_limit`` pass through to :func:`match`.
    """
    return (
        match(
            query,
            data,
            algorithm=algorithm,
            match_limit=1,
            time_limit=time_limit,
            store_limit=store_limit,
            validate=validate,
            kernel=kernel,
            n_workers=n_workers,
        ).num_matches
        > 0
    )
