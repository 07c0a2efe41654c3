"""Intra-query fan-out: chunk the root candidates, dispatch, merge.

The partition axis is the root frame's local-candidate list (for every
eligible plan that is ``candidates[order[0]]``): the sequential search is
the concatenation of the subtrees under each root candidate, so cutting
the list into contiguous windows and running each window as an
independent :func:`~repro.parallel.worker._run_chunk` task reproduces the
sequential result exactly — embeddings concatenate in sequential order,
and every depth-local counter sums to the sequential total (the only
correction is the one root ``recursion_calls`` each extra chunk pays).

The chunk count is **fixed** (:data:`DEFAULT_CHUNKS`, not the worker
count) so results and merged counters are invariant across
``n_workers`` — the determinism contract the test suite pins. More
chunks than workers also gives the pool slack to balance skewed subtree
sizes, the classic work-stealing argument.

Merge semantics under limits mirror a sequential early exit: chunks are
consumed in order, ``match_limit`` truncates inside the first chunk that
crosses it and discards the rest, and a chunk that died on
budget/cancellation (``solved=False``) ends the merge the way the
sequential engine would have stopped there. With failing-set presets a
root-level prune in the sequential run can skip work that later chunks
still perform, so merged counters may exceed (never undercount) the
sequential ones — embeddings are unaffected.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from typing import Callable, ContextManager, List, Optional, Sequence, Tuple

from repro.core.plan import MatchPlan, PreparedQuery
from repro.enumeration.stats import EnumerationOutcome, EnumerationStats
from repro.graph.graph import Graph
from repro.graph.store import SharedGraphHandle
from repro.obs import Metrics, add_counter, span
from repro.parallel.pool import ParallelUnavailable, WorkerPool, get_pool
from repro.parallel.worker import ChunkResult, _run_chunk
from repro.utils.timer import Timer

__all__ = [
    "DEFAULT_CHUNKS",
    "MIN_PARALLEL_ROOTS",
    "ParallelContext",
    "chunk_bounds",
    "merge_chunks",
]

#: Root windows per query — fixed so results/counters do not depend on
#: the worker count (chunks are balanced across whatever pool runs them).
DEFAULT_CHUNKS = 16

#: Below this many root candidates the fan-out cannot pay for itself.
MIN_PARALLEL_ROOTS = 2

#: Parent poll period while chunks run: how often the user/serving-tier
#: ``cancel`` callable is sampled and forwarded to the shared flag.
POLL_SECONDS = 0.02


def chunk_bounds(roots: int, chunks: int) -> List[Tuple[int, int]]:
    """Contiguous, non-empty windows covering ``[0, roots)`` in order."""
    k = min(chunks, roots)
    edges = [i * roots // k for i in range(k + 1)]
    return [(edges[i], edges[i + 1]) for i in range(k)]


def _add_stats(total: EnumerationStats, part: EnumerationStats) -> None:
    total.recursion_calls += part.recursion_calls
    total.candidates_scanned += part.candidates_scanned
    total.conflicts += part.conflicts
    total.failing_set_prunes += part.failing_set_prunes
    total.adaptive_lc_reused += part.adaptive_lc_reused


def merge_chunks(
    chunks: Sequence[ChunkResult],
    match_limit: Optional[int],
    store_limit: int,
) -> EnumerationOutcome:
    """Fold ordered chunk results into one sequential-order outcome."""
    ordered = sorted(chunks, key=lambda c: c.index)
    stats = EnumerationStats()
    embeddings: List[Tuple[int, ...]] = []
    num_matches = 0
    solved = True
    merged = 0
    for chunk in ordered:
        merged += 1
        _add_stats(stats, chunk.stats)
        take = chunk.num_matches
        if match_limit is not None and num_matches + take > match_limit:
            take = match_limit - num_matches
        num_matches += take
        room = store_limit - len(embeddings)
        if room > 0 and take > 0:
            embeddings.extend(chunk.embeddings[: min(take, room)])
        if match_limit is not None and num_matches >= match_limit:
            # Limit satisfied: the sequential run would have stopped here,
            # so later chunks (and even this chunk's own budget death) are
            # moot. solved stays True.
            break
        if not chunk.solved:
            # Budget/cancel killed this chunk; the sequential run would
            # have died at the same point of the search.
            solved = False
            break
    # Every chunk paid one root _push; the sequential run pays exactly one.
    stats.recursion_calls -= merged - 1
    return EnumerationOutcome(
        num_matches=num_matches,
        solved=solved,
        embeddings=embeddings,
        stats=stats,
        elapsed=0.0,
    )


class ParallelContext:
    """Per-match handle that ``run_plan`` fans enumeration out through.

    Built by :class:`~repro.core.session.MatchSession` (or the one-shot
    API) when an effective worker count is set; holds the worker count
    and a zero-argument provider returning the published graph's
    :class:`~repro.graph.store.SharedGraphHandle` (lazily, so
    ineligible matches never publish anything).
    """

    def __init__(
        self,
        n_workers: int,
        handle_provider: Callable[[], SharedGraphHandle],
        chunks: int = DEFAULT_CHUNKS,
        guard: Optional[Callable[[], ContextManager[None]]] = None,
    ) -> None:
        self.n_workers = n_workers
        self._handle_provider = handle_provider
        self.chunks = chunks
        #: Optional context-manager factory held for the whole dispatch —
        #: the session uses it to defer a concurrent close() until no
        #: worker can still be attaching to the shared segment.
        self._guard = guard
        #: Chunk timings from the last execute() — consumed by
        #: bench_parallel's makespan model.
        self.last_chunk_seconds: List[float] = []

    # -- gate -----------------------------------------------------------

    def eligible(self, prepared: PreparedQuery) -> bool:
        """Can this prepared query's enumeration be partitioned at the root?

        Requires a static order and materialized candidate sets — the
        adaptive DP-iso selector has no fixed root list, and
        direct-enumeration presets resolve their root pool lazily.
        """
        if self.n_workers <= 0:
            return False
        if prepared.adaptive_state is not None:
            return False
        if prepared.order is None or prepared.candidates is None:
            return False
        if prepared.candidates.has_empty_set:
            return False
        roots = prepared.candidates.size(prepared.order[0])
        return roots >= MIN_PARALLEL_ROOTS

    # -- dispatch -------------------------------------------------------

    def execute(
        self,
        plan: MatchPlan,
        query: Graph,
        data: Graph,
        prepared: PreparedQuery,
        match_limit: Optional[int],
        time_limit: Optional[float],
        store_limit: int,
        cancel: Optional[Callable[[], bool]],
        metrics: Optional[Metrics] = None,
    ) -> EnumerationOutcome:
        """Fan one query's enumeration across the pool; merged outcome.

        Raises :class:`ParallelUnavailable` when the pool cannot take the
        match (broken workers, cancel slots exhausted, publish failure) —
        ``run_plan`` then falls through to the sequential engine.
        """
        roots = prepared.candidates.size(prepared.order[0])
        bounds = chunk_bounds(roots, self.chunks)
        with ExitStack() as stack:
            if self._guard is not None:
                stack.enter_context(self._guard())
            try:
                handle = self._handle_provider()
                pool = get_pool(self.n_workers)
            except (OSError, ValueError) as exc:
                raise ParallelUnavailable(str(exc)) from exc
            slot = pool.acquire_slot()
            if slot is None:
                add_counter("parallel.slot_exhausted", 1)
                raise ParallelUnavailable("all cancel slots in use")
            deadline_at = (
                time.monotonic() + time_limit
                if time_limit is not None
                else None
            )
            with Timer() as timer:
                try:
                    results = self._dispatch(
                        pool,
                        handle,
                        plan,
                        query,
                        tuple(prepared.order),
                        bounds,
                        match_limit,
                        deadline_at,
                        store_limit,
                        slot,
                        cancel,
                    )
                finally:
                    pool.release_slot(slot)
        self.last_chunk_seconds = [c.elapsed for c in results]
        outcome = merge_chunks(results, match_limit, store_limit)
        outcome.elapsed = timer.elapsed
        add_counter("parallel.matches", 1)
        add_counter("parallel.chunks", len(bounds))
        add_counter(
            "parallel.prep_cache_misses",
            sum(1 for c in results if c.prep_seconds > 0),
        )
        return outcome

    def _dispatch(
        self,
        pool: WorkerPool,
        handle: SharedGraphHandle,
        plan: MatchPlan,
        query: Graph,
        order: Tuple[int, ...],
        bounds: Sequence[Tuple[int, int]],
        match_limit: Optional[int],
        deadline_at: Optional[float],
        store_limit: int,
        slot: int,
        cancel: Optional[Callable[[], bool]],
    ) -> List[ChunkResult]:
        with span(
            "parallel.fanout", chunks=len(bounds), workers=self.n_workers
        ):
            try:
                futures = [
                    pool.submit(
                        _run_chunk,
                        handle,
                        plan,
                        query,
                        order,
                        index,
                        window,
                        match_limit,
                        deadline_at,
                        store_limit,
                        slot,
                    )
                    for index, window in enumerate(bounds)
                ]
            except (BrokenProcessPool, RuntimeError) as exc:
                pool.broken = True
                raise ParallelUnavailable(str(exc)) from exc
            pending = set(futures)
            flagged = False
            while pending:
                done, pending = wait(
                    pending, timeout=POLL_SECONDS, return_when=FIRST_COMPLETED
                )
                if not flagged and cancel is not None and cancel():
                    # One store preempts every chunk of this match; the
                    # workers notice at the next deadline stride.
                    pool.set_flag(slot)
                    flagged = True
            results: List[ChunkResult] = []
            try:
                for future in futures:
                    results.append(future.result())
            except BrokenProcessPool as exc:
                pool.broken = True
                raise ParallelUnavailable(str(exc)) from exc
            except FileNotFoundError as exc:
                # The shared segment vanished under a worker's attach —
                # some other process unlinked it (the session-side guard
                # prevents our own close() doing this). The workers are
                # healthy; fall back to sequential enumeration.
                raise ParallelUnavailable(str(exc)) from exc
        return results
