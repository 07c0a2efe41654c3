"""MatchSession: one resident data graph, many queries, amortized state.

The paper's Algorithm 1 and every figure of its evaluation run *many*
query graphs against *one* in-memory data graph; a production matching
service does the same at traffic scale. ``match()`` re-resolves and
rebuilds everything per call; a :class:`MatchSession` instead owns the
data graph plus the state that amortizes across queries:

* a **plan cache** — compiled :class:`~repro.core.plan.MatchPlan` objects
  (resolved spec + kernel + aux-scope policy), LRU-keyed by the
  order-invariant query fingerprint so resubmitted patterns hit even
  under a different vertex numbering;
* a **prepared-query cache** — full preprocessing artifacts (candidates,
  auxiliary adjacency, matching order, the resolved kernel with its warm
  encode caches), LRU-keyed by *exact* graph equality, so repeating a
  query skips filtering/ordering entirely and goes straight to
  enumeration;
* **hit/miss counters** flowing into :mod:`repro.obs` metrics — per-query
  (``plan.cache_hit`` … on ``MatchResult.metrics``) and session-wide
  (:attr:`MatchSession.metrics`);
* **order racing** for repeated count-only ``recommended`` queries (see
  :class:`MatchSession`): the second such request races the matching
  order once and later ones run the winner.

Usage::

    session = MatchSession(data, algorithm="GQLfs")
    for query in workload:
        result = session.match(query)
    results = session.match_many(more_queries)   # batch form
    session.cache_info()                          # {'plan': {...}, 'prep': {...}}

Sessions are **thread-safe**: the plan and prep caches take an internal
lock per operation (see :class:`~repro.core.plan.LRUCache`) and the
session-wide counters are guarded here, so one session may be shared by
a worker pool — the shape :mod:`repro.serve` runs at traffic scale.
Each :meth:`match` call still builds its own per-query state (metrics,
frame machine), so concurrent calls never share mutable
enumeration state; cached :class:`~repro.core.plan.PreparedQuery`
artifacts are read-only during enumeration by contract. CPU-bound
workloads that want parallel *speedup* under the GIL should still prefer
one session per process, as :mod:`repro.study.parallel` does.
``match()`` remains the one-shot convenience wrapper: it builds a
throwaway session per call.
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.plan import (
    AlgorithmLike,
    KernelLike,
    LRUCache,
    MatchPlan,
    compile_plan,
    race_orders,
    run_plan,
    validate_query,
)
from repro.core.result import MatchResult
from repro.core.spec import AlgorithmSpec
from repro.errors import ConfigurationError
from repro.dynamic.mutations import Mutation
from repro.dynamic.overlay import DynamicGraph, MutationDelta
from repro.dynamic.subscribe import Subscription, SubscriptionUpdate
from repro.graph.fingerprint import query_fingerprint
from repro.graph.graph import Graph
from repro.graph.store import (
    GraphSource,
    SharedGraphHandle,
    SharedMemoryStore,
    as_graph,
)
from repro.obs import Metrics
from repro.parallel.executor import ParallelContext
from repro.parallel.pool import resolve_workers
from repro.utils.kernels import KernelBackend

__all__ = ["MatchSession", "MutationOutcome"]

#: What ``MatchSession.mutate`` accepts: built ops or plain op tuples.
MutationLike = Union[Mutation, Sequence]


@dataclass(frozen=True)
class MutationOutcome:
    """What one :meth:`MatchSession.mutate` call changed.

    ``updates`` is aligned with :attr:`MatchSession.subscriptions` at
    the time of the call — one embedding delta per standing query.
    """

    delta: MutationDelta
    updates: Tuple[SubscriptionUpdate, ...] = ()

    @property
    def epoch(self) -> int:
        return self.delta.epoch


class MatchSession:
    """A resident data graph plus its amortizable matching state.

    Parameters
    ----------
    data:
        The data graph this session serves — a :class:`Graph`, any
        :class:`~repro.graph.store.GraphStore` (in-memory, memmap,
        shared-memory), a path to a ``.graph``/``.rgf`` file (resolved
        through :func:`~repro.graph.store.as_graph`), or a
        :class:`~repro.dynamic.overlay.DynamicGraph`. For immutable
        sources every cache below remains valid for the session's life;
        for a dynamic graph the caches key on the graph **epoch**, so a
        :meth:`mutate` invalidates exactly the entries whose graph
        changed — a cache hit happens iff the epoch is unchanged.
    algorithm:
        Default algorithm for :meth:`match` calls that don't name one.
    kernel:
        Default intersection-backend request (see
        :func:`repro.core.api.match`); per-call ``kernel=`` wins.
    plan_cache_size:
        LRU capacity for compiled plans (``None`` unbounded, ``0`` off).
    prep_cache_size:
        LRU capacity for prepared queries (``None`` unbounded, ``0``
        off). Disable for measurement harnesses that must observe real
        preprocessing on every query, as the study runners do.
    record_cache_metrics:
        Attach per-query ``plan.cache_hit`` / ``plan.cache_miss`` (and
        ``plan.prep_hit`` / ``plan.prep_miss`` when the prep cache is on)
        counters to each result's metrics. The back-compat one-shot
        ``match()`` disables this so its results stay byte-identical to
        the pre-session pipeline.
    n_workers:
        Default intra-query parallelism (see :mod:`repro.parallel`):
        eligible queries fan their enumeration out over this many worker
        processes, attached zero-copy to the session's shared-memory
        published graph. ``None`` defers to ``REPRO_WORKERS`` (absent →
        sequential); per-call ``n_workers=`` wins. Results are
        byte-identical to sequential execution either way.

    Order racing: a prep-cache hit of the ``"recommended"`` algorithm
    that stores no embeddings (``store_limit == 0``: every
    :meth:`count_matches` and :meth:`has_match`), on a query that has not
    raced, is answered by the cached configuration as always; if that run
    solved and the call carries no ``time_limit``,
    :func:`~repro.core.plan.race_orders` then tries the other
    :data:`~repro.core.plan.RACERS` configurations and
    :data:`~repro.core.plan.SAMPLED_RACERS` sampled orders under its
    ``recursion_calls`` and ``match_limit``, and the copy carrying the
    winner replaces the cached prepared query. A call with a deadline
    never waits on a race past its own answer; ``cancel`` stops a race
    like a search, and a stopped race records nothing. Later count-only
    hits with the raced ``match_limit`` use the winner, sequential or
    fanned out (workers are handed the winner's order).
    Replies carrying embeddings, named presets, cache misses and other
    caps keep the cached configuration. The reply invariant: every
    reply's ``num_matches``, ``solved``, ``algorithm`` and ``kernel``
    (racers resolve the same kernel or sit out) are those of the unraced
    configuration — a solved count is the same under any order — and
    every reply carrying embeddings is byte-identical to it (embeddings,
    ``order``, counters). Only a raced count reply's ``order`` and
    enumeration counters show the winner's work. Session-wide counters
    ``session.races``, ``session.race_switches`` (a winner other than
    the cached configuration) and ``session.race_calls`` (the races'
    ``recursion_calls``) account for it.
    """

    def __init__(
        self,
        data: GraphSource,
        algorithm: AlgorithmLike = "recommended",
        kernel: Optional[KernelLike] = None,
        plan_cache_size: Optional[int] = 256,
        prep_cache_size: Optional[int] = 64,
        record_cache_metrics: bool = True,
        n_workers: Optional[int] = None,
    ) -> None:
        if isinstance(data, DynamicGraph):
            #: The mutable resident graph (``None`` for static sessions).
            self.dynamic: Optional[DynamicGraph] = data
            self._resident: Tuple[int, Graph] = data.versioned_snapshot()
        else:
            self.dynamic = None
            self._resident = (0, as_graph(data))
        self.algorithm = algorithm
        self.kernel = kernel
        self.n_workers = n_workers
        # Shared-memory published copies of the served snapshot, keyed
        # by epoch: created on the first parallel-eligible match of an
        # epoch and kept until the epoch is superseded (or the session's
        # life for static sessions). Workers cache their attachment by
        # segment name; finalizers cover sessions that are never
        # explicitly closed. A data graph already backed by a
        # SharedMemoryStore is never republished — workers attach to the
        # existing segment by name.
        self._shared_graphs: dict = {}
        self._shared_lock = threading.Lock()
        # Serializes mutate()/subscribe() against each other; match()
        # deliberately does not take it — it reads the (epoch, snapshot)
        # pair atomically and runs against that immutable snapshot.
        self._mutate_lock = threading.RLock()
        self._subscriptions: List[Subscription] = []
        # close() must not unlink the segment under an in-flight parallel
        # dispatch (workers would hit FileNotFoundError mid-attach);
        # dispatches register through _parallel_guard and a close that
        # races one defers the release to the last guard exit.
        self._inflight_parallel = 0
        self._close_deferred = False
        self.record_cache_metrics = record_cache_metrics
        self._plans = LRUCache(plan_cache_size)
        self._prep = LRUCache(prep_cache_size)
        #: Session-wide counters: queries served and cache hits/misses,
        #: in the same :class:`~repro.obs.Metrics` currency the study
        #: aggregates, so they merge into any report.
        self.metrics = Metrics()
        # Metrics.add is a read-modify-write on a plain dict; concurrent
        # match() calls on a shared session would lose increments without
        # this guard (the session stress suite checks the totals).
        self._metrics_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Resident snapshot
    # ------------------------------------------------------------------

    @property
    def data(self) -> Graph:
        """The immutable snapshot currently served.

        Static sessions hold one snapshot forever; dynamic sessions
        advance it on every :meth:`mutate`. In-flight matches keep the
        snapshot they captured, so a mutation never changes a running
        query's view of the graph.
        """
        return self._resident[1]

    @property
    def data_epoch(self) -> int:
        """The epoch of the served snapshot (0 for static sessions)."""
        return self._resident[0]

    # ------------------------------------------------------------------
    # Parallel execution support
    # ------------------------------------------------------------------

    def _shared_handle_for(self, epoch: int, data: Graph) -> SharedGraphHandle:
        """The published copy of one epoch's snapshot (created on first need).

        A snapshot whose arrays already live in a
        :class:`~repro.graph.store.SharedMemoryStore` segment is not
        republished: workers attach to that segment by name, and its
        owner (not this session) remains responsible for unlinking it.
        """
        store = data._store
        if isinstance(store, SharedMemoryStore):
            return store.handle
        with self._shared_lock:
            entry = self._shared_graphs.get(epoch)
            if entry is None:
                shared = SharedMemoryStore.publish(data)
                finalizer = weakref.finalize(self, shared.close)
                entry = (shared, finalizer)
                self._shared_graphs[epoch] = entry
            return entry[0].handle

    def _shared_handle(self) -> SharedGraphHandle:
        """The published copy of the *current* snapshot."""
        epoch, data = self._resident
        return self._shared_handle_for(epoch, data)

    def _release_shared_locked(self, keep: Optional[int] = None) -> None:
        # Caller holds _shared_lock. Releases every published epoch
        # except `keep` (None releases all).
        for ep in list(self._shared_graphs):
            if keep is None or ep != keep:
                _, finalizer = self._shared_graphs.pop(ep)
                finalizer()

    def close(self) -> None:
        """Release the session's shared-memory segments.

        Idempotent and safe to call concurrently with in-flight parallel
        dispatch: a close that races an active fan-out defers the
        segment unlink until the last dispatch drains, so workers never
        lose the segment mid-attach. Sessions that never ran a parallel
        match hold no segment and close is a no-op; a garbage-collected
        session is finalized the same way, so close() is a courtesy for
        deterministic cleanup (the one-shot API and the serving tier
        call it explicitly).
        """
        with self._shared_lock:
            if self._inflight_parallel > 0:
                self._close_deferred = True
                return
            self._close_deferred = False
            self._release_shared_locked()

    @contextmanager
    def _parallel_guard(self) -> Iterator[None]:
        """Held around each parallel dispatch; makes close() defer.

        When the last dispatch drains, superseded epochs' segments are
        released too — a mutation that raced a parallel fan-out leaves
        no stale segment behind.
        """
        with self._shared_lock:
            self._inflight_parallel += 1
        try:
            yield
        finally:
            with self._shared_lock:
                self._inflight_parallel -= 1
                if self._inflight_parallel == 0:
                    if self._close_deferred:
                        self._close_deferred = False
                        self._release_shared_locked()
                    elif self.dynamic is not None:
                        self._release_shared_locked(keep=self._resident[0])

    def _parallel_context(
        self,
        n_workers: Optional[int],
        epoch: Optional[int] = None,
        data: Optional[Graph] = None,
    ) -> Optional[ParallelContext]:
        effective = resolve_workers(
            self.n_workers if n_workers is None else n_workers
        )
        if effective <= 0:
            return None
        if data is None:
            epoch, data = self._resident
        return ParallelContext(
            effective,
            lambda: self._shared_handle_for(epoch, data),
            guard=self._parallel_guard,
        )

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    @staticmethod
    def _algorithm_key(algorithm: AlgorithmLike):
        # Specs are frozen dataclasses (hashable by field identity);
        # names are strings. Either is a sound cache-key component.
        return algorithm if isinstance(algorithm, (str, AlgorithmSpec)) else repr(algorithm)

    @staticmethod
    def _kernel_key(kernel: Optional[KernelLike]):
        if kernel is None or isinstance(kernel, str):
            return kernel
        if isinstance(kernel, KernelBackend):
            # A concrete backend instance is its own policy.
            return id(kernel)
        return repr(kernel)

    def compile(
        self,
        query: Graph,
        algorithm: Optional[AlgorithmLike] = None,
        kernel: Optional[KernelLike] = None,
    ) -> Tuple[MatchPlan, bool]:
        """Resolve (or fetch) the plan for ``query``; returns (plan, hit).

        The cache key is ``(algorithm, kernel policy, graph epoch,
        fingerprint)`` — order-invariant in the query, so
        isomorphic renumberings share a slot; keyed by epoch, so a
        mutation invalidates exactly the stale entries (static sessions
        sit at epoch 0 forever).
        """
        epoch, data = self._resident
        return self._compile_on(epoch, data, query, algorithm, kernel)

    def _compile_on(
        self,
        epoch: int,
        data: Graph,
        query: Graph,
        algorithm: Optional[AlgorithmLike],
        kernel: Optional[KernelLike],
    ) -> Tuple[MatchPlan, bool]:
        algo = self.algorithm if algorithm is None else algorithm
        kern = self.kernel if kernel is None else kernel
        fingerprint = query_fingerprint(query)
        key = (
            self._algorithm_key(algo),
            self._kernel_key(kern),
            epoch,
            fingerprint,
        )
        plan = self._plans.get(key)
        if plan is not None:
            return plan, True
        plan = compile_plan(
            algo,
            query,
            data,
            kernel=kern,
            fingerprint=fingerprint,
        )
        self._plans.put(key, plan)
        return plan, False

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def match(
        self,
        query: Graph,
        algorithm: Optional[AlgorithmLike] = None,
        match_limit: Optional[int] = 100_000,
        time_limit: Optional[float] = None,
        store_limit: int = 10_000,
        validate: bool = True,
        kernel: Optional[KernelLike] = None,
        cancel: Optional[Callable[[], bool]] = None,
        n_workers: Optional[int] = None,
    ) -> MatchResult:
        """Find matches of ``query`` in this session's data graph.

        Same contract as :func:`repro.core.api.match`, minus the ``data``
        argument (the session owns it) — plus the session's caches:
        a repeated query (exact or renumbered) reuses its compiled plan,
        and an exactly repeated query skips preprocessing outright.
        ``cancel`` is polled by the enumeration engine between leaf
        batches; once it returns True the run stops as unsolved (the
        serving tier's preemption hook). ``n_workers`` overrides the
        session's intra-query parallelism for this call (``0`` forces
        sequential); results are identical either way.
        """
        if validate:
            validate_query(query)
        algo = self.algorithm if algorithm is None else algorithm
        kern = self.kernel if kernel is None else kernel

        # One atomic read pins this call to a single epoch's snapshot;
        # a concurrent mutate() swaps the pair but never this view.
        epoch, data = self._resident

        plan, plan_hit = self._compile_on(epoch, data, query, algo, kern)

        prep_enabled = self._prep.capacity != 0
        prep_key = None
        prepared = None
        if prep_enabled:
            # Exact-graph key: Graph hashes/compares its label and CSR
            # arrays, so only a byte-identical query reuses artifacts —
            # and only at the same graph epoch (cache hit iff the graph
            # is unchanged).
            prep_key = (
                self._algorithm_key(algo),
                self._kernel_key(kern),
                epoch,
                query,
            )
            prepared = self._prep.get(prep_key)
        prep_hit = prepared is not None

        # Order racing (see the class docstring): race after answering,
        # or run the winner on a count-only hit under the raced cap.
        race = None
        if prep_hit and store_limit == 0 and algo == "recommended":
            winner = prepared.raced
            if winner is None:
                race = None if time_limit else prepared
            elif winner.match_limit == match_limit:
                plan, prepared = winner.plan, winner.prepared

        metrics = Metrics()
        if self.record_cache_metrics:
            metrics.add("plan.cache_hit", int(plan_hit))
            metrics.add("plan.cache_miss", int(not plan_hit))
            if prep_enabled:
                metrics.add("plan.prep_hit", int(prep_hit))
                metrics.add("plan.prep_miss", int(not prep_hit))
        if self.dynamic is not None:
            # Stamp which epoch answered: the snapshot-isolation witness
            # the serving tier (and its stress suite) reads back.
            metrics.add("session.data_epoch", epoch)

        result, prepared = run_plan(
            plan,
            query,
            data,
            prepared=prepared,
            match_limit=match_limit,
            time_limit=time_limit,
            store_limit=store_limit,
            metrics=metrics,
            cancel=cancel,
            parallel=self._parallel_context(n_workers, epoch, data),
        )
        if prep_enabled and not prep_hit:
            self._prep.put(prep_key, prepared)
        raced = None
        if race is not None and result.solved:
            raced = race_orders(
                plan,
                query,
                data,
                race,
                result.stats.recursion_calls,
                result.num_matches,
                match_limit=match_limit,
                cancel=cancel,
            )
            if raced is not None:
                self._prep.put(prep_key, raced)

        with self._metrics_lock:
            self.metrics.add("session.queries")
            self.metrics.add("session.plan_cache_hits", int(plan_hit))
            self.metrics.add("session.plan_cache_misses", int(not plan_hit))
            if prep_enabled:
                self.metrics.add("session.prep_cache_hits", int(prep_hit))
                self.metrics.add("session.prep_cache_misses", int(not prep_hit))
            if raced is not None:
                winner = raced.raced
                self.metrics.add("session.races")
                self.metrics.add(
                    "session.race_switches",
                    int(winner.prepared is not race),
                )
                self.metrics.add("session.race_calls", winner.race_calls)
        return result

    def match_many(
        self,
        queries: Iterable[Graph],
        algorithm: Optional[AlgorithmLike] = None,
        match_limit: Optional[int] = 100_000,
        time_limit: Optional[float] = None,
        store_limit: int = 10_000,
        validate: bool = True,
        kernel: Optional[KernelLike] = None,
        cancel: Optional[Callable[[], bool]] = None,
        n_workers: Optional[int] = None,
    ) -> List[MatchResult]:
        """Batch :meth:`match` over ``queries`` (results in input order).

        This is the repeated-query throughput path: every duplicate
        pattern after the first reuses its plan, and exact duplicates
        skip preprocessing entirely.
        """
        return [
            self.match(
                query,
                algorithm=algorithm,
                match_limit=match_limit,
                time_limit=time_limit,
                store_limit=store_limit,
                validate=validate,
                kernel=kernel,
                cancel=cancel,
                n_workers=n_workers,
            )
            for query in queries
        ]

    def count_matches(
        self,
        query: Graph,
        algorithm: Optional[AlgorithmLike] = None,
        match_limit: Optional[int] = None,
        time_limit: Optional[float] = None,
        store_limit: int = 0,
        validate: bool = True,
        kernel: Optional[KernelLike] = None,
        cancel: Optional[Callable[[], bool]] = None,
        n_workers: Optional[int] = None,
    ) -> int:
        """Number of matches (all of them by default); stores no embeddings.

        Delegates to :meth:`match`, so a per-call ``kernel`` override
        resolves — and is recorded on the underlying
        :class:`~repro.core.result.MatchResult` — exactly as it does for
        a direct :meth:`match` call (pinned by a regression test).
        """
        return self.match(
            query,
            algorithm=algorithm,
            match_limit=match_limit,
            time_limit=time_limit,
            store_limit=store_limit,
            validate=validate,
            kernel=kernel,
            cancel=cancel,
            n_workers=n_workers,
        ).num_matches

    def has_match(
        self,
        query: Graph,
        algorithm: Optional[AlgorithmLike] = None,
        time_limit: Optional[float] = None,
        validate: bool = True,
        kernel: Optional[KernelLike] = None,
        cancel: Optional[Callable[[], bool]] = None,
        n_workers: Optional[int] = None,
    ) -> bool:
        """Whether at least one match exists (stops at the first).

        Delegates to :meth:`match`; per-call overrides behave exactly as
        they do there (see :meth:`count_matches`).
        """
        return (
            self.match(
                query,
                algorithm=algorithm,
                match_limit=1,
                time_limit=time_limit,
                store_limit=0,
                validate=validate,
                kernel=kernel,
                cancel=cancel,
                n_workers=n_workers,
            ).num_matches
            > 0
        )

    # ------------------------------------------------------------------
    # Mutation and continuous queries (dynamic sessions)
    # ------------------------------------------------------------------

    def _require_dynamic(self) -> DynamicGraph:
        if self.dynamic is None:
            raise ConfigurationError(
                "this session serves an immutable graph; build it over a "
                "repro.dynamic.DynamicGraph to mutate or subscribe"
            )
        return self.dynamic

    def mutate(self, mutations: Iterable[MutationLike]) -> MutationOutcome:
        """Apply one mutation batch to the resident dynamic graph.

        Accepts :class:`~repro.dynamic.mutations.Mutation` objects or
        plain op tuples (``("add_edge", u, v)``, ``("remove_edge", u,
        v)``, ``("add_vertex", label)``). The batch is applied
        atomically: the graph epoch advances once, every standing
        :meth:`subscribe` query reports its exact embedding delta in the
        returned outcome, and the served snapshot swaps — in-flight
        matches keep the snapshot they captured, later matches see the
        new epoch, and the epoch-keyed plan/prep caches drop the
        superseded entries.
        """
        dynamic = self._require_dynamic()
        batch = [
            m if isinstance(m, Mutation) else Mutation.from_json(m)
            for m in mutations
        ]
        with self._mutate_lock:
            delta = dynamic.apply(batch)
            return self.ingest(delta)

    def ingest(self, delta: MutationDelta) -> MutationOutcome:
        """Fold an *externally applied* mutation delta into this session.

        :class:`~repro.serve.service.MatchService` applies one batch to
        a shared :class:`DynamicGraph` and fans the delta out to every
        tenant session built on it; everyone else wants :meth:`mutate`.
        Idempotent per delta: subscriptions skip deltas at or below
        their epoch, and the resident snapshot only advances.
        """
        dynamic = self._require_dynamic()
        with self._mutate_lock:
            updates = tuple(sub.on_delta(delta) for sub in self._subscriptions)
            if dynamic.epoch != self._resident[0]:
                self._resident = dynamic.versioned_snapshot()
                # Both caches key on the epoch and epochs only advance,
                # so every entry is now unreachable; drop them rather
                # than let them age out of the LRU. (An in-flight match
                # at the old epoch may re-insert one dead entry.)
                self.clear_caches()
                with self._shared_lock:
                    # Retire published segments of superseded epochs now
                    # if nothing is in flight; otherwise the last
                    # draining parallel guard sweeps them.
                    if self._inflight_parallel == 0 and not self._close_deferred:
                        self._release_shared_locked(keep=self._resident[0])
        with self._metrics_lock:
            self.metrics.add("session.mutations")
            self.metrics.add(
                "session.mutated_edges",
                len(delta.added_edges) + len(delta.removed_edges),
            )
            self.metrics.add(
                "session.mutated_vertices", len(delta.added_vertices)
            )
        return MutationOutcome(delta=delta, updates=updates)

    def subscribe(
        self,
        query: Graph,
        kernel: Optional[str] = None,
        match_limit: int = 100_000,
    ) -> Subscription:
        """Register ``query`` as a standing (continuous) query.

        The returned :class:`~repro.dynamic.subscribe.Subscription`
        holds the current embedding set; every subsequent
        :meth:`mutate` outcome carries its exact embedding delta.
        """
        dynamic = self._require_dynamic()
        if kernel is None and isinstance(self.kernel, str):
            kernel = self.kernel
        with self._mutate_lock:
            sub = Subscription(
                query, dynamic, kernel=kernel, match_limit=match_limit
            )
            self._subscriptions.append(sub)
        with self._metrics_lock:
            self.metrics.add("session.subscriptions")
        return sub

    def unsubscribe(self, subscription: Subscription) -> None:
        """Drop a standing query registered with :meth:`subscribe`."""
        with self._mutate_lock:
            self._subscriptions.remove(subscription)

    @property
    def subscriptions(self) -> Tuple[Subscription, ...]:
        """The standing queries, in registration order."""
        return tuple(self._subscriptions)

    # ------------------------------------------------------------------
    # Introspection / maintenance
    # ------------------------------------------------------------------

    def cache_info(self) -> dict:
        """Hit/miss/size/capacity for both caches."""
        return {"plan": self._plans.info(), "prep": self._prep.info()}

    def clear_caches(self) -> None:
        """Drop all cached plans and prepared queries (counters persist)."""
        self._plans.clear()
        self._prep.clear()

    def __repr__(self) -> str:
        served = self.metrics.counters.get("session.queries", 0)
        algo = (
            self.algorithm
            if isinstance(self.algorithm, str)
            else self.algorithm.name
        )
        return (
            f"MatchSession({self.data!r}, algorithm={algo!r}, queries={served})"
        )
