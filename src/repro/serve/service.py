"""Matching-as-a-service: the concurrent multi-tenant serving core.

The paper's study loop is one process running one query at a time; the
serving regime this repository grows toward is many tenants hammering a
few long-lived resident graphs. :class:`MatchService` is that tier,
built directly on the layers below it:

* **named resident graphs** — registered once, served forever (the
  Engram/mnemon shape: the graph is the database);
* **per-tenant session pools** — one thread-safe
  :class:`~repro.core.session.MatchSession` per ``(tenant, graph)``, so
  every tenant amortizes its own prepared-query cache without
  cross-tenant interference in cache occupancy;
* **admission control** — a bounded pending queue (`max_queue_depth`)
  that rejects with :class:`~repro.errors.QueueFullError` *immediately*
  instead of blocking (backpressure), and per-request budgets that
  reject spent requests with
  :class:`~repro.errors.DeadlineExceededError` before they enqueue;
* **deadline propagation** — a request's remaining budget at execution
  start becomes the engine's ``time_limit``, and a ``cancel`` hook
  polled between the frame machine's leaf batches aborts enumerations
  whose deadline (or whose server) died mid-flight;
* **request coalescing** — identical in-flight queries (same graph,
  config and *exact* query graph, so embeddings are byte-identical)
  share one execution: the first becomes the leader, later arrivals
  attach as waiters and all futures resolve from the single result;
* **observability** — ``serve.*`` counters and phase timings in the
  :mod:`repro.obs` currency, exposed via :attr:`MatchService.metrics`
  and :meth:`MatchService.stats`.

All time is read through an injectable :class:`~repro.serve.clock.Clock`
so the concurrency suite drives deadlines deterministically.

Usage::

    with MatchService(workers=4, max_queue_depth=64) as service:
        service.add_graph("social", data)
        future = service.submit(query, graph="social", tenant="alice",
                                budget=0.5)
        response = future.result()
        response.result.num_matches

Counter glossary (``service.metrics.counters``):

``serve.requests``              every submit attempt
``serve.admitted``              requests that entered the queue (incl. coalesced)
``serve.coalesced``             requests attached to an in-flight execution
``serve.executed``              actual session.match executions
``serve.completed``             responses delivered with a result
``serve.expired``               admitted requests whose deadline passed before
                                execution started (no enumeration ran)
``serve.unsolved``              executions stopped by deadline/cancel mid-flight
``serve.errors``                executions that raised
``serve.rejected_queue_full``   backpressure rejections at admission
``serve.rejected_deadline``     spent-budget rejections at admission
``serve.rejected_unknown_graph``/``serve.rejected_invalid``
                                admission rejections for bad requests (invalid
                                query, or an option of the wrong type or naming
                                no registered algorithm/kernel)
``serve.interned_hits``/``serve.interned_misses``/``serve.interned_skipped``
                                recorded by :class:`~repro.serve.server.MatchServer`:
                                wire queries answered from its table of decoded
                                queries, built and validated afresh, or too large
                                to be kept

``stats()`` adds, summed over the resident sessions, their order-race
counters (``session.races``, ``session.race_switches``,
``session.race_calls``; see :class:`~repro.core.session.MatchSession`).
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.core.plan import (
    DEFAULT_MATCH_LIMIT,
    DEFAULT_STORE_LIMIT,
    AlgorithmLike,
    MatchRequest,
    validate_query,
)
from repro.core.result import MatchResult
from repro.core.session import MatchSession
from repro.dynamic.mutations import Mutation
from repro.dynamic.overlay import DynamicGraph, MutationDelta
from repro.dynamic.subscribe import SubscriptionUpdate
from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    GraphFormatError,
    InvalidQueryError,
    QueueFullError,
    ServiceClosedError,
    UnknownGraphError,
)
from repro.graph.graph import Graph
from repro.graph.store import GraphSource, as_graph
from repro.obs import Metrics, span
from repro.serve.clock import Clock, SystemClock

__all__ = ["MatchService", "ServeResponse", "ServiceMutation"]


@dataclass(frozen=True)
class ServiceMutation:
    """One applied mutation batch on a resident dynamic graph."""

    graph: str
    #: The graph epoch after the batch.
    epoch: int
    delta: MutationDelta
    #: Per-tenant subscription deltas (tenants with standing queries on
    #: this graph at mutation time).
    updates: Dict[str, Tuple[SubscriptionUpdate, ...]] = field(
        default_factory=dict
    )


@dataclass
class ServeResponse:
    """One served request's outcome plus its service-side timings."""

    #: ``"ok"`` (result attached) or ``"expired"`` (deadline passed while
    #: queued; no enumeration ran for this request).
    status: str
    tenant: str
    graph: str
    #: True when this request rode another request's execution.
    coalesced: bool
    #: Admission → execution start, in service-clock seconds.
    queue_seconds: float
    #: Admission → response, in service-clock seconds.
    total_seconds: float
    result: Optional[MatchResult] = None
    #: The graph epoch the execution ran against (dynamic graphs only) —
    #: the snapshot-isolation witness: every embedding in ``result`` is
    #: valid against exactly this epoch's snapshot.
    epoch: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class _Waiter:
    """One admitted request: its future, deadline and timestamps."""

    __slots__ = ("future", "tenant", "admitted_at", "deadline", "expired", "coalesced")

    def __init__(
        self,
        tenant: str,
        admitted_at: float,
        deadline: Optional[float],
        coalesced: bool,
    ) -> None:
        self.future: "Future[ServeResponse]" = Future()
        self.tenant = tenant
        self.admitted_at = admitted_at
        self.deadline = deadline
        self.expired = False
        self.coalesced = coalesced

    def is_past(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline


@dataclass
class _Entry:
    """One execution: the leader's request plus every attached waiter."""

    key: Tuple
    query: Graph
    graph_name: str
    tenant: str
    request: MatchRequest
    waiters: List[_Waiter] = field(default_factory=list)
    #: Once True the entry left the in-flight map; no waiter may attach.
    closed: bool = False


def _check_options(graph: Any, tenant: Any, budget: Any) -> None:
    """Reject a request whose service options could only fail later.

    The server hands wire values through verbatim, so this is where a
    malformed ``graph``, ``tenant`` or ``budget`` becomes a
    :class:`~repro.errors.GraphFormatError`; the options that decide what
    a run computes are checked by :class:`~repro.core.plan.MatchRequest`.
    """
    for name, value in (("graph", graph), ("tenant", tenant)):
        if not isinstance(value, str):
            raise GraphFormatError(f"{name!r} must be a string, got {value!r}")
    if budget is not None and not isinstance(budget, (int, float)):
        raise GraphFormatError(f"budget must be null or a number, got {budget!r}")


class MatchService:
    """A thread-pool matching service over resident graphs and sessions.

    Parameters
    ----------
    workers:
        Executions that may run at once, on the executor's threads
        (:meth:`submit`) or their callers' (:meth:`match`). Under the GIL
        the win is latency overlap and coalescing, not parallel speedup.
    max_queue_depth:
        Maximum pending executions (queued + running). Admission beyond
        it raises :class:`~repro.errors.QueueFullError` immediately.
        Coalesced waiters piggyback on their leader's slot.
    default_budget:
        Budget in seconds applied to requests that bring none
        (``None`` = unbounded).
    coalesce:
        Share one execution among identical in-flight requests.
    algorithm:
        Service-wide default, overridable per request (as is the
        ``kernel``, which otherwise is the sessions' default).
    clock:
        Time source for admission and deadline bookkeeping (tests inject
        :class:`~repro.serve.clock.FakeClock`).
    n_workers:
        Intra-query parallelism forwarded to each tenant session (see
        :mod:`repro.parallel`): eligible big queries fan their
        enumeration out across this many worker *processes*, which is
        the real CPU scaling the GIL denies the thread pool. Request
        deadlines and shutdown cancellation propagate to the workers
        through a shared flag polled at the engine's leaf-batch stride.
        ``None`` defers to ``REPRO_WORKERS`` (absent → sequential).
    """

    def __init__(
        self,
        workers: int = 4,
        max_queue_depth: int = 64,
        default_budget: Optional[float] = None,
        coalesce: bool = True,
        algorithm: AlgorithmLike = "recommended",
        clock: Optional[Clock] = None,
        n_workers: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        self.max_queue_depth = max_queue_depth
        self.default_budget = default_budget
        self.coalesce = coalesce
        self.algorithm = algorithm
        self.clock = clock if clock is not None else SystemClock()
        self.n_workers = n_workers

        self._graphs: Dict[str, Graph] = {}
        # Serializes mutation batches per dynamic graph (apply + fan-out
        # to tenant sessions must not interleave between two mutates).
        self._mutation_locks: Dict[str, threading.Lock] = {}
        self._sessions: Dict[Tuple[str, str], MatchSession] = {}
        self._inflight: Dict[Tuple, _Entry] = {}
        self._pending = 0
        self._callers = 0  # threads inside match(), resolved-not-yet-returned too
        self.queue_depth_peak = 0
        self._closed = False
        self._cancel_event = threading.Event()
        self._lock = threading.Lock()

        self.metrics = Metrics()
        self._metrics_lock = threading.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        # The `workers` bound: held for the length of _run by whoever runs
        # it, a pool thread (submit) or the caller itself (match).
        self._slots = threading.BoundedSemaphore(workers)

    # ------------------------------------------------------------------
    # Resident graphs and sessions
    # ------------------------------------------------------------------

    def add_graph(
        self, name: str, graph: "GraphSource", dynamic: bool = False
    ) -> None:
        """Register a resident graph under ``name``.

        Accepts a :class:`~repro.graph.graph.Graph`, any
        :class:`~repro.graph.store.GraphStore` backend, or a path to a
        ``.graph``/``.rgf`` file — an ``.rgf`` path opens memmap-backed,
        so a cold graph larger than RAM registers in O(header). A
        :class:`~repro.dynamic.overlay.DynamicGraph` (or any source with
        ``dynamic=True``, which wraps it in one) registers as *mutable*:
        :meth:`mutate` accepts batches for it, and every response
        carries the epoch its execution ran against.
        """
        if not name:
            raise ValueError("graph name must be non-empty")
        if isinstance(graph, DynamicGraph):
            resolved: "GraphSource" = graph
        else:
            resolved = as_graph(graph)
            if dynamic:
                resolved = DynamicGraph(resolved)
        with self._lock:
            self._graphs[name] = resolved
            if isinstance(resolved, DynamicGraph):
                self._mutation_locks.setdefault(name, threading.Lock())

    def remove_graph(self, name: str) -> None:
        """Drop a resident graph and every session built on it."""
        with self._lock:
            self._graphs.pop(name, None)
            self._mutation_locks.pop(name, None)
            for key in [k for k in self._sessions if k[1] == name]:
                del self._sessions[key]

    def graphs(self) -> List[str]:
        """Names of the resident graphs, sorted."""
        with self._lock:
            return sorted(self._graphs)

    def session_for(self, tenant: str, graph_name: str) -> MatchSession:
        """The (created-on-demand) session serving one tenant on one graph."""
        with self._lock:
            try:
                return self._sessions[(tenant, graph_name)]
            except KeyError:
                pass
            try:
                data = self._graphs[graph_name]
            except KeyError:
                raise UnknownGraphError(
                    f"no resident graph named {graph_name!r}"
                ) from None
            session = MatchSession(
                data, algorithm=self.algorithm, n_workers=self.n_workers
            )
            self._sessions[(tenant, graph_name)] = session
            return session

    # ------------------------------------------------------------------
    # Mutation (dynamic resident graphs)
    # ------------------------------------------------------------------

    def mutate(self, graph: str, mutations) -> ServiceMutation:
        """Apply one mutation batch to a dynamic resident graph.

        Epoch-versioned reads: the batch advances the graph epoch once
        and swaps every tenant session's served snapshot; in-flight
        matches keep the immutable snapshot they captured at execution
        start, so each response's embeddings are consistent with exactly
        one epoch (reported on :attr:`ServeResponse.epoch`). Standing
        queries (:meth:`MatchSession.subscribe`) report their embedding
        deltas in the returned :class:`ServiceMutation`.

        ``mutations`` is a sequence of
        :class:`~repro.dynamic.mutations.Mutation` objects or plain op
        tuples (``("add_edge", u, v)`` …).
        """
        self.count("serve.mutations")
        if self._closed:
            raise ServiceClosedError("service is shut down")
        with self._lock:
            target = self._graphs.get(graph)
            if target is None:
                self.count("serve.rejected_unknown_graph")
                raise UnknownGraphError(f"no resident graph named {graph!r}")
            if not isinstance(target, DynamicGraph):
                self.count("serve.rejected_invalid")
                raise ConfigurationError(
                    f"resident graph {graph!r} is immutable; register it "
                    "with add_graph(..., dynamic=True) to mutate"
                )
            mutation_lock = self._mutation_locks[graph]
        batch = [
            m if isinstance(m, Mutation) else Mutation.from_json(m)
            for m in mutations
        ]
        with mutation_lock:
            # Sessions created after this point start on the post-batch
            # snapshot and skip the fan-out delta via their epoch guard.
            with self._lock:
                sessions = {
                    t: s for (t, g), s in self._sessions.items() if g == graph
                }
            delta = target.apply(batch)
            updates = {
                tenant: session.ingest(delta).updates
                for tenant, session in sessions.items()
            }
        self.count(
            "serve.mutated_edges",
            len(delta.added_edges) + len(delta.removed_edges),
        )
        self.count("serve.mutated_vertices", len(delta.added_vertices))
        return ServiceMutation(
            graph=graph,
            epoch=target.epoch,
            delta=delta,
            updates={t: u for t, u in updates.items() if u},
        )

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        """Bump one ``serve.*`` counter (thread-safe; the server front-end
        records what it decides before :meth:`submit` here too)."""
        with self._metrics_lock:
            self.metrics.add(name, amount)

    def _record_phase(self, phase: str, seconds: float) -> None:
        with self._metrics_lock:
            self.metrics.record_phase(phase, seconds)

    def _admit(
        self,
        query: Graph,
        graph: str = "default",
        tenant: str = "public",
        algorithm: Optional[AlgorithmLike] = None,
        kernel: Optional[str] = None,
        match_limit: Optional[int] = DEFAULT_MATCH_LIMIT,
        store_limit: int = DEFAULT_STORE_LIMIT,
        budget: Optional[float] = None,
        validate: bool = True,
    ) -> Tuple[_Waiter, Optional[_Entry]]:
        """Admission for :meth:`submit` and :meth:`match`, whose options
        and defaults these are: the request's waiter plus, when it leads
        an execution instead of riding one, the entry its caller must run.
        """
        self.count("serve.requests")
        if self._closed:
            raise ServiceClosedError("service is shut down")
        try:
            if validate:
                validate_query(query)
            _check_options(graph, tenant, budget)
            request = MatchRequest(
                self.algorithm if algorithm is None else algorithm,
                kernel,
                match_limit,
                None,
                store_limit,
                self.n_workers,
            )
        except (InvalidQueryError, GraphFormatError, ConfigurationError):
            self.count("serve.rejected_invalid")
            raise
        effective_budget = (
            self.default_budget if budget is None else budget
        )
        if effective_budget is not None and effective_budget <= 0:
            self.count("serve.rejected_deadline")
            raise DeadlineExceededError(
                f"request budget {effective_budget!r}s is already spent"
            )
        now = self.clock.now()
        deadline = (
            now + effective_budget if effective_budget is not None else None
        )

        with self._lock:
            if self._closed:
                raise ServiceClosedError("service is shut down")
            target = self._graphs.get(graph)
            if target is None:
                self.count("serve.rejected_unknown_graph")
                raise UnknownGraphError(f"no resident graph named {graph!r}")
            # Exact-graph keying (Graph hashes its label and CSR arrays):
            # fingerprint-equal renumberings have *different* embeddings,
            # so only byte-identical queries may share an execution. A
            # dynamic graph also keys on its epoch at admission — a request
            # admitted after a mutation must not ride an execution
            # answering from the pre-mutation snapshot.
            epoch = target.epoch if isinstance(target, DynamicGraph) else 0
            key = (graph, epoch, request.key, match_limit, store_limit, query)
            entry = self._inflight.get(key) if self.coalesce else None
            if entry is not None and not entry.closed:
                waiter = _Waiter(tenant, now, deadline, coalesced=True)
                entry.waiters.append(waiter)
                self.count("serve.admitted")
                self.count("serve.coalesced")
                return waiter, None
            if self._pending >= self.max_queue_depth:
                self.count("serve.rejected_queue_full")
                raise QueueFullError(
                    f"pending queue is full ({self.max_queue_depth}); "
                    "retry later"
                )
            self._pending += 1
            if self._pending > self.queue_depth_peak:
                self.queue_depth_peak = self._pending
            waiter = _Waiter(tenant, now, deadline, coalesced=False)
            entry = _Entry(
                key=key,
                query=query,
                graph_name=graph,
                tenant=tenant,
                request=request,
                waiters=[waiter],
            )
            if self.coalesce:
                self._inflight[key] = entry
            self.count("serve.admitted")
        return waiter, entry

    def submit(self, query: Graph, **options: Any) -> "Future[ServeResponse]":
        """Admit one request; returns a future resolving to its response.

        Options, all by keyword: ``graph="default"``, ``tenant="public"``,
        ``algorithm`` (``None`` = the service's) / ``kernel`` (``None`` =
        the session's default), ``match_limit`` and ``store_limit``
        (:class:`~repro.core.plan.MatchRequest`'s defaults), ``budget``
        (seconds; ``None`` = the service's default) and ``validate``.
        Rejections raise synchronously — :class:`UnknownGraphError`,
        :class:`InvalidQueryError`, :class:`GraphFormatError` /
        :class:`ConfigurationError` (an option of the wrong type, or
        naming no registered algorithm or kernel),
        :class:`DeadlineExceededError` (spent budget),
        :class:`QueueFullError` (backpressure) — so a rejected request
        never occupies a queue slot and never reaches an engine.
        ``validate=False`` is for a caller that holds a query object it
        has already seen pass (the server's interned queries).
        """
        waiter, entry = self._admit(query, **options)
        if entry is not None:
            try:
                self._executor.submit(self._run, entry)
            except RuntimeError:
                # Executor shut down between the check and the submit.
                self._close_entry(entry)
                raise ServiceClosedError("service is shut down") from None
        return waiter.future

    def match(self, query: Graph, **options: Any) -> ServeResponse:
        """Synchronous :meth:`submit`: same options, admission and rejections.

        A caller alone in here runs the execution it leads on its own
        thread: it was going to block on the result anyway, so the pool
        hand-off and the wake-up back buy nothing. With other callers
        inside, the execution goes to the pool as ``submit``'s does — the
        hand-off is the window in which duplicates arriving together find
        one entry to attach to, which a caller that began enumerating at
        once, holding the interpreter lock, would not leave them.
        """
        with self._lock:
            self._callers += 1
            alone = self._callers == 1
        try:
            if not alone:
                return self.submit(query, **options).result()
            waiter, entry = self._admit(query, **options)
            if entry is not None:
                self._run(entry)
            return waiter.future.result()
        finally:
            with self._lock:
                self._callers -= 1

    # ------------------------------------------------------------------
    # Execution (pool threads and match() callers)
    # ------------------------------------------------------------------

    def _close_entry(self, entry: _Entry) -> None:
        """Detach the entry and free its queue slot, exactly once.

        Must run *before* any waiter future resolves: a caller that sees
        its result and immediately resubmits must find the slot free, or
        a drained queue would still bounce requests with QueueFullError.
        """
        with self._lock:
            self._inflight.pop(entry.key, None)
            if not entry.closed:
                entry.closed = True
                self._pending -= 1

    def _run(self, entry: _Entry) -> None:
        try:
            with self._slots:  # queued until one of `workers` slots frees
                self._execute(entry)
        finally:
            self._close_entry(entry)  # idempotent leak guard

    def _execute(self, entry: _Entry) -> None:
        clock = self.clock
        started = clock.now()
        with self._lock:
            live = [w for w in entry.waiters if not w.is_past(started)]
            for w in entry.waiters:
                if w not in live:
                    w.expired = True
            if not live:
                # Every waiter's deadline passed while queued: close
                # the entry under the lock (so nobody attaches to a
                # skipped execution) and run nothing at all.
                self._inflight.pop(entry.key, None)
        if not live:
            self._close_entry(entry)
            self._resolve(entry, started, result=None, error=None)
            return

        # The most generous live deadline drives the execution: every
        # live waiter shares this one run.
        request = entry.request
        if any(w.deadline is None for w in live):
            exec_deadline = None
        else:
            exec_deadline = max(w.deadline for w in live)
            request = replace(request, time_limit=max(exec_deadline - started, 1e-6))

        def cancelled() -> bool:
            # Polled by the engine between leaf batches: stop when the
            # service shuts down or the service-clock deadline passes
            # (the wall-clock time_limit is the belt to this brace).
            if self._cancel_event.is_set():
                return True
            return (
                exec_deadline is not None
                and clock.now() >= exec_deadline
            )

        result: Optional[MatchResult] = None
        error: Optional[BaseException] = None
        try:
            session = self.session_for(entry.tenant, entry.graph_name)
            with span(
                "serve.execute",
                graph=entry.graph_name,
                tenant=entry.tenant,
            ):
                # Query and options were checked at admission.
                result = session._execute(entry.query, request, cancelled, False)
            self.count("serve.executed")
            if not result.solved:
                self.count("serve.unsolved")
        except BaseException as exc:  # delivered via the futures
            error = exc
            self.count("serve.errors")
        finally:
            self._close_entry(entry)
        self._record_phase("serve.queue", started - entry.waiters[0].admitted_at)
        self._resolve(entry, started, result=result, error=error)

    def _resolve(
        self,
        entry: _Entry,
        started: float,
        result: Optional[MatchResult],
        error: Optional[BaseException],
    ) -> None:
        """Fan the outcome out to every waiter (entry is closed by now)."""
        end = self.clock.now()
        epoch = None
        if result is not None:
            self._record_phase("serve.execute", end - started)
            # The session stamps the epoch its snapshot answered from
            # (dynamic graphs only) — surface it as the response's
            # snapshot-isolation witness.
            epoch = result.metrics.counters.get("session.data_epoch")
        for waiter in entry.waiters:
            if error is not None:
                waiter.future.set_exception(error)
                continue
            ok = result is not None and not waiter.expired
            self.count("serve.completed" if ok else "serve.expired")
            waiter.future.set_result(
                ServeResponse(
                    status="ok" if ok else "expired",
                    tenant=waiter.tenant,
                    graph=entry.graph_name,
                    coalesced=waiter.coalesced,
                    queue_seconds=started - waiter.admitted_at,
                    total_seconds=end - waiter.admitted_at,
                    result=result if ok else None,
                    epoch=epoch if ok else None,
                )
            )

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """A point-in-time snapshot: counters, queue depth, residents."""
        with self._lock:
            graphs = sorted(self._graphs)
            sessions = list(self._sessions.values())
            pending = self._pending
            inflight = len(self._inflight)
            peak = self.queue_depth_peak
        with self._metrics_lock:
            counters = dict(self.metrics.counters)
            phases = dict(self.metrics.phase_seconds)
        for session in sessions:
            for name, value in dict(session.metrics.counters).items():
                if name.startswith("session.race"):
                    counters[name] = counters.get(name, 0) + value
        return {
            "graphs": graphs,
            "sessions": len(sessions),
            "pending": pending,
            "inflight": inflight,
            "queue_depth_peak": peak,
            "counters": counters,
            "phase_seconds": phases,
        }

    def close(self, wait: bool = True, cancel_inflight: bool = False) -> None:
        """Stop admitting; optionally preempt running enumerations.

        ``cancel_inflight=True`` trips the engine's cancel hook so
        long-running enumerations stop at their next leaf-batch boundary
        (their waiters see ``solved=False`` partial results).
        """
        self._closed = True
        if cancel_inflight:
            self._cancel_event.set()
        self._executor.shutdown(wait=wait)
        # Release each session's shared-memory published graph (no-op for
        # sessions that never ran a parallel match).
        with self._lock:
            sessions = list(self._sessions.values())
        for session in sessions:
            session.close()

    def __enter__(self) -> "MatchService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        with self._lock:
            graphs = len(self._graphs)
            pending = self._pending
        return f"MatchService(graphs={graphs}, pending={pending})"
