"""Query compilation: the immutable MatchPlan and its executor.

The paper's evaluation shape — and the production shape this repository
grows toward — is *many queries against one resident data graph*. That
split is made explicit here:

* :func:`compile_plan` resolves everything about a ``(algorithm, query,
  data)`` triple that does **not** depend on the query's vertex
  numbering: the algorithm spec, the kernel policy and the aux-scope
  policy. The result is an immutable :class:`MatchPlan`, cacheable by the
  order-invariant query fingerprint
  (:func:`repro.graph.fingerprint.query_fingerprint`).
* :func:`run_plan` executes a plan: filtering, auxiliary structure,
  ordering, kernel resolution, enumeration — the full Algorithm 1
  pipeline. The per-query artifacts it builds (candidates, auxiliary
  adjacency, matching order, the resolved kernel with its encode caches)
  come back as a :class:`PreparedQuery`, which a
  :class:`~repro.core.session.MatchSession` may hand back on a later call
  with the *identical* query to skip the whole preprocessing phase.
* :func:`race_orders` runs the :data:`RACERS` configurations count-only
  over a prepared query's candidates, each stopped once it passes the
  fewest search calls so far, and returns the prepared query with the
  winner attached (:attr:`PreparedQuery.raced`).

Cache-soundness contract: a plan's contents may only depend on
fingerprint-stable query features (``num_vertices``, ``num_edges``,
label/degree structure) plus the data graph — two queries with equal
fingerprints must compile to equal plans. A ``PreparedQuery`` is bound to
the exact query graph (vertex numbering included) and is only reusable
under exact :class:`~repro.graph.graph.Graph` equality.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import partial
from typing import (
    Any,
    Callable,
    Hashable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

from repro.core.algorithms import resolve
from repro.core.registry import ORDERINGS
from repro.core.result import MatchResult
from repro.core.spec import AlgorithmSpec
from repro.enumeration.frames import FrameMachine
from repro.enumeration.local_candidates import IntersectionLC
from repro.enumeration.support import DEADLINE_STRIDE
from repro.errors import InvalidQueryError
from repro.filtering.auxiliary import AuxiliaryStructure
from repro.graph.fingerprint import query_fingerprint
from repro.graph.graph import Graph
from repro.graph.ops import connected
from repro.obs import Metrics, collecting, span
from repro.ordering.dpiso import DPisoOrdering
from repro.utils.kernels import KernelLike, get_kernel
from repro.utils.timer import Timer

__all__ = [
    "MatchPlan",
    "PreparedQuery",
    "LRUCache",
    "compile_plan",
    "prepare_query",
    "bind_enumeration",
    "race_orders",
    "RACERS",
    "RaceWinner",
    "iter_leaf_batches",
    "run_plan",
    "validate_query",
]

AlgorithmLike = Union[str, AlgorithmSpec]


def validate_query(query: Graph) -> None:
    """The paper's query preconditions: connected, at least 3 vertices."""
    if query.num_vertices < 3:
        raise InvalidQueryError(
            "queries must have at least 3 vertices (single vertices and "
            "edges are trivial; see the paper's problem definition)"
        )
    if not connected(query):
        raise InvalidQueryError("query graphs must be connected")


@dataclass(frozen=True)
class MatchPlan:
    """A compiled query: resolved spec + kernel policy + aux-scope policy.

    Immutable and reusable across any query sharing the fingerprint; the
    per-query artifacts (candidates, order, …) live in
    :class:`PreparedQuery` instead.
    """

    #: The fully resolved algorithm composition.
    algorithm: AlgorithmSpec
    #: Order-invariant fingerprint of the query the plan was compiled for.
    fingerprint: str
    #: The kernel request this plan was compiled under (name, backend
    #: instance or ``None`` for the env/auto default) — resolution to a
    #: concrete backend happens per prepared query, where candidate
    #: density is known.
    kernel_policy: Optional[KernelLike]
    #: Which query edges the auxiliary structure will materialize.
    aux_scope: str
    query_vertices: int
    query_edges: int

    def __repr__(self) -> str:
        return (
            f"MatchPlan({self.algorithm.name}, {self.fingerprint}, "
            f"aux={self.aux_scope!r})"
        )


@dataclass
class PreparedQuery:
    """Per-query preprocessing artifacts, reusable for the exact query.

    Enumeration changes nothing here but the holes of row tables and
    the translation tables of an adaptive order, each filled once with
    the value the candidates determine, so one ``PreparedQuery`` can
    serve any number of runs, from any number of threads. ``lc`` is the
    ComputeLC method *bound* to these artifacts
    (:meth:`~repro.enumeration.local_candidates.LocalCandidateMethod.bind`):
    it carries the static order's per-depth tables — the universes and
    translation tables every frame indexes and, for Algorithm 5 on
    bitmap rows, the row tables the frame machine ANDs. The
    resolved kernel instance rides along inside it: identity-keyed encode
    caches (bitset/QFilter layouts over the auxiliary arrays) stay warm
    across repeats — the "build the index once" amortization of CNI-style
    data-side indexing.

    ``raced`` is ``None`` until :func:`race_orders` has run on these
    artifacts; it then holds the winning configuration, which a session
    runs for later count-only requests. A race never changes this object:
    it returns a copy with ``raced`` set, which replaces it in the cache.
    """

    candidates: Any = None
    tree: Any = None
    auxiliary: Optional[AuxiliaryStructure] = None
    order: Optional[List[int]] = None
    adaptive_state: Any = None
    lc: Any = None
    kernel_used: Optional[str] = None
    preprocessing_seconds: float = 0.0
    raced: Optional["RaceWinner"] = None


class RaceWinner(NamedTuple):
    """The configuration :func:`race_orders` chose for one prepared query.

    ``plan`` is the raced plan with its spec's ordering and failing sets
    swapped for the winner's (name unchanged); ``prepared`` holds the
    winner's order and bound ComputeLC over the raced query's candidates.
    ``match_limit`` is the cap the race ran under: fewest calls under one
    cap says nothing about another, so only requests with that cap run it.
    """

    ordering: str
    failing_sets: bool
    match_limit: Optional[int]
    plan: MatchPlan
    prepared: PreparedQuery
    #: ``recursion_calls`` of the winner's run, and of the whole race.
    calls: int
    race_calls: int


class LRUCache:
    """A tiny thread-safe LRU map with hit/miss counters.

    ``capacity=None`` means unbounded; ``capacity=0`` disables the cache
    entirely (every :meth:`get` is a miss and :meth:`put` is a no-op).

    Every operation holds an internal lock: the serving tier shares one
    :class:`~repro.core.session.MatchSession` (and therefore one plan and
    one prep cache) across a worker pool, and the unguarded
    ``hits``/``misses`` read-modify-write plus the ``move_to_end`` /
    eviction reordering are exactly the races the concurrency stress
    suite surfaced. Concurrent misses on one key may both compute and
    both :meth:`put`; the entries are equal by construction, so last
    write wins harmlessly.
    """

    def __init__(self, capacity: Optional[int] = 128) -> None:
        if capacity is not None and capacity < 0:
            raise ValueError("cache capacity must be >= 0 (or None)")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Optional[Any]:
        with self._lock:
            if self.capacity == 0:
                self.misses += 1
                return None
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            if self.capacity == 0:
                return
            self._entries[key] = value
            self._entries.move_to_end(key)
            if self.capacity is not None:
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def info(self) -> dict:
        """Counters + occupancy, in the shape ``cache_info`` reports."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "size": len(self._entries),
                "capacity": self.capacity,
            }


def compile_plan(
    algorithm: AlgorithmLike,
    query: Graph,
    data: Graph,
    kernel: Optional[KernelLike] = None,
    fingerprint: Optional[str] = None,
) -> MatchPlan:
    """Compile ``(algorithm, query, data)`` into an immutable plan.

    ``fingerprint`` may be passed in when the caller already computed it
    for a cache probe. Only fingerprint-stable query features are
    consulted (``"recommended"`` resolves on ``num_vertices`` and data
    density), which is the invariant that makes fingerprint-keyed plan
    caching sound.
    """
    spec = resolve(algorithm, query, data)
    return MatchPlan(
        algorithm=spec,
        fingerprint=fingerprint or query_fingerprint(query),
        kernel_policy=kernel,
        aux_scope=spec.aux_scope,
        query_vertices=query.num_vertices,
        query_edges=query.num_edges,
    )


def prepare_query(
    plan: MatchPlan,
    query: Graph,
    data: Graph,
    metrics: Metrics,
) -> PreparedQuery:
    """Run the preprocessing phases of ``plan`` for one concrete query.

    Filtering, ordering, and :func:`bind_enumeration` (accounted to the
    ``filter`` phase, like the auxiliary structure it materializes always
    was) — everything Algorithm 1 does before enumeration. The caller
    owns metrics installation; phase timings are recorded on ``metrics``
    exactly as the one-shot pipeline always did.
    """
    spec = plan.algorithm
    with Timer() as prep_timer:
        with span(
            "filter", filter=spec.filter.name if spec.filter else None
        ), Timer() as filter_timer:
            candidates = spec.filter.run(query, data) if spec.filter else None
            tree = None
            if spec.aux_scope == "tree":
                assert spec.tree_source is not None, "tree scope requires tree_source"
                tree = spec.tree_source(query, data)
        metrics.record_phase("filter", filter_timer.elapsed)

        with span("order", ordering=spec.ordering.name), Timer() as order_timer:
            adaptive_state = None
            order = None
            if spec.adaptive:
                assert candidates is not None, "adaptive mode needs candidates"
                assert isinstance(spec.ordering, DPisoOrdering)
                adaptive_state = spec.ordering.adaptive_state(
                    query, data, candidates
                )
            else:
                order = spec.ordering.order(query, data, candidates)
        metrics.record_phase("order", order_timer.elapsed)

        with span("filter.auxiliary", scope=spec.aux_scope), Timer() as aux_timer:
            prepared = bind_enumeration(
                spec.lc,
                spec.aux_scope,
                plan.kernel_policy,
                query,
                data,
                candidates,
                order=order,
                adaptive_state=adaptive_state,
                tree=tree,
            )
        metrics.record_phase("filter", aux_timer.elapsed)
    prepared.preprocessing_seconds = prep_timer.elapsed
    return prepared


def bind_enumeration(
    lc: Any,
    aux_scope: str,
    kernel: Optional[KernelLike],
    query: Graph,
    data: Graph,
    candidates: Any,
    order: Optional[List[int]] = None,
    adaptive_state: Any = None,
    tree: Any = None,
) -> PreparedQuery:
    """Everything between ``(candidates, order)`` and a runnable engine.

    Scopes the auxiliary structure, resolves the intersection backend for
    the Algorithm 5 hot path, and binds the ComputeLC method to the order
    — which binds exactly the auxiliary pairs enumeration reads, in the
    form it reads them (row tables for mask frames, arrays otherwise).
    The one place this wiring exists: :func:`prepare_query`
    feeds it a filter's and an ordering's output, continuous queries
    (:mod:`repro.dynamic.subscribe`) their maintained candidates and a
    pinned order.
    """
    auxiliary = None
    if aux_scope != "none":
        assert candidates is not None, "auxiliary structure needs candidates"
        auxiliary = AuxiliaryStructure.build(
            query, data, candidates, scope=aux_scope, tree=tree
        )
    # Algorithm 5 reads every query edge in its backward direction.
    backward_pairs = None
    if isinstance(lc, IntersectionLC) and aux_scope == "all":
        position = (
            adaptive_state.position
            if order is None
            else {u: i for i, u in enumerate(order)}
        )
        backward_pairs = [
            (w, u) if position[w] < position[u] else (u, w)
            for w, u in query.edges()
        ]
    # A spec constructed with an explicit kernel keeps it; the stock
    # default is swapped for the kernel policy (an explicit request, the
    # env var, or auto: bitmap rows when a static order can run on them
    # and they fit the byte budget). Either way the result names the
    # backend Algorithm 5 ran on.
    kernel_used = None
    if isinstance(lc, IntersectionLC):
        if kernel is not None or lc.uses_default_kernel:
            on_rows = backward_pairs is not None and order is not None
            with span("kernel.resolve"):
                backend = get_kernel(
                    kernel,
                    row_bytes=auxiliary.row_bytes(backward_pairs) if on_rows else None,
                )
            lc = IntersectionLC(kernel=backend)
        kernel_used = lc.kernel.name
    if order is not None:
        lc = lc.bind(
            query,
            data,
            candidates,
            auxiliary,
            order,
            tree.parent if tree is not None else None,
        )
    elif backward_pairs is not None:
        auxiliary.build_arrays(backward_pairs)  # the adaptive selector's reads
    return PreparedQuery(
        candidates=candidates,
        tree=tree,
        auxiliary=auxiliary,
        order=order,
        adaptive_state=adaptive_state,
        lc=lc,
        kernel_used=kernel_used,
    )


#: The configurations :func:`race_orders` tries, in tie-break order:
#: {GraphQL, RI, DP-iso, QuickSI} orderings × failing sets {off, on}.
RACERS: Tuple[Tuple[str, bool], ...] = tuple(
    (ordering, fs) for ordering in ("GQL", "RI", "DP", "QSI") for fs in (False, True)
)


def race_orders(
    plan: MatchPlan,
    query: Graph,
    data: Graph,
    prepared: PreparedQuery,
    calls: int,
    match_limit: Optional[int] = None,
    cancel: Optional[Callable[[], bool]] = None,
) -> Optional[PreparedQuery]:
    """Race every other :data:`RACERS` configuration against a solved run.

    ``prepared`` holds a static-order Algorithm 5 plan's artifacts and
    ``calls`` the ``recursion_calls`` its own run took under
    ``match_limit``. Each racer orders the same candidates, is bound
    under the plan's kernel policy — a racer whose order resolves another
    kernel (say, bitmap rows over the byte budget) sits the race out —
    and runs count-only through :func:`run_plan` under the same
    ``match_limit``. Its budget is the fewest calls seen so far, checked
    through the engine's ``cancel`` poll: every poll stands for at least
    :data:`~repro.enumeration.support.DEADLINE_STRIDE` more calls, so a
    racer is stopped once it cannot finish under the budget, less than a
    stride past it — plus, per poll, the rest of a leaf batch that
    crossed the stride. The race costs about ``7 × (calls + stride)``
    calls at most. The racer with strictly fewest calls wins; ties keep
    the earlier configuration, the incumbent first.

    Returns a copy of ``prepared`` whose :attr:`~PreparedQuery.raced` holds
    the winner, or ``None`` when ``cancel`` stopped the race, which then
    leaves nothing behind. Call counts are deterministic, so so is the
    winner. The race's counters go to sinks of its own, never to the
    caller's metrics.
    """
    spec = plan.algorithm
    incumbent = (spec.ordering.name, spec.failing_sets)
    best = RaceWinner(*incumbent, match_limit, plan, prepared, calls, 0)
    spent = tried = 0
    with span("plan.race", incumbent_calls=calls) as race_span, collecting(Metrics()):
        for name, fs in RACERS:
            if (name, fs) == incumbent:
                continue
            ordering = ORDERINGS.create(name)
            racer = bind_enumeration(
                spec.lc,
                spec.aux_scope,
                plan.kernel_policy,
                query,
                data,
                prepared.candidates,
                order=ordering.order(query, data, prepared.candidates),
            )
            if racer.kernel_used != prepared.kernel_used:
                continue
            racer_plan = replace(
                plan, algorithm=replace(spec, ordering=ordering, failing_sets=fs)
            )
            budget = best.calls
            polls = 0
            aborted = False

            def stop() -> bool:
                nonlocal polls, aborted
                if cancel is not None and cancel():
                    aborted = True
                    return True
                polls += 1
                return polls * DEADLINE_STRIDE >= budget

            result, _ = run_plan(
                racer_plan,
                query,
                data,
                prepared=racer,
                match_limit=match_limit,
                store_limit=0,
                cancel=stop,
            )
            tried += 1
            spent += result.stats.recursion_calls
            if aborted:
                return None
            if result.solved and result.stats.recursion_calls < budget:
                best = RaceWinner(
                    name,
                    fs,
                    match_limit,
                    racer_plan,
                    racer,
                    result.stats.recursion_calls,
                    0,
                )
        best = best._replace(race_calls=spent)
        race_span.annotate(
            racers=tried,
            ordering=best.ordering,
            failing_sets=best.failing_sets,
            winner_calls=best.calls,
            race_calls=spent,
        )
    return replace(prepared, raced=best)


def iter_leaf_batches(
    prepared: PreparedQuery,
    query: Graph,
    data: Graph,
    failing_sets: bool = False,
    match_limit: Optional[int] = None,
) -> Iterator[List[Tuple[int, ...]]]:
    """Lazily enumerate a prepared static-order query, one leaf batch (a
    list of plain-int tuples, one per match, indexed by query vertex) at a
    time — the frame machine's pause/resume protocol as a generator.
    ``match_limit`` stops the search after that many matches."""
    machine = FrameMachine(prepared.lc, use_failing_sets=failing_sets)
    machine.start(
        query,
        data,
        prepared.candidates,
        prepared.auxiliary,
        prepared.order,
        tree_parent=prepared.tree.parent if prepared.tree is not None else None,
        match_limit=match_limit,
        store_limit=0,
        emit_rows=True,
    )
    while True:
        rows = machine.advance()
        if rows is None:
            return
        yield rows


def _memory_bytes(prepared: PreparedQuery, data: Graph) -> int:
    # Section 5.6's footprint; holding `data` keeps the weakly held graph alive.
    parts = (prepared.candidates, prepared.auxiliary)
    return sum(part.memory_bytes for part in parts if part is not None)


def run_plan(
    plan: MatchPlan,
    query: Graph,
    data: Graph,
    prepared: Optional[PreparedQuery] = None,
    match_limit: Optional[int] = 100_000,
    time_limit: Optional[float] = None,
    store_limit: int = 10_000,
    metrics: Optional[Metrics] = None,
    cancel: Optional[Callable[[], bool]] = None,
    root_window: Optional[Tuple[int, int]] = None,
    parallel: Optional[Any] = None,
) -> Tuple[MatchResult, PreparedQuery]:
    """Execute a compiled plan on one query; returns (result, prepared).

    When ``prepared`` is given (a previous run's artifacts for the *exact*
    same query), the preprocessing phases are skipped entirely and only
    enumeration runs — the compile-once, run-many path. Otherwise the
    artifacts are built and returned for the caller to cache.

    ``cancel`` is an optional zero-argument callable polled by the engine
    at the same stride as the time budget; once it returns True the
    enumeration stops between leaf batches and the result reports
    ``solved=False``, exactly like a deadline expiry. The serving tier
    uses this to abort queries whose request deadline passed or whose
    server is shutting down.

    ``root_window=(lo, hi)`` restricts enumeration to a slice of the root
    frame's local candidates — the partition primitive
    :mod:`repro.parallel` workers run chunks with.

    ``parallel`` is an optional
    :class:`~repro.parallel.executor.ParallelContext`; when the plan is
    eligible (static order, materialized candidates), the enumeration
    phase is fanned out across its worker pool and the merged outcome —
    byte-identical to the sequential run — takes the place of the frame
    machine's ``run``. Everything around enumeration (preparation, spans,
    counters, result construction) is shared with the sequential path.
    """
    spec = plan.algorithm
    if metrics is None:
        metrics = Metrics()

    # The whole pipeline runs with `metrics` installed as the ambient
    # sink, so filters and orderings report counters without threading a
    # parameter through every signature; `span()` is a no-op unless the
    # caller installed a tracer (see repro.obs).
    with collecting(metrics), span("match", algorithm=spec.name):
        if prepared is None:
            prepared = prepare_query(plan, query, data, metrics)
            preprocessing_seconds = prepared.preprocessing_seconds
        else:
            preprocessing_seconds = 0.0

        use_parallel = (
            parallel is not None
            and root_window is None
            and parallel.eligible(prepared)
        )
        with span("enumerate", kernel=prepared.kernel_used) as enum_span:
            outcome = None
            if use_parallel:
                from repro.parallel.pool import ParallelUnavailable

                try:
                    outcome = parallel.execute(
                        plan,
                        query,
                        data,
                        prepared,
                        match_limit=match_limit,
                        time_limit=time_limit,
                        store_limit=store_limit,
                        cancel=cancel,
                        metrics=metrics,
                    )
                except ParallelUnavailable:
                    # Pool broken or saturated: the sequential engine is
                    # always available, and results are identical.
                    outcome = None
            if outcome is None:
                machine = FrameMachine(
                    prepared.lc,
                    use_failing_sets=spec.failing_sets,
                    adaptive=prepared.adaptive_state,
                )
                outcome = machine.run(
                    query,
                    data,
                    prepared.candidates,
                    prepared.auxiliary,
                    prepared.order,
                    tree_parent=(
                        prepared.tree.parent
                        if prepared.tree is not None
                        else None
                    ),
                    match_limit=match_limit,
                    time_limit=time_limit,
                    store_limit=store_limit,
                    cancel=cancel,
                    root_window=root_window,
                )
            enum_span.annotate(
                num_matches=outcome.num_matches, solved=outcome.solved
            )
        metrics.record_phase("enumerate", outcome.elapsed)
        metrics.record_enumeration(outcome.stats)

    result = MatchResult(
        algorithm=spec.name,
        num_matches=outcome.num_matches,
        solved=outcome.solved,
        embeddings=outcome.embeddings,
        # A copy: the prepared order may be cached and served to later
        # runs, so the result must not alias it.
        order=list(prepared.order) if prepared.order is not None else None,
        kernel=prepared.kernel_used,
        preprocessing_seconds=preprocessing_seconds,
        enumeration_seconds=outcome.elapsed,
        candidate_average=getattr(prepared.candidates, "average_size", None),
        memory_bytes=partial(_memory_bytes, prepared, data),
        stats=outcome.stats,
        metrics=metrics,
    )
    return result, prepared
