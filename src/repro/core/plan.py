"""Query compilation: the immutable MatchPlan and its executor.

The paper's evaluation shape — and the production shape this repository
grows toward — is *many queries against one resident data graph*. That
split is made explicit here:

* :func:`compile_plan` resolves everything about a ``(algorithm, query,
  data)`` triple that is not a per-query artifact: the algorithm spec
  and the kernel policy. The result is an immutable :class:`MatchPlan`.
* :func:`run_plan` executes a plan: filtering, auxiliary structure,
  ordering, kernel resolution, enumeration — the full Algorithm 1
  pipeline. The per-query artifacts it builds (candidates, auxiliary
  adjacency, matching order, the resolved kernel with its encode caches)
  come back as a :class:`PreparedQuery`, which a
  :class:`~repro.core.session.MatchSession` may hand back on a later call
  with the *identical* query to skip the whole preprocessing phase.
* :func:`race_orders` runs the plan's own configuration, the
  :data:`RACERS` configurations and sampled orders count-only over a
  prepared query's candidates (GraphQL-refined ones when the plan
  filtered with NLF), each stopped once it cannot beat the fewest search
  calls so far, and returns the winner (:class:`RaceWinner`): the race a
  session runs on a query's second sighting.

A ``PreparedQuery`` is bound to the exact query graph (vertex numbering
included) and is only reusable under exact
:class:`~repro.graph.graph.Graph` equality.
"""

from __future__ import annotations

import heapq
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

from repro.core.algorithms import resolve
from repro.core.registry import FILTERS, ORDERINGS
from repro.core.result import MatchResult
from repro.core.spec import AlgorithmSpec
from repro.enumeration.frames import FrameMachine
from repro.enumeration.local_candidates import IntersectionLC, StaticOrderInfo
from repro.errors import InvalidQueryError
from repro.filtering.auxiliary import AuxiliaryStructure
from repro.graph.graph import Graph
from repro.graph.ops import connected
from repro.obs import Metrics, collecting, span
from repro.ordering.dpiso import DPisoOrdering
from repro.ordering.spectrum import sample_orders
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
    "SAMPLED_RACERS",
    "SAMPLE_SEED",
    "RaceWinner",
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
    """A compiled query: resolved spec + kernel policy.

    Immutable; the per-query artifacts (candidates, order, …) live in
    :class:`PreparedQuery` instead.
    """

    #: The fully resolved algorithm composition.
    algorithm: AlgorithmSpec
    #: The kernel request this plan was compiled under (name, backend
    #: instance or ``None`` for the env/auto default) — resolution to a
    #: concrete backend happens per prepared query, where candidate
    #: density is known.
    kernel_policy: Optional[KernelLike]

    def __repr__(self) -> str:
        return f"MatchPlan({self.algorithm.name}, aux={self.algorithm.aux_scope!r})"


@dataclass
class PreparedQuery:
    """Per-query preprocessing artifacts, reusable for the exact query.

    Enumeration changes nothing here but the holes of row tables and
    the translation tables of an adaptive order, each filled once with
    the value the candidates determine, so one ``PreparedQuery`` can
    serve any number of runs, from any number of threads: it is what a
    :class:`~repro.enumeration.frames.FrameMachine` runs. ``lc`` is the
    ComputeLC method with its kernel resolved; ``static`` holds a static
    order's per-depth tables
    (:meth:`~repro.enumeration.local_candidates.LocalCandidateMethod.static_order`)
    — the universes and translation tables every frame indexes and, for
    Algorithm 5 on bitmap rows, the row tables the frame machine ANDs.
    The resolved kernel instance rides along inside ``lc``: identity-keyed
    encode caches (bitset/QFilter layouts over the auxiliary arrays) stay
    warm across repeats — the "build the index once" amortization of
    CNI-style data-side indexing.
    """

    candidates: Any = None
    tree: Any = None
    auxiliary: Optional[AuxiliaryStructure] = None
    order: Optional[List[int]] = None
    adaptive_state: Any = None
    lc: Any = None
    static: Optional[StaticOrderInfo] = None
    kernel_used: Optional[str] = None
    preprocessing_seconds: float = 0.0


class RaceWinner(NamedTuple):
    """The configuration :func:`race_orders` chose for one prepared query.

    ``ordering`` names a :data:`RACERS` ordering or ``sampled#i``, the
    ``i``-th sampled order. ``plan`` is the raced plan with its spec's
    failing sets swapped for the winner's (name and ordering unchanged;
    its filter is GraphQL's when the race ran over refined candidates);
    ``prepared`` holds the winner's order — the one every run reads,
    fanned-out ones too — and its static-order tables over the raced
    query's candidates and auxiliary structure. ``match_limit`` is the
    cap the race ran under: fewest calls under one cap says nothing
    about another, so only requests with that cap run it.
    """

    ordering: str
    failing_sets: bool
    match_limit: Optional[int]
    plan: MatchPlan
    prepared: PreparedQuery
    #: ``recursion_calls`` of the winner's run, and of the whole race
    #: (the incumbent's run included).
    calls: int
    race_calls: int


class LRUCache:
    """A tiny thread-safe LRU map with hit/miss counters.

    ``capacity=None`` means unbounded; ``capacity=0`` disables the cache
    entirely (every :meth:`get` is a miss and :meth:`put` is a no-op).

    Every operation holds an internal lock: the serving tier shares one
    :class:`~repro.core.session.MatchSession` (and therefore one prep
    cache) across a worker pool, and the unguarded
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
) -> MatchPlan:
    """Compile ``(algorithm, query, data)`` into an immutable plan."""
    spec = resolve(algorithm, query, data)
    return MatchPlan(algorithm=spec, kernel_policy=kernel)


def prepare_query(
    plan: MatchPlan,
    query: Graph,
    data: Graph,
    metrics: Metrics,
    order: Optional[List[int]] = None,
) -> PreparedQuery:
    """Run the preprocessing phases of ``plan`` for one concrete query.

    Filtering, ordering, and :func:`bind_enumeration` (accounted to the
    ``filter`` phase, like the auxiliary structure it materializes always
    was) — everything Algorithm 1 does before enumeration. The caller
    owns metrics installation; phase timings are recorded on ``metrics``
    exactly as the one-shot pipeline always did. A static ``order``
    replaces the plan's ordering: a :mod:`repro.parallel` worker runs the
    order its parent prepared, which a seeded or raced ordering could not
    derive again.
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
            if spec.adaptive:
                assert candidates is not None, "adaptive mode needs candidates"
                assert isinstance(spec.ordering, DPisoOrdering)
                adaptive_state = spec.ordering.adaptive_state(
                    query, data, candidates
                )
            elif order is None:
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


def _backward_pairs(query: Graph, position: Dict[int, int]) -> List[Tuple[int, int]]:
    """Every query edge in its backward direction: Algorithm 5's reads."""
    return [
        (w, u) if position[w] < position[u] else (u, w) for w, u in query.edges()
    ]


def _positions(order: List[int]) -> Dict[int, int]:
    return {u: i for i, u in enumerate(order)}


def _resolve_lc(
    lc: Any,
    aux_scope: str,
    kernel: Optional[KernelLike],
    query: Graph,
    auxiliary: Optional[AuxiliaryStructure],
    order: Optional[List[int]] = None,
    adaptive_state: Any = None,
) -> Tuple[Any, Optional[List[Tuple[int, int]]]]:
    """``lc`` with its intersection backend resolved, and the auxiliary
    pairs Algorithm 5 reads (``None`` for other methods and scopes).

    A spec constructed with an explicit kernel keeps it; the stock
    default is swapped for the kernel policy (an explicit request, the
    env var, or auto: bitmap rows when a static order can run on them
    and they fit the byte budget).
    """
    if not isinstance(lc, IntersectionLC):
        return lc, None
    backward_pairs = None
    if aux_scope == "all":
        position = adaptive_state.position if order is None else _positions(order)
        backward_pairs = _backward_pairs(query, position)
    if kernel is not None or lc.uses_default_kernel:
        on_rows = backward_pairs is not None and order is not None
        with span("kernel.resolve"):
            backend = get_kernel(
                kernel,
                row_bytes=auxiliary.row_bytes(backward_pairs) if on_rows else None,
            )
        lc = IntersectionLC(kernel=backend)
    return lc, backward_pairs


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
    auxiliary: Optional[AuxiliaryStructure] = None,
) -> PreparedQuery:
    """Everything between ``(candidates, order)`` and a runnable engine.

    Scopes the auxiliary structure, resolves the intersection backend for
    the Algorithm 5 hot path, and builds a static order's tables once
    (``PreparedQuery.static``) — which binds exactly the auxiliary pairs
    enumeration reads, in the form it reads them (row tables for mask
    frames, arrays otherwise).
    The one place this wiring exists: :func:`prepare_query`
    feeds it a filter's and an ordering's output, continuous queries
    (:mod:`repro.dynamic.subscribe`) their maintained candidates and a
    pinned order. An existing ``auxiliary`` over the same candidates is
    bound onto instead of a fresh one: its contents depend only on the
    candidates, so :func:`race_orders`' racers fill the holes of the
    incumbent's row tables rather than build their own.
    """
    if order is None and adaptive_state is None:
        raise ValueError("static mode requires a matching order")
    if auxiliary is None and aux_scope != "none":
        assert candidates is not None, "auxiliary structure needs candidates"
        auxiliary = AuxiliaryStructure.build(
            query, data, candidates, scope=aux_scope, tree=tree
        )
    lc, backward_pairs = _resolve_lc(
        lc, aux_scope, kernel, query, auxiliary, order, adaptive_state
    )
    # The result names the backend Algorithm 5 runs on.
    kernel_used = lc.kernel.name if isinstance(lc, IntersectionLC) else None
    static = None
    if order is not None:
        static = lc.static_order(
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
        static=static,
        kernel_used=kernel_used,
    )


#: The named configurations :func:`race_orders` tries first, in tie-break
#: order: the {GraphQL, RI, DP-iso, QuickSI} orderings with failing sets
#: on. Failing sets only skip subtrees that hold no match, so no order
#: takes fewer calls without them: an order's configuration without them
#: could at best tie, and is not raced (the incumbent, whichever it is,
#: still takes part).
RACERS: Tuple[Tuple[str, bool], ...] = tuple(
    (ordering, True) for ordering in ("GQL", "RI", "DP", "QSI")
)
#: Then up to this many sampled connected orders, failing sets on, drawn
#: with :data:`SAMPLE_SEED` (the paper's Table 6 finding is that sampled
#: orders beat the named ones).
SAMPLED_RACERS = 24
SAMPLE_SEED = 2020
#: Search nodes each racer runs per turn of :func:`race_orders`: a
#: loser's overshoot past the winner, against one pause and resume of its
#: machine per turn.
RACE_QUANTUM = 128


def _racers(
    query: Graph, data: Graph, candidates: Any
) -> Iterator[Tuple[str, List[int], bool, bool]]:
    """``(name, order, failing sets, sampled)`` of every racer, in order."""
    orders: Dict[str, List[int]] = {}
    for name, fs in RACERS:
        if name not in orders:
            orders[name] = ORDERINGS.create(name).order(query, data, candidates)
        yield name, orders[name], fs, False
    samples = sample_orders(query, SAMPLED_RACERS, seed=SAMPLE_SEED)
    for i, order in enumerate(samples):
        yield f"sampled#{i}", order, True, True


def race_orders(
    plan: MatchPlan,
    query: Graph,
    data: Graph,
    prepared: PreparedQuery,
    match_limit: Optional[int] = None,
    cancel: Optional[Callable[[], bool]] = None,
) -> Optional[RaceWinner]:
    """Race the plan's own configuration, the :data:`RACERS`
    configurations and :data:`SAMPLED_RACERS` sampled orders count-only
    under ``match_limit``; returns the winner.

    ``prepared`` holds a static-order Algorithm 5 plan's artifacts. A
    plan that filters with NLF (``recommended``) skipped GraphQL's
    refinement sweep, where one use may be all a query gets; a raced
    query will run again, so the query is prepared with GraphQL's filter
    — at radius 1 its local pruning is NLF's, so that adds exactly the
    sweep — and when the sweep removes a candidate the race runs over
    those candidates, and the winner's plan names GraphQL's filter, which
    a fan-out's workers prepare with. Otherwise it runs over ``prepared``.
    Counts are the same either way: the sweep removes only vertices no
    match uses.

    Racer 0 is the incumbent: the plan's ordering and failing sets, over
    ``prepared`` itself when the race runs over it. Every other racer
    orders the same candidates and binds onto the same auxiliary
    structure, filling the holes of the row tables it shares with the
    others. A racer whose order the plan's kernel policy would run on
    another kernel (say, bitmap rows over the byte budget) sits out, and
    so does one whose order and failing sets were already raced.

    Every solved racer finds the same matches and pays one call per
    match, so fewest calls is fewest interior nodes (calls − matches).
    The racers run side by side: the one with fewest interior nodes so
    far runs the next :data:`RACE_QUANTUM` nodes, so the first to finish
    is (to a quantum) the one with fewest interior nodes, and its count
    is the matches every other racer owes. No racer is stopped before
    then; afterwards a racer is stopped once its calls so far plus the
    matches it still owes pass the fewest calls so far (reach them, for a
    racer after the holder in tie-break order): it can no longer win, and
    no racer that still could is stopped. A racer therefore spends at
    most the winner's interior nodes plus a quantum, and the race's
    interior nodes are at most ``racers × (winner interior +
    RACE_QUANTUM)``: every loser must reach the winner's count to lose,
    so no exact race over the same racers spends much less. The racer
    with strictly fewest calls wins; ties keep the earlier configuration,
    the incumbent first. Afterwards the auxiliary structure keeps only
    the pairs the winner reads, and the incumbent's too when the race ran
    over ``prepared``.

    Returns the winner, or ``None`` when ``cancel`` (polled by every
    racer) stopped the race, which then leaves nothing behind. Call
    counts and samples are deterministic, so so is the winner. The
    race's counters go to sinks of its own, never to the caller's
    metrics.
    """
    spec = plan.algorithm
    with span("plan.race") as race_span, collecting(Metrics()):
        refined = False
        if spec.filter is not None and spec.filter.name == "NLF":
            swept_plan = replace(plan, algorithm=replace(spec, filter=FILTERS.create("GQL")))
            swept = prepare_query(swept_plan, query, data, Metrics())
            refined = swept.candidates.total_size < prepared.candidates.total_size
            if refined:
                plan, spec, prepared = swept_plan, swept_plan.algorithm, swept
        aux = prepared.auxiliary
        racers = [(spec.ordering.name, spec.failing_sets, prepared)]
        seen = {(tuple(prepared.order), spec.failing_sets)}
        sampled = 0
        for name, order, fs, is_sample in _racers(query, data, prepared.candidates):
            if (tuple(order), fs) in seen:
                continue
            seen.add((tuple(order), fs))
            lc, _ = _resolve_lc(spec.lc, spec.aux_scope, plan.kernel_policy, query, aux, order)
            if lc.kernel.name != prepared.kernel_used:
                continue
            racer = bind_enumeration(
                lc, spec.aux_scope, None, query, data, prepared.candidates,
                order=order, auxiliary=aux,
            )
            racers.append((name, fs, racer))
            sampled += is_sample
        machines = [
            FrameMachine(racer, use_failing_sets=fs).start(
                query, data, match_limit=match_limit, store_limit=0, cancel=cancel
            )
            for _, fs, racer in racers
        ]
        # (interior nodes so far, place): the racer furthest behind runs next.
        queue = [(0, at) for at in range(len(racers))]
        best, best_at, matches = None, 0, 0
        while queue:
            _, at = heapq.heappop(queue)
            name, fs, racer = racers[at]
            machine = machines[at]
            over = machine.step(RACE_QUANTUM)
            so_far, found = machine.stats.recursion_calls, machine.num_matches
            if over and not machine.solved:
                best = None
                break
            # (calls, place) orders racers as the race ranks them.
            if over:
                if best is None or (so_far, at) < (best.calls, best_at):
                    winner_plan = replace(plan, algorithm=replace(spec, failing_sets=fs))
                    best = RaceWinner(name, fs, match_limit, winner_plan, racer, so_far, 0)
                    best_at, matches = at, found
                continue
            if best is None or (so_far + matches - found, at) < (best.calls, best_at):
                heapq.heappush(queue, (so_far - found, at))
        kept = [] if refined else _backward_pairs(query, _positions(prepared.order))
        if best is not None:
            kept += _backward_pairs(query, _positions(best.prepared.order))
        aux.retain(kept)
        if best is None:
            return None
        spent = sum(machine.stats.recursion_calls for machine in machines)
        found = sum(machine.num_matches for machine in machines)
        best = best._replace(race_calls=spent)
        race_span.annotate(
            racers=len(racers),
            sampled=sampled,
            ordering=best.ordering,
            failing_sets=best.failing_sets,
            winner_calls=best.calls,
            race_calls=spent,
            winner_interior=best.calls - matches,
            race_interior=spent - found,
        )
    return best


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
                machine = FrameMachine(prepared, use_failing_sets=spec.failing_sets)
                outcome = machine.run(
                    query,
                    data,
                    match_limit=match_limit,
                    time_limit=time_limit,
                    store_limit=store_limit,
                    cancel=cancel,
                    root_window=root_window,
                )
                # A fan-out's chunks name theirs in their own spans.
                enum_span.annotate(search=machine.search)
                if machine.compile_seconds:
                    # The run that paid the compile says so, in its own counter.
                    metrics.add(
                        "search.compile_us", round(machine.compile_seconds * 1e6)
                    )
            enum_span.annotate(
                num_matches=outcome.num_matches,
                solved=outcome.solved,
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
