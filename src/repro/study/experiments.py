"""Programmatic experiment API: the paper's comparisons on *your* graphs.

The benchmark modules regenerate the paper's figures on the dataset
stand-ins; this module exposes the same comparisons as plain functions a
downstream user can point at any graph/workload:

* :func:`compare_filters` — Figure 7/8-style: per-filter pruning power and
  preprocessing time;
* :func:`compare_algorithms` — Figure 11/16-style: per-preset timing
  summary over one query set;
* :func:`order_spectrum` — Figure 14-style: the distribution of
  enumeration times across sampled matching orders for one query;
* :func:`time_order` — the measurement under it (and under the Figure 14
  and Table 6 benchmarks): enumeration time of one matching order on a
  given candidate space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from repro.core.plan import bind_enumeration
from repro.core.spec import AlgorithmSpec
from repro.enumeration.frames import FrameMachine
from repro.enumeration.local_candidates import IntersectionLC
from repro.filtering import (
    CandidateSets,
    CECIFilter,
    CFLFilter,
    DPisoFilter,
    Filter,
    GraphQLFilter,
    LDFFilter,
    SteadyFilter,
)
from repro.graph.graph import Graph
from repro.ordering import GraphQLOrdering, RIOrdering, sample_orders
from repro.study.runner import RunSummary, run_algorithm_on_set
from repro.utils.timer import Timer

__all__ = [
    "FilterReport",
    "SpectrumReport",
    "compare_filters",
    "compare_algorithms",
    "order_spectrum",
    "time_order",
    "default_study_filters",
]


def default_study_filters() -> List[Filter]:
    """The filter lineup of Figure 8 (baselines included)."""
    return [
        LDFFilter(),
        GraphQLFilter(),
        CFLFilter(),
        CECIFilter(),
        DPisoFilter(),
        SteadyFilter(),
    ]


@dataclass
class FilterReport:
    """Per-filter aggregates over one query set (Figures 7 and 8)."""

    filter_name: str
    avg_candidates: float
    avg_time_ms: float
    avg_memory_bytes: float
    num_queries: int


def compare_filters(
    data: Graph,
    queries: Sequence[Graph],
    filters: Optional[Sequence[Filter]] = None,
) -> List[FilterReport]:
    """Run each filter over every query; report pruning power and cost.

    Filters may carry configuration (e.g. ``DPisoFilter(refinement_phases=1)``),
    so instances — not classes — are passed in.
    """
    if filters is None:
        filters = default_study_filters()
    reports = []
    for filt in filters:
        candidates_total = 0.0
        time_total = 0.0
        memory_total = 0.0
        for query in queries:
            with Timer() as timer:
                result = filt.run(query, data)
            candidates_total += result.average_size
            time_total += timer.elapsed_ms
            memory_total += result.memory_bytes
        n = max(1, len(queries))
        reports.append(
            FilterReport(
                filter_name=filt.name,
                avg_candidates=candidates_total / n,
                avg_time_ms=time_total / n,
                avg_memory_bytes=memory_total / n,
                num_queries=len(queries),
            )
        )
    return reports


def compare_algorithms(
    data: Graph,
    queries: Sequence[Graph],
    algorithms: Sequence[Union[str, AlgorithmSpec]],
    match_limit: Optional[int] = None,
    time_limit: Optional[float] = None,
    dataset_key: str = "user",
    query_set_label: str = "user",
) -> List[RunSummary]:
    """Run each preset over the query set; summaries sorted by total time.

    Accepts preset names (including ``"GLW"``) and explicit specs.
    """
    summaries = [
        run_algorithm_on_set(
            algorithm,
            data,
            queries,
            dataset_key=dataset_key,
            query_set_label=query_set_label,
            match_limit=match_limit,
            time_limit=time_limit,
        )
        for algorithm in algorithms
    ]
    summaries.sort(key=lambda s: s.avg_total_ms)
    return summaries


@dataclass
class SpectrumReport:
    """Enumeration-time distribution across matching orders (Figure 14)."""

    #: Solved sampled orders, milliseconds, ascending.
    sampled_ms: List[float] = field(default_factory=list)
    #: Sampled orders killed by the time limit.
    timeouts: int = 0
    #: The GQL ordering's time (None if it timed out).
    gql_ms: Optional[float] = None
    #: The RI ordering's time (None if it timed out).
    ri_ms: Optional[float] = None

    @property
    def best_ms(self) -> Optional[float]:
        return self.sampled_ms[0] if self.sampled_ms else None

    @property
    def worst_ms(self) -> Optional[float]:
        return self.sampled_ms[-1] if self.sampled_ms else None

    @property
    def median_ms(self) -> Optional[float]:
        if not self.sampled_ms:
            return None
        return self.sampled_ms[len(self.sampled_ms) // 2]

    def speedup_over(self, algorithm_ms: Optional[float]) -> Optional[float]:
        """Best-sampled-order speedup over an algorithmic order's time."""
        if algorithm_ms is None or self.best_ms is None:
            return None
        return algorithm_ms / max(1e-6, self.best_ms)


def time_order(
    query: Graph,
    data: Graph,
    candidates: CandidateSets,
    order: Sequence[int],
    match_limit: Optional[int] = None,
    time_limit: Optional[float] = None,
    failing_sets: bool = False,
) -> Optional[float]:
    """Enumeration milliseconds of ``order``; ``None`` if the limit kills it.

    The optimized GQL configuration of Section 5.3 (Algorithm 5 over the
    full candidate space) on the engine and ``auto`` kernel policy every
    preset runs with, wired by :func:`~repro.core.plan.bind_enumeration`;
    only the search itself is timed, so orders compared on one candidate
    space differ in nothing but the ordering axis (and ``failing_sets``,
    for an order raced with them on).
    """
    prepared = bind_enumeration(
        IntersectionLC(), "all", None, query, data, candidates,
        order=list(order),
    )
    outcome = FrameMachine(prepared.lc, use_failing_sets=failing_sets).run(
        query, data, candidates, prepared.auxiliary, prepared.order,
        match_limit=match_limit, time_limit=time_limit, store_limit=0,
    )
    return outcome.elapsed * 1000.0 if outcome.solved else None


def order_spectrum(
    query: Graph,
    data: Graph,
    num_orders: int = 100,
    seed: int = 0,
    match_limit: Optional[int] = None,
    time_limit: Optional[float] = None,
) -> SpectrumReport:
    """Sample matching orders and measure each (optimized GQL pipeline).

    All orders share one candidate space, so the spectrum isolates the
    ordering axis exactly as Section 5.3 does.
    """
    candidates = GraphQLFilter().run(query, data)

    def measure(order) -> Optional[float]:
        return time_order(
            query, data, candidates, order,
            match_limit=match_limit, time_limit=time_limit,
        )

    report = SpectrumReport()
    for order in sample_orders(query, num_orders, seed=seed):
        elapsed = measure(order)
        if elapsed is None:
            report.timeouts += 1
        else:
            report.sampled_ms.append(elapsed)
    report.sampled_ms.sort()
    report.gql_ms = measure(GraphQLOrdering().order(query, data, candidates))
    report.ri_ms = measure(RIOrdering().order(query, data, candidates))
    return report
