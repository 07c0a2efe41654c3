"""The experiment runner: one algorithm over one query set, with metrics.

Implements the paper's measurement protocol (Section 4, Metrics):

* per query, preprocessing time and enumeration time are measured
  separately, in milliseconds;
* queries are cut off after ``match_limit`` matches (paper: 10^5);
* queries exceeding the wall-clock budget are *unsolved* and their
  enumeration time is accounted as the full budget;
* query sets are summarized by mean values plus the standard deviation of
  the enumeration time (Figure 12) and the short/median/long/unsolved
  buckets of Figure 13 (thresholds are the paper's 1s/60s/300s expressed
  as fractions of the budget: 1/300, 1/5, 1).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.core.plan import MatchRequest
from repro.core.result import MatchResult
from repro.core.session import MatchSession
from repro.core.spec import AlgorithmSpec
from repro.glasgow.solver import glasgow_match
from repro.graph.graph import Graph
from repro.obs import Metrics

__all__ = [
    "QueryRecord",
    "RunSummary",
    "run_algorithm_on_set",
    "default_time_limit",
    "default_match_limit",
]

AlgorithmLike = Union[str, AlgorithmSpec]


def default_time_limit() -> float:
    """Per-query enumeration budget in seconds (env ``REPRO_TIME_LIMIT``).

    The paper uses 300 s on C++; our default is 2 s, which on the scaled
    stand-ins plays the same role (kills the pathological orders while
    letting ordinary queries finish).
    """
    return float(os.environ.get("REPRO_TIME_LIMIT", "2.0"))


def default_match_limit() -> int:
    """Match cap per query (env ``REPRO_MATCH_CAP``; paper: 10^5)."""
    return int(os.environ.get("REPRO_MATCH_CAP", "10000"))


@dataclass(frozen=True)
class QueryRecord:
    """Metrics for one query (the paper's per-query measurement)."""

    query_index: int
    preprocessing_ms: float
    enumeration_ms: float
    num_matches: int
    solved: bool
    candidate_average: Optional[float]
    memory_bytes: int
    recursion_calls: int

    #: The query's :class:`~repro.obs.Metrics` in plain-dict form (kept
    #: JSON/pickle-friendly so parallel workers ship it unchanged).
    metrics: Optional[Dict] = None


@dataclass
class RunSummary:
    """Aggregated metrics of one algorithm over one query set."""

    algorithm: str
    dataset_key: str
    query_set_label: str
    time_limit: float
    records: List[QueryRecord] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Aggregates (all over the full set; unsolved queries charge the
    # enumeration budget, per the paper).
    # ------------------------------------------------------------------

    @property
    def num_queries(self) -> int:
        return len(self.records)

    @property
    def num_unsolved(self) -> int:
        return sum(1 for r in self.records if not r.solved)

    @property
    def avg_preprocessing_ms(self) -> float:
        return _mean([r.preprocessing_ms for r in self.records])

    @property
    def avg_enumeration_ms(self) -> float:
        return _mean([self._charged_enumeration_ms(r) for r in self.records])

    @property
    def std_enumeration_ms(self) -> float:
        values = [self._charged_enumeration_ms(r) for r in self.records]
        return _std(values)

    @property
    def avg_total_ms(self) -> float:
        return self.avg_preprocessing_ms + self.avg_enumeration_ms

    @property
    def avg_candidates(self) -> Optional[float]:
        values = [
            r.candidate_average
            for r in self.records
            if r.candidate_average is not None
        ]
        return _mean(values) if values else None

    @property
    def avg_matches_solved(self) -> float:
        """Mean result count over solved queries (Figure 17's estimate)."""
        solved = [r.num_matches for r in self.records if r.solved]
        return _mean(solved) if solved else 0.0

    @property
    def peak_memory_bytes(self) -> int:
        return max((r.memory_bytes for r in self.records), default=0)

    @property
    def merged_metrics(self) -> Metrics:
        """All per-query counters merged (associative + commutative sum).

        Sequential and parallel runs of the same workload produce equal
        merged metrics — the parity the integration suite enforces.
        """
        merged = Metrics()
        for record in self.records:
            if record.metrics is not None:
                merged = merged.merge(Metrics.from_dict(record.metrics))
        return merged

    def _charged_enumeration_ms(self, record: QueryRecord) -> float:
        if record.solved:
            return record.enumeration_ms
        return self.time_limit * 1000.0

    def categories(self) -> Dict[str, int]:
        """Figure 13's buckets, as counts.

        Thresholds are the paper's 1 s / 60 s / 300 s rescaled to the
        configured budget: short < budget/300, median < budget/5,
        long < budget, unsolved otherwise.
        """
        budget_ms = self.time_limit * 1000.0
        buckets = {"short": 0, "median": 0, "long": 0, "unsolved": 0}
        for r in self.records:
            if not r.solved:
                buckets["unsolved"] += 1
            elif r.enumeration_ms < budget_ms / 300.0:
                buckets["short"] += 1
            elif r.enumeration_ms < budget_ms / 5.0:
                buckets["median"] += 1
            else:
                buckets["long"] += 1
        return buckets

    def __repr__(self) -> str:
        return (
            f"RunSummary({self.algorithm} on {self.dataset_key}/"
            f"{self.query_set_label}: enum={self.avg_enumeration_ms:.1f}ms, "
            f"unsolved={self.num_unsolved}/{self.num_queries})"
        )


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _std(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    mean = _mean(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


def _measurement_run(
    data: Graph,
    algorithm: AlgorithmLike,
    match_limit: Optional[int],
    time_limit: Optional[float],
    kernel: Optional[str] = None,
) -> Callable[[Graph], MatchResult]:
    """How a study run measures one query: ``"GLW"`` through the Glasgow
    solver, anything else as one request on one session.

    Measurement mode: no prepared-query cache, so every query compiles
    and preprocesses afresh and its record is exactly what a standalone
    ``match()`` would report. Records count matches and keep none.
    """
    if algorithm == "GLW":
        return partial(
            glasgow_match, data=data,
            match_limit=match_limit, time_limit=time_limit, store_limit=0,
        )
    request = MatchRequest(algorithm, kernel, match_limit, time_limit, store_limit=0)
    session = MatchSession(data, prep_cache_size=0)
    return lambda query: session._execute(query, request, validate=False)


def _measure(run: Callable[[Graph], MatchResult], index: int, query: Graph) -> QueryRecord:
    """One query's record, measured by ``run`` (see :func:`_measurement_run`)."""
    result = run(query)
    return QueryRecord(
        query_index=index,
        preprocessing_ms=result.preprocessing_ms,
        enumeration_ms=result.enumeration_ms,
        num_matches=result.num_matches,
        solved=result.solved,
        candidate_average=result.candidate_average,
        memory_bytes=result.memory_bytes,
        recursion_calls=result.stats.recursion_calls,
        metrics=result.metrics.to_dict(),
    )


def run_algorithm_on_set(
    algorithm: AlgorithmLike,
    data: Graph,
    queries: Sequence[Graph],
    dataset_key: str = "?",
    query_set_label: str = "?",
    match_limit: Optional[int] = None,
    time_limit: Optional[float] = None,
    kernel: Optional[str] = None,
) -> RunSummary:
    """Run one algorithm over every query of a set, collecting Section 4
    metrics. ``algorithm`` may be any preset name, an
    :class:`AlgorithmSpec`, or ``"GLW"`` for the Glasgow solver.
    ``kernel`` names the intersection backend for every query (default:
    the auto rule).

    The whole set runs through one :class:`~repro.core.session.MatchSession`
    in measurement mode: the data graph stays resident, but nothing of
    one query is reused for another, so every query's recorded
    preprocessing time and metrics are exactly what a standalone
    ``match()`` would report.
    """
    if match_limit is None:
        match_limit = default_match_limit()
    if time_limit is None:
        time_limit = default_time_limit()

    summary = RunSummary(
        algorithm=algorithm if isinstance(algorithm, str) else algorithm.name,
        dataset_key=dataset_key,
        query_set_label=query_set_label,
        time_limit=time_limit,
    )
    run = _measurement_run(data, algorithm, match_limit, time_limit, kernel)
    for index, query in enumerate(queries):
        summary.records.append(_measure(run, index, query))
    return summary
