"""The result record returned by the public matching API."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.enumeration.stats import EnumerationStats
from repro.obs.metrics import Metrics

__all__ = ["MatchResult"]


class _OnFirstRead:
    """An ``int`` field that may be set to a zero-argument callable, which
    runs on the first read and is replaced by its value."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.key = "_" + name

    def __get__(self, obj: object, owner: Optional[type] = None) -> int:
        if obj is None:
            return 0  # the dataclass default
        if callable(obj.__dict__[self.key]):
            obj.__dict__[self.key] = obj.__dict__[self.key]()
        return obj.__dict__[self.key]

    def __set__(self, obj: object, value: Union[int, Callable[[], int]]) -> None:
        obj.__dict__[self.key] = value


@dataclass
class MatchResult:
    """Outcome of one subgraph-matching run.

    Attributes mirror the paper's per-query metrics (Section 4, Metrics):
    preprocessing time covers filtering, auxiliary-structure binding and
    ordering; enumeration time covers the backtracking search, bitmap rows
    built on first read included; ``solved`` is False when the time limit
    killed the query (the paper then accounts it as the full limit).
    """

    algorithm: str
    num_matches: int
    solved: bool
    embeddings: List[Tuple[int, ...]] = field(default_factory=list)

    #: Matching order φ actually used (None in adaptive mode).
    order: Optional[List[int]] = None

    #: Registry name of the intersection kernel backend that served the
    #: enumeration (``"scalar"``, ``"numpy"``, ``"bitset"``, ``"qfilter"``);
    #: None when the algorithm has no Algorithm 5 intersection hot path.
    kernel: Optional[str] = None

    preprocessing_seconds: float = 0.0
    enumeration_seconds: float = 0.0

    #: Average candidate-set size (Figure 8's metric); None for
    #: direct-enumeration algorithms that build no candidate sets.
    candidate_average: Optional[float] = None
    #: Estimated bytes held by candidates + auxiliary structure (§5.6);
    #: counted on first read, so a served request never pays the scan.
    memory_bytes: int = _OnFirstRead()  # type: ignore[assignment]

    stats: EnumerationStats = field(default_factory=EnumerationStats)

    #: Cross-layer counters (filter stages, ordering cost evaluations,
    #: the enumeration counters, per-phase wall-clock) collected while
    #: this query ran; see :mod:`repro.obs.metrics` for the glossary.
    metrics: Metrics = field(default_factory=Metrics)

    @property
    def preprocessing_ms(self) -> float:
        """Preprocessing time in milliseconds (the paper's unit)."""
        return self.preprocessing_seconds * 1000.0

    @property
    def enumeration_ms(self) -> float:
        """Enumeration time in milliseconds."""
        return self.enumeration_seconds * 1000.0

    @property
    def total_ms(self) -> float:
        """End-to-end query time in milliseconds."""
        return self.preprocessing_ms + self.enumeration_ms

    @property
    def mappings(self) -> List[Dict[int, int]]:
        """Stored embeddings as ``{query_vertex: data_vertex}`` dicts."""
        return [dict(enumerate(t)) for t in self.embeddings]

    def __repr__(self) -> str:
        status = "solved" if self.solved else "UNSOLVED"
        return (
            f"MatchResult({self.algorithm}, matches={self.num_matches}, "
            f"{status}, total={self.total_ms:.2f}ms)"
        )
