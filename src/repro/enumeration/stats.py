"""Counters and result records produced by the enumeration engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

__all__ = ["EnumerationStats", "EnumerationOutcome"]


@dataclass
class EnumerationStats:
    """Instrumentation counters for one enumeration run.

    ``recursion_calls`` counts Enumerate invocations (search-tree nodes);
    ``candidates_scanned`` counts local candidates iterated;
    ``conflicts`` counts injectivity rejections (``v ∈ M``);
    ``failing_set_prunes`` counts sibling groups skipped by the failing-set
    optimization;
    ``adaptive_lc_reused`` counts ComputeLC invocations avoided by the
    adaptive selector's memoization (DP-iso mode only; always 0 for
    static orders).
    """

    recursion_calls: int = 0
    candidates_scanned: int = 0
    conflicts: int = 0
    failing_set_prunes: int = 0
    adaptive_lc_reused: int = 0


@dataclass
class EnumerationOutcome:
    """What one enumeration run produced.

    ``solved`` is False when the time budget expired — the paper's
    "unsolved query"; counts then reflect work done before the kill.
    ``embeddings`` holds up to ``store_limit`` full matches, each a tuple
    ``t`` with ``t[u]`` the data vertex mapped to query vertex ``u``.
    """

    num_matches: int
    solved: bool
    embeddings: List[Tuple[int, ...]] = field(default_factory=list)
    stats: EnumerationStats = field(default_factory=EnumerationStats)
    #: Wall-clock seconds spent enumerating (set by the caller's timer).
    elapsed: float = 0.0
