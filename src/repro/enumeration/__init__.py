"""Enumeration: the backtracking search of Algorithm 1 (paper Section 3.3).

The study's third axis. One engine runs every algorithm: the iterative
:class:`~repro.enumeration.frames.FrameMachine` (explicit frame stacks on
integer masks, leaf batching, pause/resume, root windows). The recursive
:class:`~repro.enumeration.engine.BacktrackingEngine` is the line-by-line
transcription of Algorithm 1 that the parity tests construct and compare
the frame machine against; nothing under ``src/`` constructs it. The
:mod:`~repro.enumeration.local_candidates` module provides the four
ComputeLC strategies (Algorithms 2–5); failing-sets pruning (Section 3.4)
is a constructor flag.
"""

from repro.enumeration.engine import BacktrackingEngine
from repro.enumeration.frames import FrameMachine, FrameSnapshot
from repro.enumeration.local_candidates import (
    CandidateScanLC,
    IntersectionLC,
    LCContext,
    LocalCandidateMethod,
    NeighborScanLC,
    TreeAdjacencyLC,
    VF2ppLC,
)
from repro.enumeration.stats import EnumerationOutcome, EnumerationStats
from repro.enumeration.streaming import iter_matches
from repro.enumeration.support import AdaptiveSelector, EmbeddingStore

__all__ = [
    "BacktrackingEngine",
    "FrameMachine",
    "FrameSnapshot",
    "AdaptiveSelector",
    "EmbeddingStore",
    "LocalCandidateMethod",
    "LCContext",
    "NeighborScanLC",
    "VF2ppLC",
    "CandidateScanLC",
    "TreeAdjacencyLC",
    "IntersectionLC",
    "EnumerationOutcome",
    "EnumerationStats",
    "iter_matches",
]
