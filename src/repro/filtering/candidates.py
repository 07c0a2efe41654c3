"""Candidate vertex sets ``C(u)`` and their bookkeeping.

Every filtering method in the study produces one *complete* candidate set
per query vertex (Definition 2.2: if ``(u, v)`` appears in any match then
``v ∈ C(u)``). This module holds the shared container plus the metrics the
paper reports about it — the average candidate count of Figure 8 and the
memory footprint of Section 5.6.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.filtering._common import as_vertex_array
from repro.graph.graph import Graph

__all__ = ["CandidateSets"]


class CandidateSets:
    """Per-query-vertex candidate lists, sorted and immutable once built.

    Parameters
    ----------
    query:
        The query graph the sets belong to (defines how many sets exist).
    sets:
        ``sets[u]`` is an iterable of data vertices for query vertex ``u``.
        Each is deduplicated and sorted on construction.
    """

    __slots__ = ("_query", "_lists", "_sets", "_arrays")

    def __init__(self, query: Graph, sets: Sequence[Iterable[int]]) -> None:
        if len(sets) != query.num_vertices:
            raise ValueError(
                f"expected {query.num_vertices} candidate sets, got {len(sets)}"
            )
        self._query = query
        # Sort and deduplicate at array level (the filters hand over int64
        # arrays); the lists and sets of Python ints are derived from that.
        self._arrays: Tuple[np.ndarray, ...] = tuple(
            np.unique(as_vertex_array(s)) for s in sets
        )
        self._lists: Tuple[List[int], ...] = tuple(
            arr.tolist() for arr in self._arrays
        )
        self._sets: Tuple[frozenset, ...] = tuple(
            frozenset(lst) for lst in self._lists
        )

    @property
    def query(self) -> Graph:
        """The query graph these candidates belong to."""
        return self._query

    def __getitem__(self, u: int) -> List[int]:
        """Sorted candidate list ``C(u)`` (do not mutate)."""
        return self._lists[u]

    def __len__(self) -> int:
        return len(self._lists)

    def membership(self, u: int) -> frozenset:
        """``C(u)`` as a frozenset for O(1) membership checks."""
        return self._sets[u]

    def array(self, u: int) -> np.ndarray:
        """``C(u)`` as a sorted int64 array (do not mutate).

        The array is built once at construction; vectorized consumers
        (auxiliary-structure build, kernel backends) index and mask it
        without re-materializing the Python list.
        """
        return self._arrays[u]

    def contains(self, u: int, v: int) -> bool:
        """Whether data vertex ``v`` is a candidate of query vertex ``u``."""
        return v in self._sets[u]

    def size(self, u: int) -> int:
        """``|C(u)|``."""
        return len(self._lists[u])

    @property
    def total_size(self) -> int:
        """``Σ_u |C(u)|``."""
        return sum(len(lst) for lst in self._lists)

    @property
    def average_size(self) -> float:
        """The paper's Figure 8 metric: ``(1/|V(q)|) Σ_u |C(u)|``."""
        if not self._lists:
            return 0.0
        return self.total_size / len(self._lists)

    @property
    def has_empty_set(self) -> bool:
        """True when some ``C(u)`` is empty — the query has no match."""
        return any(not lst for lst in self._lists)

    @property
    def memory_bytes(self) -> int:
        """Estimated footprint, counting 8 bytes per stored candidate id.

        This mirrors how the paper accounts candidate memory (arrays of
        vertex ids), not CPython object overhead.
        """
        return 8 * self.total_size

    def as_dict(self) -> Dict[int, List[int]]:
        """Copy out as ``{u: sorted list}`` (for display and tests)."""
        return {u: list(lst) for u, lst in enumerate(self._lists)}

    def restricted(self, keep: Sequence[Iterable[int]]) -> "CandidateSets":
        """A new container intersecting each ``C(u)`` with ``keep[u]``."""
        if len(keep) != len(self._lists):
            raise ValueError("keep must provide one set per query vertex")
        return CandidateSets(
            self._query,
            [
                [v for v in lst if v in kset]
                for lst, kset in zip(self._lists, [set(k) for k in keep])
            ],
        )

    def __repr__(self) -> str:
        sizes = ", ".join(str(len(lst)) for lst in self._lists)
        return f"CandidateSets(sizes=[{sizes}])"
