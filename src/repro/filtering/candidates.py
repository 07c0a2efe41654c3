"""Candidate vertex sets ``C(u)`` and their bookkeeping.

Every filtering method in the study produces one *complete* candidate set
per query vertex (Definition 2.2: if ``(u, v)`` appears in any match then
``v ∈ C(u)``). This module holds the shared container plus the metrics the
paper reports about it — the average candidate count of Figure 8 and the
memory footprint of Section 5.6.
"""

from __future__ import annotations

import weakref
from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.filtering._common import as_vertex_array
from repro.graph.graph import Graph

__all__ = ["CandidateSets"]


class CandidateSets:
    """Per-query-vertex candidate lists, sorted and immutable once built.

    Each ``C(u)`` is held as a sorted int64 array; its Python list and
    frozenset are built when first read (two threads racing on a first
    read each build one; both are equal).

    Parameters
    ----------
    query:
        The query graph the sets belong to (defines how many sets exist).
    sets:
        ``sets[u]`` is an iterable of data vertices for query vertex ``u``.
        Each is deduplicated and sorted on construction.
    """

    __slots__ = (
        "_query",
        "_lists",
        "_sets",
        "_positions",
        "_arrays",
        "_translations",
        "_homogeneous",
        "__weakref__",
    )

    def __init__(self, query: Graph, sets: Sequence[Iterable[int]]) -> None:
        if len(sets) != query.num_vertices:
            raise ValueError(
                f"expected {query.num_vertices} candidate sets, got {len(sets)}"
            )
        self._query = query
        # The filters hand over sorted, duplicate-free int64 arrays: those
        # are copied, anything else sorted and deduplicated.
        self._arrays: Tuple[np.ndarray, ...] = tuple(
            a.copy() if a.size < 2 or (a[1:] > a[:-1]).all() else np.unique(a)
            for a in map(as_vertex_array, sets)
        )
        self._lists: List[Optional[List[int]]] = [None] * len(self._arrays)
        self._sets: List[Optional[frozenset]] = [None] * len(self._arrays)
        self._positions: List[Optional[Dict[int, int]]] = [None] * len(self._arrays)
        self._translations: Dict[Tuple[int, int], Optional[array]] = {}
        self._homogeneous: Optional[Tuple[weakref.ref, bool]] = None

    def __reduce__(self) -> tuple:
        # Only the sets ride a pickle: the memos are built again on need.
        return CandidateSets, (self._query, self._arrays)

    @property
    def query(self) -> Graph:
        """The query graph these candidates belong to."""
        return self._query

    def __getitem__(self, u: int) -> List[int]:
        """Sorted candidate list ``C(u)`` (do not mutate)."""
        lst = self._lists[u]
        if lst is None:
            lst = self._lists[u] = self._arrays[u].tolist()
        return lst

    def __len__(self) -> int:
        return len(self._arrays)

    def membership(self, u: int) -> frozenset:
        """``C(u)`` as a frozenset for O(1) membership checks."""
        members = self._sets[u]
        if members is None:
            members = self._sets[u] = frozenset(self[u])
        return members

    def positions(self, u: int) -> Dict[int, int]:
        """``C(u)`` as ``{v: its position in C(u)}`` (do not mutate): a
        bitmap row's bit for ``v``, found by one dict read."""
        where = self._positions[u]
        if where is None:
            members = self[u]
            where = self._positions[u] = dict(zip(members, range(len(members))))
        return where

    def array(self, u: int) -> np.ndarray:
        """``C(u)`` as a sorted int64 array (do not mutate).

        The array is built once at construction; vectorized consumers
        (auxiliary-structure build, kernel backends) index and mask it
        without re-materializing the Python list.
        """
        return self._arrays[u]

    def contains(self, u: int, v: int) -> bool:
        """Whether data vertex ``v`` is a candidate of query vertex ``u``."""
        return v in self.membership(u)

    def label_homogeneous(self, data: Graph) -> bool:
        """Whether every ``C(u)`` holds only data vertices of ``u``'s own
        label: the invariant every filter's sets and LDF keep, which sets
        built by hand may break. Checked once per data graph (held
        weakly), however many readers bind onto these sets."""
        memo = self._homogeneous
        if memo is None or memo[0]() is not data:
            memo = self._homogeneous = (weakref.ref(data), self._label_check(data))
        return memo[1]

    def _label_check(self, data: Graph) -> bool:
        arrays = self._arrays
        return not arrays or bool(
            (
                data.labels[np.concatenate(arrays)]
                == np.repeat(self._query.labels, [a.size for a in arrays])
            ).all()
        )

    def size(self, u: int) -> int:
        """``|C(u)|``."""
        return self._arrays[u].size

    def translation(self, u_from: int, u_to: int) -> Optional[array]:
        """Where the candidates of ``u_from`` sit inside ``C(u_to)``.

        Entry ``i`` is the position of ``C(u_from)[i]`` in ``C(u_to)``, or
        -1 when it is not a candidate there, in a C ``int`` array; ``None``
        when the two sets are disjoint. Exact for any two sets: the first
        call for a pair finds the positions by binary search and keeps the
        table (or ``None``). The frame machine reads these to mark the
        data vertices earlier query vertices hold in a frame over
        ``C(u_to)``: the only ones they can take away are those both sets
        hold. It asks only for pairs that can overlap
        (:func:`~repro.enumeration.local_candidates.clash_partners`).
        """
        pair = (u_from, u_to)
        try:
            return self._translations[pair]
        except KeyError:
            pass
        source, target = self._arrays[u_from], self._arrays[u_to]
        table = None
        if source.size and target.size:
            at = np.searchsorted(target, source)
            found = target[np.minimum(at, target.size - 1)] == source
            if found.any():
                table = array("i", np.where(found, at, -1).astype(np.intc).tobytes())
        self._translations[pair] = table
        return table

    @property
    def total_size(self) -> int:
        """``Σ_u |C(u)|``."""
        return sum(arr.size for arr in self._arrays)

    @property
    def average_size(self) -> float:
        """The paper's Figure 8 metric: ``(1/|V(q)|) Σ_u |C(u)|``."""
        if not self._arrays:
            return 0.0
        return self.total_size / len(self._arrays)

    @property
    def has_empty_set(self) -> bool:
        """True when some ``C(u)`` is empty — the query has no match."""
        return any(arr.size == 0 for arr in self._arrays)

    @property
    def memory_bytes(self) -> int:
        """Estimated footprint, counting 8 bytes per stored candidate id.

        This mirrors how the paper accounts candidate memory (arrays of
        vertex ids), not CPython object overhead.
        """
        return 8 * self.total_size

    def as_dict(self) -> Dict[int, List[int]]:
        """Copy out as ``{u: sorted list}`` (for display and tests)."""
        return {u: arr.tolist() for u, arr in enumerate(self._arrays)}

    def restricted(self, keep: Sequence[Iterable[int]]) -> "CandidateSets":
        """A new container intersecting each ``C(u)`` with ``keep[u]``."""
        if len(keep) != len(self._arrays):
            raise ValueError("keep must provide one set per query vertex")
        return CandidateSets(
            self._query,
            [
                [v for v in self[u] if v in kset]
                for u, kset in enumerate(set(k) for k in keep)
            ],
        )

    def __repr__(self) -> str:
        sizes = ", ".join(str(arr.size) for arr in self._arrays)
        return f"CandidateSets(sizes=[{sizes}])"

