"""The auxiliary data structure ``A`` maintaining edges between candidates.

Given a query edge ``e(u, u')`` and ``v ∈ C(u)``, the paper defines
``A_{u'}^{u}(v) = N(v) ∩ C(u')`` — the neighbors of ``v`` inside ``C(u')``
(Section 2.1). The three preprocessing-enumeration algorithms differ in
*which* query edges they materialize:

* CFL's compressed path index keeps only the BFS-tree edges,
* CECI's compact embedding cluster index and DP-iso's candidate space keep
  every query edge,
* GraphQL keeps none (its ComputeLC scans ``C(u)`` directly).

``AuxiliaryStructure.build`` fixes that scope; the adjacency of a directed
pair ``(u → u')`` is then materialized on demand, in one of two forms:

* **rows** (:meth:`AuxiliaryStructure.table`) — *position space*. The
  ``i``-th entry is one arbitrary-precision ``int`` whose bit ``j`` is set
  iff ``C(u')[j] ∈ N(C(u)[i])``. This is what the frame machine ANDs; a
  row costs ``|C(u')|/8`` bytes, a pair ``|C(u)|·|C(u')|/8``
  (:meth:`AuxiliaryStructure.row_bytes`, the number the ``auto`` kernel
  rule compares with the bitset byte budget). A table starts as
  ``|C(u)|`` *holes* (``None``); a reader fills a hole the first time it
  reaches it (:meth:`AuxiliaryStructure.build_row`), for every later run
  of the prepared query — a capped search builds only the rows it reads.
* **arrays** (:meth:`AuxiliaryStructure.neighbors`) — ``{v: sorted int64
  array}``, what the list-returning ComputeLC methods (Algorithm 4,
  Algorithm 5 under an explicit array kernel, the adaptive selector) and
  the recursive oracle read, built whole in one vectorised scan.

The position-translation tables a frame's injectivity mask reads are not
here: they map ``C(w)`` into ``C(u)`` and read nothing else, so they live
on :meth:`~repro.filtering.candidates.CandidateSets.translation`.

Preparation (:meth:`repro.enumeration.local_candidates.LocalCandidateMethod.static_order`)
binds exactly the pairs enumeration will read — the backward direction
under the matching order, ``|E(q)|`` of the ``2|E(q)|`` directed pairs —
in the one form its engine path uses; a pair is never held in both. A
pair nobody prepared is built in array form on its first
:meth:`neighbors` call (read through its row table if it has one), so the
lookup API is total over the scope. Contents are fully determined by the
final ``C`` sets, whichever form and whenever built, so a fill is an
idempotent single-slot store and one structure serves concurrent
readers. The Section 5.6 accounting (:attr:`AuxiliaryStructure.num_entries`)
is a scan of its own, run when first read.

The data graph is referenced *weakly*: a prepared query sits in caches
long after its request, and must not keep a replaced snapshot (or a
worker's shared-memory mapping) alive. A build after the graph is gone
fails with a ``ReferenceError``, so a pickle fills every hole first.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from typing import Dict, Iterable, Iterator, List, Literal, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.filtering._common import _ragged_indices, segment_starts
from repro.filtering.candidates import CandidateSets
from repro.graph.graph import Graph
from repro.graph.ops import BFSTree
from repro.utils.kernels import RowsKernel

__all__ = ["AuxiliaryStructure", "Scope"]

Scope = Literal["none", "tree", "all"]
Pair = Tuple[int, int]

_EMPTY = np.empty(0, dtype=np.int64)


def _gone() -> None:
    """A dead graph reference (what an unpickled structure holds)."""
    return None


class AuxiliaryStructure:
    """Candidate-to-candidate adjacency for a chosen set of query edges.

    The structure is directional: the pair ``(u_from, u_to)`` maps each
    ``v ∈ C(u_from)`` to ``N(v) ∩ C(u_to)``. Query edges in scope can be
    read in both directions, which is what both Algorithm 4 (tree-edge
    lookups) and Algorithm 5 (set intersections over all backward
    neighbors) need.
    """

    __slots__ = (
        "_data",
        "_candidates",
        "_scope",
        "_edges",
        "_pairs",
        "_rows",
        "_arrays",
        "_num_entries",
    )

    def __init__(
        self,
        data: Graph,
        candidates: CandidateSets,
        scope: Scope,
        edges: Iterable[Pair],
    ) -> None:
        self._data = weakref.ref(data)
        self._candidates = candidates
        self._scope = scope
        #: In-scope query edges, one orientation each.
        self._edges: Tuple[Pair, ...] = tuple(edges)
        self._pairs: Dict[Pair, None] = {}
        for u, u2 in self._edges:
            self._pairs[(u, u2)] = None
            self._pairs[(u2, u)] = None
        self._rows: Dict[Pair, List[Optional[int]]] = {}
        self._arrays: Dict[Pair, Dict[int, np.ndarray]] = {}
        self._num_entries: Optional[int] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        query: Graph,
        data: Graph,
        candidates: CandidateSets,
        scope: Scope = "all",
        tree: Optional[BFSTree] = None,
    ) -> "AuxiliaryStructure":
        """Fix which query edges ``A`` covers; adjacency is built on demand.

        ``scope="tree"`` requires the BFS tree whose edges should be kept
        (CFL's ``q_t``); ``scope="all"`` keeps every query edge;
        ``scope="none"`` produces an empty structure (GraphQL).
        """
        if scope == "none":
            edges: List[Pair] = []
        elif scope == "tree":
            if tree is None:
                raise ConfigurationError("tree scope requires a BFSTree")
            edges = [(p, c) for p, c in tree.tree_edges]
        elif scope == "all":
            edges = list(query.edges())
        else:
            raise ConfigurationError(f"unknown auxiliary scope {scope!r}")
        return cls(data, candidates, scope, edges)

    def _scan(
        self, pairs: Iterable[Pair]
    ) -> Iterator[Tuple[Pair, np.ndarray, np.ndarray]]:
        """The candidate edges of each directed pair in ``pairs``.

        Yields ``(pair, rows, positions)``: entry ``k`` says candidate
        ``C(u_from)[rows[k]]`` is adjacent to ``C(u_to)[positions[k]]``,
        sorted by ``(row, position)``. Pairs are grouped by source vertex:
        one ragged gather over the CSR slices of all of ``C(u_from)``
        serves every target, a target costs one scatter of its positions
        into a ``|V(G)|`` scratch (allocated once per call) and one lookup
        — no per-candidate Python loop. Raises ``KeyError`` for a pair
        out of scope.
        """
        by_source: Dict[int, List[int]] = {}
        for pair in dict.fromkeys(pairs):
            if pair not in self._pairs:
                raise KeyError(pair)
            by_source.setdefault(pair[0], []).append(pair[1])
        if not by_source:
            return
        offsets, neighbors = self._graph().csr
        where = np.full(offsets.size - 1, -1, dtype=np.int32)
        for u_from, targets in by_source.items():
            source = self._candidates.array(u_from)
            starts = offsets[source]
            lengths = offsets[source + 1] - starts
            gathered = neighbors[
                _ragged_indices(
                    starts, lengths, segment_starts(lengths), int(lengths.sum())
                )
            ]
            segment = np.repeat(np.arange(source.size), lengths)
            for u_to in targets:
                target = self._candidates.array(u_to)
                where[target] = np.arange(target.size, dtype=np.int32)
                positions = where[gathered]
                where[target] = -1
                keep = positions >= 0
                # data.neighbors(v) and C(u_to) are sorted, so positions
                # ascend within each row.
                yield (u_from, u_to), segment[keep], positions[keep]

    def build_arrays(self, pairs: Iterable[Pair]) -> None:
        """Materialize ``pairs`` as ``{v: array}`` tables (and only so)."""
        missing = [pair for pair in pairs if pair not in self._arrays]
        for (u_from, u_to), rows, positions in self._scan(missing):
            source = self._candidates.array(u_from)
            counts = np.bincount(rows, minlength=source.size)
            chunks = np.split(
                self._candidates.array(u_to)[positions], np.cumsum(counts)[:-1]
            )
            self._rows.pop((u_from, u_to), None)
            self._arrays[(u_from, u_to)] = dict(zip(source.tolist(), chunks))

    def retain(self, pairs: Iterable[Pair]) -> None:
        """Unbind every pair outside ``pairs``, in either form; a later
        read binds it again. Frees what only a discarded binding read (an
        order race's losers)."""
        keep = set(pairs)
        for tables in (self._rows, self._arrays):
            for pair in list(tables):
                if pair not in keep:
                    tables.pop(pair, None)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    @property
    def scope(self) -> Scope:
        """Which query edges are covered."""
        return self._scope

    def has_pair(self, u_from: int, u_to: int) -> bool:
        """Whether the directed pair ``(u_from, u_to)`` is in scope."""
        return (u_from, u_to) in self._pairs

    def pairs(self) -> Iterable[Pair]:
        """All directed pairs in scope."""
        return self._pairs.keys()

    def form(self, u_from: int, u_to: int) -> Optional[str]:
        """How the pair is bound right now: ``"rows"`` (a row table, which
        may still have holes), ``"arrays"`` (a complete ``{v: array}``
        table) or ``None`` (not bound). Never both."""
        pair = (u_from, u_to)
        if pair in self._rows:
            return "rows"
        return "arrays" if pair in self._arrays else None

    def table(self, u_from: int, u_to: int) -> List[Optional[int]]:
        """The pair's row table (see :meth:`rows`) with ``None`` for each
        row not built yet; binds the pair in rows form on first call.
        Raises ``KeyError`` for a pair out of scope."""
        pair = (u_from, u_to)
        table = self._rows.get(pair)
        if table is None:
            if pair not in self._pairs:
                raise KeyError(pair)
            self._arrays.pop(pair, None)
            table = self._rows.setdefault(pair, [None] * self._candidates.size(u_from))
        return table

    def _graph(self) -> Graph:
        data = self._data()
        if data is None:
            raise ReferenceError("the data graph of this structure is gone")
        return data

    def build_row(self, data: Graph, u_from: int, u_to: int, i: int) -> int:
        """Row ``i`` of the pair, computed from ``data`` (not stored): bit
        ``j`` is set iff ``C(u_to)[j] ∈ N(C(u_from)[i])``. A search passes
        the graph it runs on, which a cached prepared query may outlive."""
        universe = self._candidates[u_to]
        row = 0
        for x in self._candidates.membership(u_to).intersection(
            data.neighbors(self._candidates[u_from][i]).tolist()
        ):
            row |= 1 << bisect_left(universe, x)
        return row

    def fill(self, u_from: int, u_to: int, table: List[Optional[int]]) -> List[int]:
        """Build every hole of ``table``, a row table of the pair."""
        for i, row in enumerate(table):
            if row is None:
                table[i] = self.build_row(self._graph(), u_from, u_to, i)
        return table  # type: ignore[return-value]

    def rows(self, u_from: int, u_to: int) -> List[int]:
        """The pair's bitmap rows, all built, indexed by position in ``C(u_from)``.

        Bit ``j`` of row ``i`` is set iff ``C(u_to)[j] ∈ N(C(u_from)[i])``.
        Do not mutate. Raises ``KeyError`` for a pair out of scope.
        """
        return self.fill(u_from, u_to, self.table(u_from, u_to))

    def neighbors(self, u_from: int, u_to: int, v: int) -> np.ndarray:
        """``A_{u_to}^{u_from}(v)``: candidates of ``u_to`` adjacent to ``v``.

        Returns a sorted int64 array (do not mutate). Empty if ``v`` is not
        a candidate of ``u_from``; raises ``KeyError`` if the pair itself is
        out of scope (that is a wiring bug, not a data condition).
        """
        pair = (u_from, u_to)
        table = self._arrays.get(pair)
        if table is None:
            rows = self._rows.get(pair)
            if rows is not None:
                if v not in self._candidates.membership(u_from):
                    return _EMPTY
                i = bisect_left(self._candidates[u_from], v)
                row = rows[i]
                if row is None:
                    row = rows[i] = self.build_row(self._graph(), u_from, u_to, i)
                return self._candidates.array(u_to)[RowsKernel.decode(row)]
            self.build_arrays([pair])
            table = self._arrays[pair]
        return table.get(v, _EMPTY)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def row_bytes(self, pairs: Iterable[Pair]) -> int:
        """Bytes ``pairs`` occupy as dense rows: ``|C(w)|·|C(u)|/8`` each."""
        size = self._candidates.size
        return sum(size(w) * ((size(u) + 7) >> 3) for w, u in pairs)

    @property
    def num_entries(self) -> int:
        """Total candidate-edge endpoints over the scope (both directions).

        The paper's Section 5.6 accounting, independent of which pairs are
        materialized and in which form: both directions of a query edge
        hold the same candidate edges, so one scan of an edge counts it.
        Computed by one scan on first read — no search ever pays it — and
        cached.
        """
        if self._num_entries is None:
            self._num_entries = 2 * sum(
                rows.size for _, rows, _ in self._scan(self._edges)
            )
        return self._num_entries

    @property
    def memory_bytes(self) -> int:
        """Estimated footprint at 8 bytes per stored endpoint."""
        return 8 * self.num_entries

    def __getstate__(self) -> dict:
        # A weak reference cannot cross a process boundary, and the copy of
        # the graph that would travel has no owner on the other side: read
        # everything from it here, then ship without it.
        for (u_from, u_to), table in list(self._rows.items()):
            self.fill(u_from, u_to, table)
        self.num_entries
        return {
            name: getattr(self, name) for name in self.__slots__ if name != "_data"
        }

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._data = _gone

    def __repr__(self) -> str:
        return (
            f"AuxiliaryStructure(scope={self._scope!r}, "
            f"pairs={len(self._pairs)}, entries={self.num_entries})"
        )
