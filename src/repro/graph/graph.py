"""The labeled undirected graph used throughout the study.

The paper stores data graphs as compressed sparse rows (CSR) with sorted
neighbor arrays and checks edge existence by binary search (Section 3.3.2).
We mirror that layout: ``offsets``/``neighbors`` numpy arrays hold the CSR,
and per-vertex ``frozenset`` views give the O(1) membership checks that the
pure-Python enumeration loop needs to stay competitive.

Vertices are dense integers ``0 .. n-1``; labels are non-negative integers.
Graphs are immutable once built, which lets candidate structures and indexes
cache derived data freely.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import InvalidGraphError

__all__ = ["Graph"]


def _normalize_edges(
    num_vertices: int, edges: Iterable[Tuple[int, int]]
) -> List[Tuple[int, int]]:
    """Validate and deduplicate an undirected edge list.

    Returns each edge once, as ``(min, max)`` pairs. Self loops and
    out-of-range endpoints raise :class:`InvalidGraphError`.
    """
    seen = set()
    normalized = []
    for u, v in edges:
        u = int(u)
        v = int(v)
        if u == v:
            raise InvalidGraphError(f"self loop on vertex {u} is not allowed")
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise InvalidGraphError(
                f"edge ({u}, {v}) out of range for {num_vertices} vertices"
            )
        key = (u, v) if u < v else (v, u)
        if key in seen:
            continue
        seen.add(key)
        normalized.append(key)
    return normalized


def _count_labels(codes: np.ndarray, bounds: np.ndarray, k: int) -> np.ndarray:
    """How many entries of each run ``codes[bounds[s]:bounds[s + 1]]`` hold
    each dense label code ``0 .. k - 1`` (code ``k`` is not counted): an
    int32 block with one row per run and one column per code — the one
    place neighbour labels are counted."""
    runs = bounds.size - 1
    if k == 1:
        # One label over a whole CSR: locate its hits, no |E|-sized cells.
        hits = np.flatnonzero(codes == 0)
        cells = (np.searchsorted(bounds, hits, side="right") - 1) * 2
    else:
        cells = codes + np.repeat(np.arange(0, runs * (k + 1), k + 1), np.diff(bounds))
    counts = np.bincount(cells, minlength=runs * (k + 1)).reshape(runs, k + 1)
    return counts[:, :k].astype(np.int32)


def _runs(offsets: np.ndarray, vertices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """One ragged gather over the CSR runs of ``vertices``: the bounds of
    each run in the gathered order and the flat CSR indices to gather."""
    starts = offsets[vertices]
    lengths = offsets[vertices + 1] - starts
    bounds = np.zeros(vertices.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=bounds[1:])
    return bounds, np.repeat(starts - bounds[:-1], lengths) + np.arange(
        bounds[-1], dtype=np.int64
    )


def _int_array(values: np.ndarray) -> array:
    """``values`` as a C ``int`` array: an element read is a slot read,
    not a numpy scalar."""
    out = array("i")
    out.frombytes(memoryview(np.ascontiguousarray(values, dtype=np.intc)).cast("B"))
    return out


#: A neighbour-label column (:meth:`Graph.neighbor_label_counts`), then
#: the two stamps every neighbour-label fact carries: the generation of
#: the snapshot it was exact for, and how many vertices of its group that
#: snapshot's line had rewritten by then. A column's group is all of
#: ``V``.
_Column = Tuple[np.ndarray, int, int]

#: A label-pair neighbour slice (:meth:`Graph.labelled_neighbors`): per
#: vertex of the source label, in rank order, where its run of
#: target-label neighbours starts and ends in ``targets`` (``|V(label)| +
#: 1`` offsets, then the targets), then the same two stamps; its group is
#: the source label's vertices.
_Slice = Tuple[array, array, int, int]

#: Once the vertices of its group rewritten since an inherited fact was
#: exact pass this share of the group, a spliced snapshot builds the fact
#: again instead of patching (a column) or adopting (a slice) it
#: (:meth:`Graph._stale`).
STALE_SHARE = 0.5

#: Every stale column's counts at the vertices rewritten since the oldest
#: was exact: those vertices ``U`` (sorted), each stale label's dense code
#: (its rank among them) and the ``|U| × |labels|`` int32 block.
_Patch = Tuple[np.ndarray, Dict[int, int], np.ndarray]


def _handed_on(inherited: dict, held: dict, same_stamps: bool, generation: int) -> dict:
    """The facts of one kind a spliced snapshot inherits from ``prev``:
    all it inherited and holds under the same rewrite stamps, else only
    those exact on ``prev`` (at ``generation``). A reader of ``prev`` may
    be publishing a fact — adding it to ``held``, then popping it from
    ``inherited`` — so each is copied in one C-level call, that first."""
    if same_stamps:
        out = dict(inherited)
        out.update(held)
        return out
    return {key: entry for key, entry in list(held.items()) if entry[-2] == generation}


class Graph:
    """An immutable, undirected, vertex-labeled graph in CSR form.

    Parameters
    ----------
    labels:
        Sequence of non-negative integer labels; ``labels[v]`` is the label
        of vertex ``v``. Its length defines the number of vertices.
    edges:
        Iterable of ``(u, v)`` pairs. Duplicates are collapsed; self loops
        are rejected.

    "Do not mutate" is what licenses the derived data a graph caches:
    besides the lazy neighbor sets and per-vertex NLF dicts, ``hash(graph)``
    and the order-invariant fingerprint
    (:func:`~repro.graph.fingerprint.query_fingerprint`) are computed once
    and memoized, so a graph object that is asked about again — a cached
    query used as a dict key on every request — costs a slot read, not two
    ``tobytes()`` or a sha256. Neither memo rides a pickle: ``hash(bytes)``
    is salted per process, so an unpickled graph recomputes both.

    The one fact a graph caches *for the filters* is
    :meth:`neighbor_label_counts`: one int32 column of ``|N(v, l)|`` over
    all of ``V(G)`` per label ``l ∈ Σ`` somebody asked about — at most
    4 B × ``|V|`` × ``|Σ|``; a label the graph lacks is never kept —
    built in one pass over the CSR on first touch.

    The one fact it caches *for the row fills* of the bitmap path
    (:meth:`~repro.filtering.auxiliary.AuxiliaryStructure.build_row`) is
    :meth:`labelled_neighbors`: per ``(label, target)`` pair somebody read,
    every ``label`` vertex's ``target`` neighbours in one int32 slice, with
    offsets over the ``label`` group only, built on first read by one
    gather over that group's runs. A vertex finds its entry by its rank
    inside its label group, a C ``int`` per vertex that an attached data
    graph (:meth:`from_csr`) builds with its label index and any other
    graph on its first slice read, so a query graph never holds one.

    A spliced snapshot (:class:`~repro.dynamic.overlay.DynamicGraph`)
    inherits both kinds by one rule (:meth:`_inherit`), and a write copies
    nothing. Each fact carries the generation it was exact at and how many
    vertices of its group — all of ``V`` for a column, the ``label`` group
    for a slice — its line had rewritten by then; the dynamic graph's
    per-vertex rewrite stamps say which vertices changed since. A fact
    whose group was rewritten past ``STALE_SHARE`` is built again on its
    first read here. Otherwise a slice is adopted, and a vertex stamped
    after it reads its whole run instead; and the first read of any
    inherited column counts every inherited label at once, over dense
    label codes, at the vertices stamped since the oldest was exact: one
    gather and one ``|U| × |Σ|`` block, kept until the last inherited
    column is read. Each column read then costs a copy and a scatter, so
    a graph a few mutations old answers almost as cheaply as a resident
    one. The ranks and the codes (int32, one per vertex) are handed on
    to every snapshot spliced over the same ``labels``. None of this
    rides a pickle either: an unpickled graph builds them again on need.

    Examples
    --------
    >>> g = Graph(labels=[0, 1, 1], edges=[(0, 1), (1, 2)])
    >>> g.num_vertices, g.num_edges
    (3, 2)
    >>> g.degree(1)
    2
    >>> g.neighbors(1).tolist()
    [0, 2]
    """

    __slots__ = (
        "_labels",
        "_offsets",
        "_neighbors",
        "_degrees",
        "_neighbor_sets",
        "_label_index",
        "_ranks",
        "_slices",
        "_inherited",
        "_rewrites",
        "_stamps",
        "_generation",
        "_nlf_cache",
        "_label_counts",
        "_stale_counts",
        "_patch",
        "_label_codes",
        "_num_edges",
        "_store",
        "_hash",
        "_fingerprint",
        "__weakref__",
    )

    def __init__(
        self,
        labels: Sequence[int],
        edges: Iterable[Tuple[int, int]],
    ) -> None:
        labels_arr = np.asarray(list(labels), dtype=np.int64)
        if labels_arr.ndim != 1:
            raise InvalidGraphError("labels must be a flat sequence")
        if labels_arr.size and labels_arr.min() < 0:
            raise InvalidGraphError("labels must be non-negative integers")

        n = int(labels_arr.size)
        edge_list = _normalize_edges(n, edges)

        # Vectorized CSR build: mirror every edge, lexsort by (source,
        # target) so each vertex's neighbor slice comes out sorted, and
        # read the degrees off a bincount. No per-edge Python loop.
        if edge_list:
            e = np.asarray(edge_list, dtype=np.int64)
            src = np.concatenate([e[:, 0], e[:, 1]])
            dst = np.concatenate([e[:, 1], e[:, 0]])
            order = np.lexsort((dst, src))
            degrees = np.bincount(src, minlength=n).astype(np.int64, copy=False)
            neighbors = dst[order]
        else:
            degrees = np.zeros(n, dtype=np.int64)
            neighbors = np.empty(0, dtype=np.int64)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])

        self._labels = labels_arr
        self._offsets = offsets
        self._neighbors = neighbors
        self._degrees = degrees
        self._num_edges = len(edge_list)
        self._label_index = self._build_label_index(labels_arr, None)
        self._forget()

    def _forget(self, store: Optional[object] = None) -> None:
        """Start every derived cache empty (``__init__``, :meth:`_adopt`
        and ``__setstate__``)."""
        # Per-vertex frozensets are a Python loop over |V|; built lazily
        # so consumers that stay on the CSR arrays (the frame machine,
        # shared-memory workers) never pay for them.
        self._neighbor_sets: Optional[Tuple[frozenset, ...]] = None
        self._ranks: Optional[array] = None
        self._nlf_cache: Dict[int, Dict[int, int]] = {}
        # Neighbour-label facts held here (built, patched or adopted), and
        # those a splice handed on that nobody has read here yet.
        self._label_counts: Dict[int, _Column] = {}
        self._stale_counts: Dict[int, _Column] = {}
        self._slices: Dict[Tuple[int, int], _Slice] = {}
        self._inherited: Dict[Tuple[int, int], _Slice] = {}
        # Vertices rewritten along the line, per label and under None for
        # all of V; the line's stamps; this snapshot's generation.
        self._rewrites: Dict[Optional[int], int] = {}
        self._stamps: Optional[array] = None
        self._generation = 0
        self._patch: Optional[_Patch] = None
        self._label_codes: Optional[Tuple[np.ndarray, Dict[int, int]]] = None
        self._store = store
        self._hash: Optional[int] = None
        self._fingerprint: Optional[str] = None

    @staticmethod
    def _build_label_index(
        labels_arr: np.ndarray, by_label: Optional[np.ndarray]
    ) -> Dict[int, np.ndarray]:
        """Label → sorted vertex array, loop-free over the vertices.

        A stable argsort groups vertices by label while keeping ids
        ascending inside each group; callers that already hold the sorted
        permutation (a shared-memory attach) pass it in and skip the sort.
        """
        index: Dict[int, np.ndarray] = {}
        if by_label is None:
            by_label = np.argsort(labels_arr, kind="stable")
        uniq, starts = np.unique(labels_arr[by_label], return_index=True)
        bounds = np.append(starts, labels_arr.size)
        for i, label in enumerate(uniq.tolist()):
            index[int(label)] = by_label[bounds[i]:bounds[i + 1]]
        return index

    @classmethod
    def from_csr(
        cls,
        labels: np.ndarray,
        offsets: np.ndarray,
        neighbors: np.ndarray,
        num_edges: int,
        by_label: Optional[np.ndarray] = None,
        store: Optional[object] = None,
    ) -> "Graph":
        """Adopt prebuilt CSR arrays without copying or re-sorting.

        The arrays must already satisfy the class invariants (sorted
        neighbor slices, mirrored undirected edges, int64 dtype); this is
        the zero-copy attach path for shared-memory and memory-mapped
        graphs, so the arrays may be read-only views into a buffer owned
        by someone else. ``by_label``, when given, is the stable
        label-sorted vertex permutation (what the label index is built
        from) and skips recomputing the argsort. ``store``, when given,
        is the :class:`~repro.graph.store.GraphStore` that owns the
        arrays; the graph keeps a reference so the backing buffer (a
        memmap or shared-memory segment) outlives any cached views.

        An attached graph is a data graph, so it builds the ranks its
        slices read with its label index: a request's row fills then
        allocate nothing ``|V|``-sized.
        """
        graph = cls._adopt(
            labels,
            offsets,
            neighbors,
            np.diff(offsets),
            num_edges,
            cls._build_label_index(labels, by_label),
            store,
        )
        graph._ranks = graph._rank_array()
        return graph

    @classmethod
    def _adopt(
        cls,
        labels: np.ndarray,
        offsets: np.ndarray,
        neighbors: np.ndarray,
        degrees: np.ndarray,
        num_edges: int,
        label_index: Optional[Dict[int, np.ndarray]] = None,
        store: Optional[object] = None,
    ) -> "Graph":
        """:meth:`from_csr` with the degrees already built — a spliced
        snapshot has them from the splice, and its label index from
        :meth:`_inherit`."""
        graph = cls.__new__(cls)
        graph._labels = labels
        graph._offsets = offsets
        graph._neighbors = neighbors
        graph._degrees = degrees
        graph._num_edges = int(num_edges)
        graph._label_index = label_index
        graph._forget(store)
        return graph

    @classmethod
    def from_store(cls, store: object) -> "Graph":
        """The graph view over a :class:`~repro.graph.store.GraphStore`.

        Zero-copy: the returned graph's arrays are the store's arrays,
        and the label index derives from the store's precomputed
        ``by_label`` permutation without re-sorting.
        """
        return cls.from_csr(
            store.labels,
            store.offsets,
            store.neighbors,
            num_edges=store.num_edges,
            by_label=store.by_label,
            store=store,
        )

    @property
    def store(self) -> "object":
        """The :class:`~repro.graph.store.GraphStore` owning this graph's
        arrays, wrapping them in an in-memory store on first access for
        graphs built directly from labels/edges.
        """
        if self._store is None:
            from repro.graph.store import InMemoryStore

            self._store = InMemoryStore.from_graph(self)
        return self._store

    def _ensure_neighbor_sets(self) -> Tuple[frozenset, ...]:
        if self._neighbor_sets is None:
            offsets, neighbors = self._offsets, self._neighbors
            self._neighbor_sets = tuple(
                frozenset(neighbors[offsets[v]:offsets[v + 1]].tolist())
                for v in range(self.num_vertices)
            )
        return self._neighbor_sets

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return int(self._labels.size)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``|E|``."""
        return self._num_edges

    @property
    def labels(self) -> np.ndarray:
        """Read-only label array; ``labels[v]`` is the label of ``v``."""
        return self._labels

    def label(self, v: int) -> int:
        """Label ``L(v)`` of vertex ``v``."""
        return int(self._labels[v])

    def degree(self, v: int) -> int:
        """Degree ``d(v)`` of vertex ``v``."""
        return int(self._degrees[v])

    @property
    def degrees(self) -> np.ndarray:
        """Read-only degree array; ``degrees[v]`` is ``d(v)``."""
        return self._degrees

    @property
    def csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """The raw ``(offsets, neighbors)`` CSR arrays (do not mutate).

        ``neighbors[offsets[v]:offsets[v + 1]]`` is the sorted neighbor
        slice of ``v``; vectorized consumers (the kernel backends and the
        filtering refinement passes) gather directly from these arrays.
        """
        return self._offsets, self._neighbors

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor array ``N(v)`` (a view into the CSR, do not mutate)."""
        return self._neighbors[self._offsets[v]:self._offsets[v + 1]]

    def neighbor_set(self, v: int) -> frozenset:
        """Neighbors of ``v`` as a frozenset for O(1) membership checks."""
        return self._ensure_neighbor_sets()[v]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``e(u, v)`` exists."""
        return v in self._ensure_neighbor_sets()[u]

    def vertices(self) -> range:
        """Iterate vertex ids ``0 .. n-1``."""
        return range(self.num_vertices)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Yield each undirected edge once as ``(u, v)`` with ``u < v``."""
        for u in self.vertices():
            for v in self.neighbors(u):
                v = int(v)
                if u < v:
                    yield (u, v)

    # ------------------------------------------------------------------
    # Label statistics
    # ------------------------------------------------------------------

    @property
    def label_set(self) -> frozenset:
        """The set of labels ``Σ`` that actually occur."""
        return frozenset(self._label_index)

    def vertices_with_label(self, label: int) -> np.ndarray:
        """Sorted vertices carrying ``label`` (empty array if absent)."""
        return self._label_index.get(label, np.empty(0, dtype=np.int64))

    def label_frequency(self, label: int) -> int:
        """Number of vertices carrying ``label``."""
        return int(self._label_index.get(label, np.empty(0)).size)

    def nlf(self, v: int) -> Dict[int, int]:
        """Neighbor label frequency of ``v``: ``{label: |N(v, label)|}``.

        The signature used by the NLF filter (Section 3.1.1), cached per
        asked-for vertex: a query graph's amortise over its fingerprint and
        every filter run. Nothing asks a data graph for it: filters read
        the same counts column-wise, from :meth:`neighbor_label_counts`,
        through the batched ``nlf_keep``.
        """
        counts = self._nlf_cache.get(v)
        if counts is None:
            counts = {}
            for lbl in self._labels[self.neighbors(v)].tolist():
                counts[lbl] = counts.get(lbl, 0) + 1
            self._nlf_cache[v] = counts
        return counts

    def neighbor_label_counts(self, label: int) -> np.ndarray:
        """``|N(v, label)|`` for every ``v ∈ V(G)``: an int32 column (do not
        mutate).

        The NLF rule read column-wise — ``nlf_keep`` keeps ``v`` with
        ``column[v] ≥ |N(u, label)|``. Built on first touch by one
        vectorised pass over the CSR and memoised, 4 B × ``|V|`` per label
        of ``Σ`` asked about; it spans all of ``V(G)`` because a caller's
        pool may mix labels. A label no vertex carries gets a fresh zero
        column that is not kept, so what a graph holds is bounded by its
        own ``|Σ|`` whatever labels callers ask about. On a spliced
        snapshot an inherited column is copied and patched instead, from
        one block that the first such read counts for every stale label
        (:meth:`_count_stale`).
        """
        entry = self._label_counts.get(label)
        if entry is not None:
            return entry[0]
        if label not in self._label_index:
            return np.zeros(self.num_vertices, dtype=np.int32)
        stale = self._stale_counts.get(label)
        if self._stale(stale, None):
            # One label over the whole CSR: code 0 is the label, 1 the rest.
            column = _count_labels(
                self._labels[self._neighbors] != label, self._offsets, 1
            )[:, 0]
        else:
            patch = self._patch
            # A block another reader counted after this label was patched
            # and released (by a third) lacks it.
            if patch is None or label not in patch[1]:
                patch = self._patch = self._count_stale(label, stale)
            rewritten, codes, block = patch
            column = np.zeros(self.num_vertices, dtype=np.int32)
            column[:stale[0].size] = stale[0]
            column[rewritten] = block[:, codes[label]]
        # Publish before releasing the inherited column, so a concurrent
        # reader or splice always finds one of the two.
        rewrites = self._rewrites.get(None, 0)
        self._label_counts[label] = (column, self._generation, rewrites)
        self._stale_counts.pop(label, None)
        if not self._stale_counts:
            self._patch = None
        return column

    def _count_stale(self, label: int, entry: _Column) -> _Patch:
        """Count every inherited label still fit to patch (``label`` among
        them) at once, at the vertices ``U`` stamped after the oldest of
        them was exact: one gather of their runs and one ``|U| × |labels|``
        block. ``U`` may hold a vertex a later splice stamped, counted from
        this snapshot's own runs all the same."""
        stale = {
            other: column
            for other, column in list(self._stale_counts.items())
            if not self._stale(column, None)
        }
        stale[label] = entry
        oldest = min(column[1] for column in stale.values())
        # A slice of the stamps is a copy: a live view would make the
        # writer's next ``stamps.extend`` raise BufferError.
        stamps = np.frombuffer(self._stamps[: self.num_vertices], dtype=np.intc)
        rewritten = np.flatnonzero(stamps > oldest)
        bounds, runs = _runs(self._offsets, rewritten)
        # Graph-wide dense codes renumbered: the stale labels 0 .. k - 1,
        # every other label k, which is not counted.
        vertex_codes, code_of = self._dense_label_codes()
        stale_codes = {label: code for code, label in enumerate(stale)}
        renumber = np.full(len(code_of), len(stale), dtype=np.int32)
        renumber[[code_of[label] for label in stale]] = np.arange(len(stale))
        block = _count_labels(
            renumber[vertex_codes[self._neighbors[runs]]], bounds, len(stale)
        )
        return rewritten, stale_codes, block

    def _dense_label_codes(self) -> Tuple[np.ndarray, Dict[int, int]]:
        """Each vertex's label as its rank in ``Σ`` (int32), and label →
        rank: built on the first patch and handed on to every snapshot
        spliced over the same ``labels`` (:meth:`_inherit`)."""
        codes = self._label_codes
        if codes is None:
            keys = np.fromiter(self._label_index, dtype=np.int64)
            codes = self._label_codes = (
                np.searchsorted(keys, self._labels).astype(np.int32),
                {label: code for code, label in enumerate(keys.tolist())},
            )
        return codes

    def labelled_neighbors(
        self, v: int, label: int, target: int
    ) -> Union[array, List[int]]:
        """Every neighbour of ``v`` that carries ``target``, sorted, where
        ``label`` is ``v``'s own label: a slice of the ``(label, target)``
        neighbour slice, as a C ``int`` array (do not mutate).

        What a bitmap row over a label-homogeneous ``C(u')`` can hit, read
        without the rest of ``N(v)``. The caller vouches for ``label``:
        ``v`` finds its entry by its rank inside that group. The slice is
        built or inherited on its first read here (:meth:`_slice`). A
        vertex rewritten since an inherited slice was exact answers its
        whole run as a list instead, which holds the same ``target``
        neighbours among others, so callers intersect the answer with a
        set of ``target`` vertices.
        """
        entry = self._slices.get((label, target))
        if entry is None:
            entry = self._slice(label, target)
        offsets, targets, exact, _ = entry
        if exact != self._generation and self._stamps[v] > exact:
            return self._neighbors[self._offsets[v]:self._offsets[v + 1]].tolist()
        rank = self._ranks[v]
        return targets[offsets[rank]:offsets[rank + 1]]

    def _slice(self, label: int, target: int) -> _Slice:
        """The ``(label, target)`` slice on its first read here, kept.

        An inherited slice is adopted unless it is stale
        (:meth:`_stale`). Otherwise it is built by one gather over the runs
        of the ``label`` group: ``|V(label)| + 1`` offsets and the
        ``target`` entries, 4 B each. A slice toward a label no vertex
        carries is empty and not kept, so what a graph holds is bounded by
        its own labels. The first slice of a graph that has no ranks yet
        builds them, before any slice is published.
        """
        if self._ranks is None:
            self._ranks = self._rank_array()
        key = (label, target)
        entry = self._inherited.get(key)
        if self._stale(entry, label):
            group = self.vertices_with_label(label)
            bounds, runs = _runs(self._offsets, group)
            gathered = self._neighbors[runs]
            hits = np.flatnonzero(self._labels[gathered] == target)
            entry = (
                _int_array(np.searchsorted(hits, bounds)),
                _int_array(gathered[hits]),
                self._generation,
                self._rewrites.get(label, 0),
            )
            if target not in self._label_index:
                return entry
        self._slices[key] = entry
        return entry

    def _rank_array(self) -> array:
        """Each vertex's rank inside its label group, as a C ``int``
        array."""
        ranks = np.zeros(self.num_vertices, dtype=np.intc)
        for group in self._label_index.values():
            ranks[group] = np.arange(group.size, dtype=np.intc)
        return _int_array(ranks)

    def _stale(self, entry: Optional[tuple], label: Optional[int]) -> bool:
        """The one staleness rule: whether an inherited fact — a column
        (``label`` ``None``, its group all of ``V``) or a slice of source
        ``label`` (its group ``V(label)``) — must be built again instead
        of patched or adopted: it is missing, or the vertices of its group
        rewritten since it was exact pass ``STALE_SHARE`` of the group."""
        if entry is None:
            return True
        size = self.num_vertices if label is None else self.label_frequency(label)
        return self._rewrites.get(label, 0) - entry[-1] > STALE_SHARE * size

    def _inherit(
        self, prev: "Graph", rewritten: List[int], stamps: array, generation: int
    ) -> None:
        """Hand this snapshot what ``prev`` knows of its labels and its
        neighbour labels: the label index (and the ranks and codes), and
        the columns and label-pair slices, to be patched or adopted on
        first read under the rewrite stamps.

        ``generation`` is this snapshot's, and ``stamps[v]`` the
        generation of the last snapshot that rewrote ``v``: monotone, and
        written by the :class:`~repro.dynamic.overlay.DynamicGraph` under
        its lock before it publishes that snapshot. ``rewritten`` holds the
        vertices whose run differs from ``prev``'s, appended ones included;
        labels never change, so no other vertex's facts can. A fact exact
        at generation ``g`` still holds every vertex stamped ``≤ g``; a
        reader racing a later splice may see a vertex as more rewritten
        than it is, never less. A fact is handed on only where these stamps
        cover its history (:func:`_handed_on`). The rewrites per label and
        of all of ``V`` are counted along the line of snapshots, which is
        how a read tells a fact gone stale (:meth:`_stale`). A write costs
        two dict copies and a count per label; no fact is copied or looked
        at, and nothing ``prev`` holds is written.
        """
        self._stamps = stamps
        self._generation = generation
        rewrites = dict(prev._rewrites)
        for label in self._labels[rewritten].tolist():
            rewrites[label] = rewrites.get(label, 0) + 1
        rewrites[None] = rewrites.get(None, 0) + len(rewritten)
        self._rewrites = rewrites
        same = prev._stamps is stamps
        self._stale_counts = _handed_on(
            prev._stale_counts, prev._label_counts, same, prev._generation
        )
        self._inherited = _handed_on(
            prev._inherited, prev._slices, same, prev._generation
        )
        # What derives from the labels alone is never written: share it
        # instead of re-sorting |V| labels.
        if self._labels is prev._labels:
            self._label_index = prev._label_index
            self._ranks = prev._ranks
            self._label_codes = prev._label_codes
        else:
            self._label_index = self._build_label_index(self._labels, None)

    def edge_label_frequency(self, label_a: int, label_b: int) -> int:
        """Number of edges whose endpoint labels are ``{label_a, label_b}``.

        This is QuickSI's edge weight
        ``w(e(u, u')) = |{e(v, v') ∈ E(G) | L(v) = L(u) ∧ L(v') = L(u')}|``
        (Section 3.2): the ``label_b`` neighbours of every ``label_a``
        vertex, summed off :meth:`neighbor_label_counts` — halved when the
        labels are equal, since each such edge is then counted from both
        ends. A label no vertex carries has no edges and builds no column.
        """
        if label_a not in self._label_index or label_b not in self._label_index:
            return 0
        total = int(
            self.neighbor_label_counts(label_b)[
                self.vertices_with_label(label_a)
            ].sum()
        )
        return total // 2 if label_a == label_b else total

    # ------------------------------------------------------------------
    # Aggregate properties
    # ------------------------------------------------------------------

    @property
    def average_degree(self) -> float:
        """Average degree ``2|E| / |V|`` (0 for the empty graph)."""
        if self.num_vertices == 0:
            return 0.0
        return 2.0 * self.num_edges / self.num_vertices

    @property
    def max_degree(self) -> int:
        """Largest vertex degree (0 for the empty graph)."""
        if self.num_vertices == 0:
            return 0
        return int(self._degrees.max())

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------

    def induced_subgraph(
        self, vertex_subset: Iterable[int]
    ) -> Tuple["Graph", Dict[int, int]]:
        """Vertex-induced subgraph ``g[V']`` on ``vertex_subset``.

        Returns the new graph (vertices renumbered ``0..k-1`` in ascending
        order of the originals) and the mapping from new ids to original ids.
        """
        chosen = sorted(set(int(v) for v in vertex_subset))
        for v in chosen:
            if not (0 <= v < self.num_vertices):
                raise InvalidGraphError(f"vertex {v} not in graph")
        old_to_new = {old: new for new, old in enumerate(chosen)}
        labels = [self.label(v) for v in chosen]
        edges = [
            (old_to_new[u], old_to_new[v])
            for u in chosen
            for v in self.neighbors(u).tolist()
            if v in old_to_new and u < v
        ]
        new_to_old = {new: old for old, new in old_to_new.items()}
        return Graph(labels=labels, edges=edges), new_to_old

    def relabeled(self, labels: Sequence[int]) -> "Graph":
        """A copy of this graph with a fresh label assignment."""
        if len(labels) != self.num_vertices:
            raise InvalidGraphError(
                f"expected {self.num_vertices} labels, got {len(labels)}"
            )
        return Graph(labels=labels, edges=list(self.edges()))

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        # Residency is process-local: a memmap or shared-memory store
        # must not ride a pickle (workers re-attach through handles), and
        # the backing arrays may be read-only buffer views — materialize
        # them so the unpickled graph stands alone. The memoized hash
        # and fingerprint stay behind too: hash(bytes) is salted per
        # process, so a shipped hash would be wrong in a pool worker.
        return {
            "_labels": np.array(self._labels, dtype=np.int64),
            "_offsets": np.array(self._offsets, dtype=np.int64),
            "_neighbors": np.array(self._neighbors, dtype=np.int64),
            "_num_edges": self._num_edges,
        }

    def __setstate__(self, state: dict) -> None:
        self._labels = state["_labels"]
        self._offsets = state["_offsets"]
        self._neighbors = state["_neighbors"]
        self._num_edges = state["_num_edges"]
        self._degrees = np.diff(self._offsets)
        self._label_index = self._build_label_index(self._labels, None)
        self._forget()

    def __repr__(self) -> str:
        return (
            f"Graph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"|Σ|={len(self._label_index)})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            np.array_equal(self._labels, other._labels)
            and np.array_equal(self._offsets, other._offsets)
            and np.array_equal(self._neighbors, other._neighbors)
        )

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash(
                (
                    self.num_vertices,
                    self.num_edges,
                    self._labels.tobytes(),
                    self._neighbors.tobytes(),
                )
            )
        return value
