"""A mutable overlay over the immutable CSR :class:`~repro.graph.graph.Graph`.

The study's pipeline assumes an immutable data graph; serving traffic
does not. :class:`DynamicGraph` reconciles the two with the classic
log-structured split:

* an immutable **base** graph in canonical CSR form (any
  :class:`~repro.graph.store.GraphStore` backend — heap, ``.rgf``
  memmap, or shared memory — since the base is just a ``Graph`` view);
* a small mutable **overlay**: per-vertex sets of added and removed
  edges plus labels of appended vertices;
* an **epoch** counter, bumped once per applied mutation batch. Two
  reads at the same epoch observe the same graph; every cache in the
  stack (plan/prep caches in :class:`~repro.core.session.MatchSession`)
  keys on the epoch, which makes invalidation exact rather than
  heuristic.

Reads that matter to incremental candidate maintenance (``degree``,
``neighbors``, ``nlf``, ``has_edge``) are answered through the overlay
in O(overlay) extra work, so a delta pass never pays for a CSR rebuild.
:meth:`DynamicGraph.snapshot` materializes the current edge set as a
plain immutable ``Graph`` by **splicing**: it keeps the last
materialized snapshot (the base at epoch 0) and the set of vertices
touched since, copies the untouched neighbor runs of that snapshot in
bulk array slices, writes the overlay-resolved run of each touched
vertex between them and re-derives the offsets with one cumulative
sum. Per-vertex runs are sorted and the layout is canonical, so the
result is byte-identical to ``Graph(labels_list(), list(edges()))`` —
the from-scratch constructor call, which stays the independent oracle
of the property suite and of ``repro.qa``'s mutate-then-match
differential (a byte-level comparison, not a set-level one). The
constructor's per-edge validation is not skipped: :meth:`apply` has
already rejected out-of-range endpoints and self loops and skipped
duplicates.

When the overlay grows past ``compact_threshold`` × |E(base)| ops,
:meth:`compact` makes the current snapshot the base and empties the
overlay. Compaction changes the representation, never the graph: the
epoch does not move, and the property suite pins snapshot byte-parity
across arbitrary mutate/compact interleavings.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import InvalidGraphError
from repro.graph.graph import Graph
from repro.dynamic.mutations import (
    ADD_EDGE,
    ADD_VERTEX,
    REMOVE_EDGE,
    Mutation,
)

__all__ = ["DynamicGraph", "MutationDelta"]


@dataclass(frozen=True)
class MutationDelta:
    """What one applied batch actually changed.

    No-op mutations (re-adding a present edge, removing an absent one)
    do not appear; consumers can propagate the delta literally.
    """

    epoch: int
    added_edges: Tuple[Tuple[int, int], ...] = ()
    removed_edges: Tuple[Tuple[int, int], ...] = ()
    added_vertices: Tuple[Tuple[int, int], ...] = ()  # (vertex, label)
    touched: frozenset = field(default_factory=frozenset)

    @property
    def empty(self) -> bool:
        return not (self.added_edges or self.removed_edges or self.added_vertices)


def _norm(u: int, v: int) -> Tuple[int, int]:
    return (u, v) if u < v else (v, u)


class DynamicGraph:
    """A resident graph supporting ``add_edge``/``remove_edge``/``add_vertex``.

    Parameters
    ----------
    base:
        The initial immutable graph (any store backend).
    compact_threshold:
        Fold the overlay into a fresh canonical CSR base once the number
        of overlay edge ops exceeds this fraction of the base edge count
        (minimum 64 ops so tiny graphs don't thrash). ``None`` disables
        automatic compaction; :meth:`compact` stays available.

    Examples
    --------
    >>> g = DynamicGraph(Graph(labels=[0, 1, 0], edges=[(0, 1), (1, 2)]))
    >>> delta = g.apply([Mutation("add_edge", 0, 2)])
    >>> (g.epoch, delta.added_edges)
    (1, ((0, 2),))
    >>> g.snapshot().num_edges
    3
    """

    def __init__(
        self,
        base: Graph,
        *,
        compact_threshold: Optional[float] = 0.25,
    ) -> None:
        if compact_threshold is not None and compact_threshold <= 0:
            raise ValueError("compact_threshold must be positive or None")
        self._lock = threading.RLock()
        self._base = base
        self._compact_threshold = compact_threshold
        self._epoch = 0
        self._added_adj: Dict[int, Set[int]] = {}
        self._removed_adj: Dict[int, Set[int]] = {}
        self._extra_labels: List[int] = []
        self._num_edges = base.num_edges
        self._overlay_ops = 0
        # The last materialized snapshot and the vertices whose neighbor
        # runs changed since it; snapshot() splices the two.
        self._snapshot = base
        self._snapshot_epoch = 0
        self._dirty: Set[int] = set()
        self._compactions = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Mutation-batch counter; bumped once per non-empty :meth:`apply`."""
        return self._epoch

    @property
    def base(self) -> Graph:
        """The current immutable base (advances on :meth:`compact`)."""
        return self._base

    @property
    def num_vertices(self) -> int:
        return self._base.num_vertices + len(self._extra_labels)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def overlay_size(self) -> int:
        """Number of live overlay edge ops (added + removed)."""
        return self._overlay_ops

    @property
    def compactions(self) -> int:
        """How many times the overlay has been folded into the base."""
        return self._compactions

    def label(self, v: int) -> int:
        base_n = self._base.num_vertices
        if v < base_n:
            return self._base.label(v)
        return self._extra_labels[v - base_n]

    def degree(self, v: int) -> int:
        base_n = self._base.num_vertices
        base_deg = self._base.degree(v) if v < base_n else 0
        return (
            base_deg
            + len(self._added_adj.get(v, ()))
            - len(self._removed_adj.get(v, ()))
        )

    def has_edge(self, u: int, v: int) -> bool:
        if v in self._added_adj.get(u, ()):
            return True
        if v in self._removed_adj.get(u, ()):
            return False
        base_n = self._base.num_vertices
        if u < base_n and v < base_n:
            return self._base.has_edge(u, v)
        return False

    def neighbors(self, v: int) -> List[int]:
        """Sorted neighbor list of ``v`` through the overlay."""
        base_n = self._base.num_vertices
        removed = self._removed_adj.get(v)
        if v < base_n:
            if removed:
                out = [w for w in self._base.neighbors(v).tolist() if w not in removed]
            else:
                out = self._base.neighbors(v).tolist()
        else:
            out = []
        added = self._added_adj.get(v)
        if added:
            out.extend(added)
            out.sort()
        return out

    def nlf(self, v: int) -> Dict[int, int]:
        """Neighbor label frequency of ``v`` through the overlay."""
        counts: Dict[int, int] = {}
        for w in self.neighbors(v):
            lbl = self.label(w)
            counts[lbl] = counts.get(lbl, 0) + 1
        return counts

    def labels_list(self) -> List[int]:
        return self._base.labels.tolist() + list(self._extra_labels)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Yield each live undirected edge once as ``(u, v)``, ``u < v``."""
        for u, v in self._base.edges():
            if v not in self._removed_adj.get(u, ()):
                yield (u, v)
        for u in sorted(self._added_adj):
            for v in sorted(self._added_adj[u]):
                if u < v:
                    yield (u, v)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_edge(self, u: int, v: int) -> MutationDelta:
        return self.apply([Mutation(ADD_EDGE, u, v)])

    def remove_edge(self, u: int, v: int) -> MutationDelta:
        return self.apply([Mutation(REMOVE_EDGE, u, v)])

    def add_vertex(self, label: int) -> int:
        """Append a fresh isolated vertex; returns its id."""
        next_id = self.num_vertices
        self.apply([Mutation(ADD_VERTEX, label)])
        return next_id

    def apply(self, batch: Sequence[Mutation]) -> MutationDelta:
        """Apply one mutation batch atomically; bump the epoch once.

        Ops inside a batch see the effects of earlier ops in the same
        batch (an ``add_vertex`` followed by an ``add_edge`` to the new
        id is the canonical insert pattern). An entirely no-op batch
        leaves the epoch unchanged and returns an empty delta. A batch
        with an invalid op raises :class:`InvalidGraphError` before any
        op is recorded, and leaves the graph as it was.
        """
        with self._lock:
            self._check(batch)
            added: List[Tuple[int, int]] = []
            removed: List[Tuple[int, int]] = []
            new_vertices: List[Tuple[int, int]] = []
            touched: Set[int] = set()
            for mut in batch:
                if mut.op == ADD_VERTEX:
                    vid = self.num_vertices
                    self._extra_labels.append(int(mut.a))
                    new_vertices.append((vid, int(mut.a)))
                    touched.add(vid)
                    self._dirty.add(vid)
                    continue
                u, v = int(mut.a), int(mut.b)
                base_n = self._base.num_vertices
                in_base = (
                    u < base_n and v < base_n and self._base.has_edge(u, v)
                )
                if mut.op == ADD_EDGE:
                    if self.has_edge(u, v):
                        continue
                    if in_base:
                        # Re-adding a base edge cancels its removal record.
                        self._discard(self._removed_adj, u, v)
                    else:
                        self._record(self._added_adj, u, v)
                    self._num_edges += 1
                    added.append(_norm(u, v))
                else:
                    if not self.has_edge(u, v):
                        continue
                    if in_base:
                        self._record(self._removed_adj, u, v)
                    else:
                        # Removing an overlay edge cancels its insertion.
                        self._discard(self._added_adj, u, v)
                    self._num_edges -= 1
                    removed.append(_norm(u, v))
                touched.update((u, v))
                self._dirty.update((u, v))

            if not (added or removed or new_vertices):
                return MutationDelta(epoch=self._epoch)
            self._epoch += 1
            delta = MutationDelta(
                epoch=self._epoch,
                added_edges=tuple(added),
                removed_edges=tuple(removed),
                added_vertices=tuple(new_vertices),
                touched=frozenset(touched),
            )
            if self._compact_due():
                self.compact()
            return delta

    def _check(self, batch: Sequence[Mutation]) -> None:
        """Reject ``batch`` if any op in it is invalid — a self loop, an
        endpoint out of range, a negative label — before :meth:`apply`
        records anything. Ranges count the vertices the batch's own
        earlier ``add_vertex`` ops append."""
        n = self.num_vertices
        for mut in batch:
            if mut.op == ADD_VERTEX:
                if int(mut.a) < 0:
                    raise InvalidGraphError("labels must be non-negative integers")
                n += 1
                continue
            u, v = int(mut.a), int(mut.b)
            if u == v:
                raise InvalidGraphError(f"self loop on vertex {u} is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidGraphError(
                    f"edge ({u}, {v}) out of range for {n} vertices"
                )

    # apply() records an op only when it is absent and discards one only
    # when it is present, so each call moves the live op count by one.

    def _record(self, adj: Dict[int, Set[int]], u: int, v: int) -> None:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
        self._overlay_ops += 1

    def _discard(self, adj: Dict[int, Set[int]], u: int, v: int) -> None:
        for a, b in ((u, v), (v, u)):
            entry = adj[a]
            entry.remove(b)
            if not entry:
                del adj[a]
        self._overlay_ops -= 1

    def _compact_due(self) -> bool:
        if self._compact_threshold is None:
            return False
        floor = max(64, int(self._compact_threshold * self._base.num_edges))
        return self.overlay_size > floor

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------

    def snapshot(self) -> Graph:
        """The current graph as an immutable canonical-CSR ``Graph``.

        Cached per epoch. A new epoch's snapshot is spliced from the
        previous one: the neighbor runs of untouched vertices are copied
        in bulk slices, the runs of vertices touched since are written
        from :meth:`neighbors`, and the offsets follow from one
        ``cumsum`` over the patched degrees — work proportional to the
        touched set plus a ``memcpy`` of the rest, and byte-identical
        (labels/offsets/neighbors arrays) to
        ``Graph(labels_list(), list(edges()))`` built from scratch.
        Every array is freshly allocated except ``labels`` and the label
        index, which are shared with the previous snapshot while no vertex
        was appended; the neighbour-label columns the previous snapshot
        holds are handed on, to be patched at the touched vertices when
        first read (:meth:`Graph._inherit_label_counts`). Nothing an
        earlier snapshot holds is ever written again.
        """
        with self._lock:
            if self._snapshot_epoch != self._epoch:
                self._snapshot = self._splice(self._snapshot)
                self._snapshot_epoch = self._epoch
                self._dirty = set()
            return self._snapshot

    def _splice(self, prev: Graph) -> Graph:
        """``prev`` with the runs of every dirty vertex rewritten."""
        prev_n = prev.num_vertices
        n = self.num_vertices
        prev_offsets, prev_neighbors = prev.csr
        prev_m = int(prev_neighbors.size)
        labels = prev.labels
        if n > prev_n:
            appended = self._extra_labels[prev_n - n:]
            labels = np.concatenate(
                [labels, np.asarray(appended, dtype=np.int64)]
            )

        dirty = sorted(self._dirty)
        runs = [self.neighbors(v) for v in dirty]
        degrees = np.zeros(n, dtype=np.int64)
        degrees[:prev_n] = prev.degrees
        degrees[dirty] = [len(run) for run in runs]
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])

        neighbors = np.empty(int(offsets[n]), dtype=np.int64)
        src = dst = 0
        for v, run in zip(dirty, runs):
            # Untouched runs between the previous dirty vertex and v.
            stop = int(prev_offsets[v]) if v < prev_n else prev_m
            neighbors[dst:dst + stop - src] = prev_neighbors[src:stop]
            dst += stop - src
            neighbors[dst:dst + len(run)] = run
            dst += len(run)
            src = int(prev_offsets[v + 1]) if v < prev_n else prev_m
        neighbors[dst:] = prev_neighbors[src:]
        if labels is prev.labels:
            # The label index is a function of the labels alone and is
            # never written: share it instead of re-sorting |V| labels.
            graph = Graph._adopt(
                labels, offsets, neighbors, self._num_edges, prev._label_index
            )
        else:
            graph = Graph.from_csr(labels, offsets, neighbors, self._num_edges)
        graph._inherit_label_counts(prev, np.asarray(dirty, dtype=np.int64))
        return graph

    def versioned_snapshot(self) -> Tuple[int, Graph]:
        """``(epoch, snapshot)`` read atomically under the graph lock.

        Consumers that pair the two (a session pinning its resident
        view) must use this instead of reading ``epoch`` and calling
        :meth:`snapshot` separately, which could interleave with a
        concurrent :meth:`apply`.
        """
        with self._lock:
            return self._epoch, self.snapshot()

    def compact(self) -> Graph:
        """Make the current snapshot the base and empty the overlay.

        The epoch is untouched — compaction changes the representation,
        not the graph. Returns the new base.
        """
        with self._lock:
            base = self.snapshot()
            self._base = base
            self._added_adj = {}
            self._removed_adj = {}
            self._extra_labels = []
            self._overlay_ops = 0
            self._compactions += 1
            return base

    def __repr__(self) -> str:
        return (
            f"DynamicGraph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"epoch={self._epoch}, overlay={self.overlay_size})"
        )
