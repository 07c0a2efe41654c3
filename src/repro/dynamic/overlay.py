"""A mutable overlay over the immutable CSR :class:`~repro.graph.graph.Graph`.

The study's pipeline assumes an immutable data graph; serving traffic
does not. :class:`DynamicGraph` reconciles the two with the classic
log-structured split:

* an immutable **base** graph in canonical CSR form: the graph it was
  built over (any :class:`~repro.graph.store.GraphStore` backend — heap,
  ``.rgf`` memmap, or shared memory), later the last snapshot;
* a small mutable **overlay**: per-vertex sets of edges added and
  removed since the base, plus labels of appended vertices;
* an **epoch** counter, bumped once per applied mutation batch. Two
  reads at the same epoch observe the same graph; every cache in the
  stack (plan/prep caches in :class:`~repro.core.session.MatchSession`)
  keys on the epoch, which makes invalidation exact rather than
  heuristic.

Reads that matter to incremental candidate maintenance (``degree``,
``neighbors``, ``nlf``, ``has_edge``) are answered through the overlay
in O(overlay) extra work, so a delta pass never pays for a CSR rebuild.
:meth:`DynamicGraph.snapshot` materializes the current edge set as a
plain immutable ``Graph`` by **splicing**: it copies the base's neighbor
runs in bulk array slices, writes the overlay-resolved run of each
vertex the overlay names between them and re-derives the offsets with
one cumulative sum. Runs are sorted and the layout is canonical, so the
result is byte-identical to the graph built from scratch — which the
property suite and ``repro.qa``'s mutate-then-match differential build
from a plain edge-set replay of the mutation script
(:func:`repro.qa.replay_script`), reading nothing this class writes.
The constructor's per-edge validation is not skipped: :meth:`apply` has
already rejected out-of-range endpoints and self loops and skipped
duplicates.

An :meth:`apply` that finds the snapshot current rebases onto it: the
snapshot becomes the base and the overlay empties, so the overlay holds
only the changes since the last snapshot. With nobody reading, ``apply``
snapshots and rebases once the overlay passes ``OVERLAY_SHARE`` ×
|E(base)| ops (at least ``OVERLAY_FLOOR``). Rebasing changes the
representation, never the graph: the epoch does not move.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.errors import InvalidGraphError
from repro.graph.graph import Graph
from repro.dynamic.mutations import (
    ADD_EDGE,
    ADD_VERTEX,
    REMOVE_EDGE,
    Mutation,
    op_error,
)

__all__ = ["DynamicGraph", "MutationDelta", "OVERLAY_FLOOR", "OVERLAY_SHARE"]

#: Once the overlay holds more edge ops than this share of the base's
#: edges, :meth:`DynamicGraph.apply` snapshots and rebases ...
OVERLAY_SHARE = 0.25
#: ... and never below this many ops, so tiny graphs do not thrash.
OVERLAY_FLOOR = 64


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

    Examples
    --------
    >>> g = DynamicGraph(Graph(labels=[0, 1, 0], edges=[(0, 1), (1, 2)]))
    >>> delta = g.apply([Mutation("add_edge", 0, 2)])
    >>> (g.epoch, delta.added_edges)
    (1, ((0, 2),))
    >>> g.snapshot().num_edges
    3
    """

    def __init__(self, base: Graph) -> None:
        self._lock = threading.RLock()
        self._base = base
        self._epoch = 0
        self._added_adj: Dict[int, Set[int]] = {}
        self._removed_adj: Dict[int, Set[int]] = {}
        self._extra_labels: List[int] = []
        self._num_edges = base.num_edges
        self._overlay_ops = 0
        # The last materialized snapshot: the base itself until a splice,
        # and the next base once an apply() finds it current.
        self._snapshot = base
        self._snapshot_epoch = 0
        self._rebases = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Mutation-batch counter; bumped once per non-empty :meth:`apply`."""
        return self._epoch

    @property
    def num_vertices(self) -> int:
        return self._base.num_vertices + len(self._extra_labels)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def overlay_size(self) -> int:
        """Live overlay edge ops (added + removed) since the last rebase."""
        return self._overlay_ops

    @property
    def compactions(self) -> int:
        """How many times :meth:`apply` has rebased onto a snapshot."""
        return self._rebases

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
        base = self._base
        if u >= base.num_vertices or v >= base.num_vertices:
            return False
        # A binary search in u's CSR run: Graph.has_edge would build a
        # frozenset per vertex on a base that was spliced a moment ago.
        run = base.neighbors(u)
        i = int(run.searchsorted(v))
        return i < run.size and int(run[i]) == v

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
        with an invalid op (:func:`~repro.dynamic.mutations.op_error`)
        raises :class:`InvalidGraphError` before any op is recorded, and
        leaves the graph as it was.
        """
        with self._lock:
            n = self.num_vertices
            for mut in batch:
                reason = op_error(mut, n)
                if reason is not None:
                    raise InvalidGraphError(reason)
                n += mut.op == ADD_VERTEX
            if self._snapshot is not self._base and self._snapshot_epoch == self._epoch:
                self._rebase()
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
                    continue
                u, v = int(mut.a), int(mut.b)
                # The overlay never adds a base edge nor removes an absent
                # one, so presence and the two records decide every case.
                if mut.op == ADD_EDGE:
                    if self.has_edge(u, v):
                        continue
                    if v in self._removed_adj.get(u, ()):
                        # Re-adding a base edge cancels its removal record.
                        self._discard(self._removed_adj, u, v)
                    else:
                        self._record(self._added_adj, u, v)
                    self._num_edges += 1
                    added.append(_norm(u, v))
                else:
                    if not self.has_edge(u, v):
                        continue
                    if v in self._added_adj.get(u, ()):
                        # Removing an overlay edge cancels its insertion.
                        self._discard(self._added_adj, u, v)
                    else:
                        self._record(self._removed_adj, u, v)
                    self._num_edges -= 1
                    removed.append(_norm(u, v))
                touched.update((u, v))

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
            bound = max(OVERLAY_FLOOR, int(OVERLAY_SHARE * self._base.num_edges))
            if self._overlay_ops > bound:
                self._rebase()
            return delta

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

    def _rebase(self) -> None:
        """Make the current snapshot the base and empty the overlay (inside
        :meth:`apply` only, under the graph lock)."""
        self._base = self.snapshot()
        self._added_adj = {}
        self._removed_adj = {}
        self._extra_labels = []
        self._overlay_ops = 0
        self._rebases += 1

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------

    def snapshot(self) -> Graph:
        """The current graph as an immutable canonical-CSR ``Graph``.

        Cached per epoch. A new epoch's snapshot is spliced from the
        base: the neighbor runs of vertices the overlay does not name are
        copied in bulk slices, the others are written from
        :meth:`neighbors`, and the offsets follow from one ``cumsum``
        over the patched degrees — work proportional to the overlay plus
        a ``memcpy`` of the rest. Every array is freshly allocated except
        ``labels`` and the label index, which are shared with the base
        while no vertex was appended; the neighbour-label columns the
        base holds are handed on, to be patched at the rewritten vertices
        when first read (:meth:`Graph._inherit_label_counts`). Nothing an
        earlier snapshot holds is ever written again, and nothing here
        writes the overlay: a reader may call this beside another's
        overlay reads.
        """
        with self._lock:
            if self._snapshot_epoch != self._epoch:
                self._snapshot = self._splice()
                self._snapshot_epoch = self._epoch
            return self._snapshot

    def _splice(self) -> Graph:
        """The base with the run of every vertex the overlay touches rewritten."""
        prev = self._base
        prev_n = prev.num_vertices
        n = self.num_vertices
        prev_offsets, prev_neighbors = prev.csr
        prev_m = int(prev_neighbors.size)
        labels = prev.labels
        if self._extra_labels:
            labels = np.concatenate(
                [labels, np.asarray(self._extra_labels, dtype=np.int64)]
            )

        dirty = sorted(
            self._added_adj.keys() | self._removed_adj.keys() | set(range(prev_n, n))
        )
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
        # The label index is a function of the labels alone and is never
        # written: share it instead of re-sorting |V| labels.
        label_index = (
            prev._label_index
            if labels is prev.labels
            else Graph._build_label_index(labels, None)
        )
        graph = Graph._adopt(
            labels, offsets, neighbors, degrees, self._num_edges, label_index
        )
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

    def __repr__(self) -> str:
        return (
            f"DynamicGraph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"epoch={self._epoch}, overlay={self.overlay_size})"
        )
