"""Continuous queries: ``subscribe(query)`` over a mutating graph.

A :class:`Subscription` registers a query against a
:class:`~repro.dynamic.overlay.DynamicGraph` and, after every mutation
batch, reports the exact embedding delta:

* **removed** embeddings are stored ones whose image uses a removed
  edge (vertices are never deleted, so that is the only way to die);
* **added** embeddings must use at least one newly-inserted data edge —
  so instead of re-matching the whole graph, each added edge ``(a, b)``
  is pinned onto each label-compatible query edge ``(u0, u1)`` in both
  orientations and the remaining query vertices are enumerated over the
  incrementally-maintained candidate sets, restricted so ``C(u0) = {a}``
  and ``C(u1) = {b}``.

Each per-edge enumeration is one frame-machine ``run()`` over a prepared
query of the pinned candidates, so delta work is proportional to the
delta (plus the candidate maintenance), never to the number of
embeddings that did not change.
Duplicates (an embedding using two new edges is discovered from both)
collapse in the result set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import InvalidQueryError
from repro.filtering.candidates import CandidateSets
from repro.graph.graph import Graph
from repro.enumeration.frames import FrameMachine
from repro.enumeration.local_candidates import IntersectionLC
from repro.dynamic.incremental import IncrementalCandidates
from repro.dynamic.overlay import DynamicGraph, MutationDelta

__all__ = ["Subscription", "SubscriptionUpdate"]

Embedding = Tuple[int, ...]


@dataclass(frozen=True)
class SubscriptionUpdate:
    """The exact embedding delta produced by one mutation batch."""

    epoch: int
    added: Tuple[Embedding, ...]
    removed: Tuple[Embedding, ...]

    @property
    def empty(self) -> bool:
        return not (self.added or self.removed)


class Subscription:
    """A standing query whose embedding set tracks the graph.

    Parameters
    ----------
    query:
        The pattern (same validity rules as ``match``: connected, at
        least 3 vertices).
    data:
        The resident :class:`DynamicGraph`.
    kernel:
        Intersection-kernel registry name for the enumeration (``None``
        defers to ``REPRO_KERNEL`` / the auto rule).
    match_limit:
        Safety cap on stored embeddings; exceeding it raises rather
        than silently truncating the standing result set. Each
        enumeration stops one match past the cap, so a query with far
        more embeddings raises without materialising them.
    """

    def __init__(
        self,
        query: Graph,
        data: DynamicGraph,
        kernel: Optional[str] = None,
        match_limit: int = 100_000,
    ) -> None:
        # The plan layer imports this package (sessions own subscriptions),
        # so its helpers are imported at the call, not at module level.
        from repro.core.plan import validate_query

        validate_query(query)
        self.query = query
        self.data = data
        self._kernel = kernel
        self._match_limit = match_limit
        self.candidates = IncrementalCandidates(query, data)
        self._matches: Set[Embedding] = set(
            self._enumerate(self.candidates.candidate_sets())
        )
        self._guard_limit()
        self.epoch = data.epoch

    # ------------------------------------------------------------------

    @property
    def num_matches(self) -> int:
        return len(self._matches)

    def matches(self) -> List[Embedding]:
        """The current embedding set, sorted (each tuple is indexed by
        query vertex id)."""
        return sorted(self._matches)

    def mappings(self) -> List[Dict[int, int]]:
        """The current embeddings as ``{query_vertex: data_vertex}`` dicts."""
        return [
            {u: v for u, v in enumerate(row)} for row in self.matches()
        ]

    # ------------------------------------------------------------------

    def on_delta(self, delta: MutationDelta) -> SubscriptionUpdate:
        """Fold one applied mutation batch; report the embedding delta.

        A delta at or below the subscription's epoch is a no-op — it was
        already incorporated (a subscription created after a batch was
        applied starts current, and the service fans one delta out to
        several sessions).
        """
        if delta.empty or delta.epoch <= self.epoch:
            return SubscriptionUpdate(epoch=self.epoch, added=(), removed=())
        self.candidates.apply_delta(delta)
        self.epoch = delta.epoch

        removed: List[Embedding] = []
        if delta.removed_edges:
            gone = set(delta.removed_edges)
            q_edges = list(self.query.edges())
            for emb in self._matches:
                for u, w in q_edges:
                    a, b = emb[u], emb[w]
                    if ((a, b) if a < b else (b, a)) in gone:
                        removed.append(emb)
                        break
            self._matches.difference_update(removed)

        added: List[Embedding] = []
        if delta.added_edges:
            candidates = self.candidates.candidate_sets()
            for a, b in delta.added_edges:
                for u0, u1 in self.query.edges():
                    for x, y in ((a, b), (b, a)):
                        if not (candidates.contains(u0, x) and candidates.contains(u1, y)):
                            continue
                        for emb in self._enumerate(candidates, {u0: [x], u1: [y]}):
                            if emb not in self._matches:
                                self._matches.add(emb)
                                added.append(emb)
        self._guard_limit()
        return SubscriptionUpdate(
            epoch=self.epoch, added=tuple(sorted(added)), removed=tuple(sorted(removed))
        )

    # ------------------------------------------------------------------

    def _guard_limit(self) -> None:
        if len(self._matches) > self._match_limit:
            raise InvalidQueryError(
                f"subscription exceeds match_limit={self._match_limit}"
            )

    def _order_from(self, root: int) -> List[int]:
        """A BFS matching order rooted at ``root`` (connected prefixes)."""
        order = [root]
        seen = {root}
        i = 0
        while i < len(order):
            for w in self.query.neighbors(order[i]).tolist():
                if w not in seen:
                    seen.add(w)
                    order.append(w)
            i += 1
        return order

    def _enumerate(
        self, candidates: CandidateSets, pinned: Optional[Dict[int, List[int]]] = None
    ) -> List[Embedding]:
        """Enumerate embeddings over the maintained candidate sets.

        ``pinned`` replaces the sets of a few query vertices (an added
        edge's anchors, each a candidate already); ``None`` enumerates
        the full set. At most ``match_limit + 1`` embeddings are
        enumerated: a truncated list already exceeds the cap, so
        :meth:`_guard_limit` raises as it would on the full list.
        """
        snapshot = self.data.snapshot()
        if pinned:
            candidates = CandidateSets(
                self.query,
                [pinned.get(u, candidates.array(u)) for u in range(len(candidates))],
            )
        if candidates.has_empty_set:
            return []
        from repro.core.plan import bind_enumeration

        prepared = bind_enumeration(
            IntersectionLC(),
            "all",
            self._kernel,
            self.query,
            snapshot,
            candidates,
            order=self._order_from(next(iter(pinned)) if pinned else 0),
        )
        limit = self._match_limit + 1
        return FrameMachine(prepared).run(
            self.query, snapshot, match_limit=limit, store_limit=limit
        ).embeddings
