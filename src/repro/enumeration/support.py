"""Plumbing shared by the engine and its recursive reference.

The iterative :class:`~repro.enumeration.frames.FrameMachine` and the
recursive reference the parity tests compare it with
(:mod:`repro.enumeration.engine`) need the same three pieces, factored
here so they cannot drift apart:

* :func:`prepare_static_order` — per-depth backward neighbors, designated
  parent ``u.p`` and failing-set backward masks for a static order φ
  (defined beside the ComputeLC methods that bind it, re-exported here);
* :class:`EmbeddingStore` — the capped list of retained embeddings, each
  a tuple of plain ints built where the match is found;
* :class:`AdaptiveSelector` — DP-iso's extendable-vertex selection with
  ComputeLC memoization: a vertex's local candidates are fully determined
  by its backward neighbors' current mappings (for mapping-determined
  methods), so re-selection at the next search node reuses the list
  instead of recomputing it. Saved calls are counted in
  ``EnumerationStats.adaptive_lc_reused``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.enumeration.local_candidates import (
    LCContext,
    LocalCandidateMethod,
    StaticOrderInfo,
    prepare_static_order,
)
from repro.enumeration.stats import EnumerationStats
from repro.ordering.dpiso import DPisoAdaptiveState

__all__ = [
    "DEADLINE_STRIDE",
    "StaticOrderInfo",
    "prepare_static_order",
    "EmbeddingStore",
    "AdaptiveSelector",
]

#: How many Enumerate calls between cooperative deadline checks.
DEADLINE_STRIDE = 2048


class EmbeddingStore:
    """Retained embeddings: at most ``limit`` tuples of plain ints.

    The engines build each tuple where the match is found (the frame
    machine from its leaf batch, the reference per recorded match), so
    storing is a list append and the outcome is a copy of the list.
    """

    __slots__ = ("limit", "_rows")

    def __init__(self, limit: int) -> None:
        self.limit = max(0, int(limit))
        self._rows: List[Tuple[int, ...]] = []

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def room(self) -> int:
        """How many more embeddings fit."""
        return self.limit - len(self._rows)

    @property
    def full(self) -> bool:
        return len(self._rows) >= self.limit

    def append(self, mapping: Sequence[int]) -> None:
        """Store one full mapping (no-op once the limit is reached)."""
        if len(self._rows) < self.limit:
            self._rows.append(tuple(map(int, mapping)))

    def extend(self, embeddings: List[Tuple[int, ...]]) -> None:
        """Store a batch of plain-int tuples, truncated to the room left."""
        self._rows.extend(embeddings[: self.room])

    def truncate(self, count: int) -> None:
        """Roll back to ``count`` embeddings (pause/resume support)."""
        if not 0 <= count <= len(self._rows):
            raise ValueError(f"cannot truncate {len(self._rows)} rows to {count}")
        del self._rows[count:]

    def as_tuples(self) -> List[Tuple[int, ...]]:
        """The stored embeddings, in the order they were found."""
        return list(self._rows)


class AdaptiveSelector:
    """DP-iso extendable-vertex selection with local-candidate reuse.

    The original ``_select_adaptive`` recomputed ``lc_method.compute`` for
    *every* extendable vertex at *every* search node and discarded all but
    the winner's list. For mapping-determined ComputeLC methods the list
    for ``u`` depends only on the current mappings of ``u``'s backward
    neighbors (under the δ order), so it is memoized per vertex keyed by
    that mapping tuple; the estimated-work score rides along. Both engines
    share one selector implementation, which keeps their selection — and
    therefore their whole search trees — identical.
    """

    __slots__ = (
        "lc_method",
        "state",
        "ctx",
        "stats",
        "_n",
        "_backward",
        "_cacheable",
        "_cache",
    )

    def __init__(
        self,
        lc_method: LocalCandidateMethod,
        state: DPisoAdaptiveState,
        ctx: LCContext,
        stats: EnumerationStats,
    ) -> None:
        self.lc_method = lc_method
        self.state = state
        self.ctx = ctx
        self.stats = stats
        query = ctx.query
        position = state.position
        self._n = query.num_vertices
        # Backward neighbors under δ are static; only extendability (all
        # of them mapped) changes as the search proceeds.
        self._backward: List[List[int]] = []
        for u in range(self._n):
            backward = [
                w
                for w in query.neighbors(u).tolist()
                if position[w] < position[u]
            ]
            backward.sort(key=lambda w: position[w])
            self._backward.append(backward)
        self._cacheable = lc_method.mapping_determined
        #: Per-vertex (backward-mapping key, lc, estimated work) entry.
        self._cache: List[Optional[Tuple[Tuple[int, ...], Sequence[int], float]]] = [
            None
        ] * self._n

    def select(self) -> Optional[Tuple[int, Sequence[int], List[int]]]:
        """Pick the next vertex per DP-iso: least estimated work among
        extendable vertices, degree-one vertices last. Returns
        ``(u, local_candidates, backward_neighbors)``.
        """
        state = self.state
        mapping = self.ctx.mapping
        position = state.position
        degree_one = state.degree_one

        best: Optional[Tuple[int, Sequence[int], List[int]]] = None
        best_key: Optional[Tuple[int, float, int]] = None
        for u in range(self._n):
            if mapping[u] != -1:
                continue
            backward = self._backward[u]
            extendable = True
            for w in backward:
                if mapping[w] == -1:
                    extendable = False
                    break
            if not extendable:
                continue
            lc, work = self._lc_and_work(u, backward, mapping)
            degree_one_rank = 1 if u in degree_one else 0
            key = (degree_one_rank, work, position[u])
            if best_key is None or key < best_key:
                best = (u, lc, backward)
                best_key = key
        return best

    def _lc_and_work(
        self, u: int, backward: List[int], mapping: Sequence[int]
    ) -> Tuple[Sequence[int], float]:
        key = None
        if self._cacheable:
            key = tuple(int(mapping[w]) for w in backward)
            entry = self._cache[u]
            if entry is not None and entry[0] == key:
                self.stats.adaptive_lc_reused += 1
                return entry[1], entry[2]
        parent = backward[0] if backward else -1
        lc = self.lc_method.compute(self.ctx, u, backward, parent)
        work = self.state.estimated_work(u, list(lc))
        if key is not None:
            self._cache[u] = (key, lc, work)
        return lc, work
