"""Incremental candidate-set maintenance under graph mutation.

The static filters (Section 3.1) recompute ``C(u)`` from scratch; on a
mutating graph that redoes work whose inputs did not change. This module
maintains candidate sets *exactly* under ``add_edge`` / ``remove_edge``
/ ``add_vertex`` by delta-propagating through the refinement rules —
the DCS/TurboFlux idea of keeping per-(query-edge, data-vertex) support
counters and walking a worklist only over the frontier reachable from
the touched vertices.

Semantics
---------
Candidacy is defined by a stratified two-pass recursion over a
deterministic query DAG (a BFS orientation rooted at the
smallest-id max-degree query vertex — a function of the query alone, so
data mutations never change the DAG):

* ``seed(u, v)``: ``L(v) = L(u)``, ``d(v) ≥ d(u)``, and NLF containment
  (the LDF+NLF filter of Section 3.1.1);
* bottom-up ``d1(u, v)``: ``seed(u, v)`` and every DAG-child ``c`` of
  ``u`` has a neighbor of ``v`` in ``D1(c)``;
* top-down ``d2(u, v)``: ``d1(u, v)`` and every DAG-parent ``p`` of
  ``u`` has a neighbor of ``v`` in ``D2(p)`` — ``C(u) = D2(u)``.

The recursion is acyclic in the query DAG, so it has a *unique*
solution; any genuine embedding survives both passes by induction
(children/parents of ``φ(u)`` are adjacent and candidates themselves),
so the sets are complete in the sense of Definition 2.2 and safe to
hand to any enumeration engine.

Maintenance keeps the support counters
``cnt1[(u, c)][v] = |N(v) ∩ D1(c)|`` and
``cnt2[(u, p)][v] = |N(v) ∩ D2(p)|`` consistent at all times. A
mutation batch (a) re-evaluates ``seed`` only at the touched endpoints
(labels and NLFs elsewhere are untouched), (b) folds the edge delta
into the counters, and (c) drains a recheck worklist: a membership flip
at ``(u, v)`` adjusts the counters of ``v``'s data-neighbors for the
adjacent query vertices and enqueues only those whose counter crossed
the 0↔1 boundary. Because the counters are exact and the defining
recursion is stratified, the quiescent state is the unique solution —
``apply_delta`` lands on byte-for-byte the same sets as
:meth:`IncrementalCandidates.rebuild` from scratch, which is exactly
what the mutate-then-match differential layer in ``repro.qa`` asserts.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Tuple, Union

import numpy as np

from repro.filtering.base import ldf_check, nlf_candidates_for, nlf_check
from repro.filtering.candidates import CandidateSets
from repro.graph.graph import Graph
from repro.dynamic.overlay import DynamicGraph, MutationDelta

__all__ = ["IncrementalCandidates", "query_dag"]

GraphLike = Union[Graph, DynamicGraph]


def query_dag(query: Graph) -> Tuple[List[int], Dict[int, List[int]], Dict[int, List[int]]]:
    """Deterministic BFS DAG of the query: (topo order, parents, children).

    Rooted at the smallest-id maximum-degree vertex; every query edge is
    oriented from lower BFS level to higher, same-level edges from lower
    id to higher. The orientation depends only on the query, so it is
    stable across data mutations.
    """
    n = query.num_vertices
    degrees = [query.degree(u) for u in range(n)]
    root = min(range(n), key=lambda u: (-degrees[u], u))
    level = {root: 0}
    frontier = [root]
    while frontier:
        nxt: List[int] = []
        for u in frontier:
            for w in query.neighbors(u).tolist():
                if w not in level:
                    level[w] = level[u] + 1
                    nxt.append(w)
        frontier = sorted(nxt)
    order = sorted(range(n), key=lambda u: (level[u], u))
    parents: Dict[int, List[int]] = {u: [] for u in range(n)}
    children: Dict[int, List[int]] = {u: [] for u in range(n)}
    for u in range(n):
        for w in query.neighbors(u).tolist():
            if u >= w:
                continue
            lo, hi = (u, w) if (level[u], u) < (level[w], w) else (w, u)
            children[lo].append(hi)
            parents[hi].append(lo)
    return order, parents, children


def _count_hits(data: Graph, member: np.ndarray) -> np.ndarray:
    """``out[v] = |N(v) ∩ M|`` for every data vertex, one vectorized pass."""
    offsets, neighbors = data.csr
    cs = np.zeros(neighbors.size + 1, dtype=np.int64)
    np.cumsum(member[neighbors], out=cs[1:])
    return cs[offsets[1:]] - cs[offsets[:-1]]


class IncrementalCandidates:
    """Exactly-maintained candidate sets over a mutating data graph.

    Build once against the current graph (a full vectorized two-pass
    computation), then feed each :class:`MutationDelta` to
    :meth:`apply_delta`. :meth:`rebuild` recomputes the same state from
    scratch on the current graph — the differential oracle.

    Examples
    --------
    >>> data = DynamicGraph(Graph(labels=[0, 1, 0, 1], edges=[(0, 1), (1, 2), (2, 3)]))
    >>> query = Graph(labels=[0, 1, 0], edges=[(0, 1), (1, 2)])
    >>> inc = IncrementalCandidates(query, data)
    >>> inc.apply_delta(data.add_edge(3, 0))
    >>> inc.equal_state(inc.rebuild())
    True
    """

    def __init__(self, query: Graph, data: GraphLike) -> None:
        self.query = query
        self.data = data
        self.order, self.parents, self.children = query_dag(query)
        self.counters: Dict[str, int] = {
            "dynamic.seed_checks": 0,
            "dynamic.rechecks": 0,
            "dynamic.flips": 0,
            "dynamic.cnt_updates": 0,
        }
        self._epoch = data.epoch if isinstance(data, DynamicGraph) else 0
        self._build()

    # ------------------------------------------------------------------
    # Graph access through the overlay (or a plain Graph)
    # ------------------------------------------------------------------

    def _static(self) -> Graph:
        """The current graph as an immutable ``Graph`` (for vectorized passes)."""
        if isinstance(self.data, DynamicGraph):
            return self.data.snapshot()
        return self.data

    def _adj(self, v: int) -> List[int]:
        if isinstance(self.data, DynamicGraph):
            return self.data.neighbors(v)
        return self.data.neighbors(v).tolist()

    def _seed_ok(self, u: int, v: int) -> bool:
        self.counters["dynamic.seed_checks"] += 1
        return ldf_check(self.query, u, self.data, v) and nlf_check(
            self.query, u, self.data, v
        )

    # ------------------------------------------------------------------
    # From-scratch build (also the differential oracle)
    # ------------------------------------------------------------------

    def _build(self) -> None:
        g = self._static()
        q = self.query
        n = g.num_vertices
        nq = q.num_vertices

        seed = np.zeros((nq, n), dtype=bool)
        for u in range(nq):
            seed[u, nlf_candidates_for(q, u, g)] = True
        self.seed = seed

        d1 = np.zeros((nq, n), dtype=bool)
        cnt1: Dict[Tuple[int, int], np.ndarray] = {}
        for u in reversed(self.order):
            keep = seed[u].copy()
            for c in self.children[u]:
                cnt = _count_hits(g, d1[c])
                cnt1[(u, c)] = cnt
                keep &= cnt > 0
            d1[u] = keep
        self.d1 = d1

        d2 = np.zeros((nq, n), dtype=bool)
        cnt2: Dict[Tuple[int, int], np.ndarray] = {}
        for u in self.order:
            keep = d1[u].copy()
            for p in self.parents[u]:
                cnt = _count_hits(g, d2[p])
                cnt2[(u, p)] = cnt
                keep &= cnt > 0
            d2[u] = keep
        self.d2 = d2
        self.cnt1 = cnt1
        self.cnt2 = cnt2

    def rebuild(self) -> "IncrementalCandidates":
        """A fresh instance computed from scratch on the current graph."""
        return IncrementalCandidates(self.query, self._static())

    # ------------------------------------------------------------------
    # Delta maintenance
    # ------------------------------------------------------------------

    def apply_delta(self, delta: MutationDelta) -> None:
        """Fold one applied mutation batch into the maintained state."""
        if delta.empty:
            return
        if not isinstance(self.data, DynamicGraph):
            raise ValueError("apply_delta requires a DynamicGraph-backed state")
        if delta.epoch != self._epoch + 1 or self.data.epoch != delta.epoch:
            raise ValueError(
                f"delta epoch {delta.epoch} does not follow state epoch "
                f"{self._epoch} (graph at {self.data.epoch}); deltas must be "
                "applied immediately and in order"
            )
        self._epoch = delta.epoch
        nq = self.query.num_vertices

        grow = len(delta.added_vertices)
        if grow:
            pad_b = np.zeros((nq, grow), dtype=bool)
            self.seed = np.concatenate([self.seed, pad_b], axis=1)
            self.d1 = np.concatenate([self.d1, pad_b], axis=1)
            self.d2 = np.concatenate([self.d2, pad_b], axis=1)
            pad_i = np.zeros(grow, dtype=np.int64)
            for key in self.cnt1:
                self.cnt1[key] = np.concatenate([self.cnt1[key], pad_i])
            for key in self.cnt2:
                self.cnt2[key] = np.concatenate([self.cnt2[key], pad_i])

        work: deque = deque()

        # (a) seed re-evaluation at touched endpoints: only their degree
        # and NLF changed; everyone else's seed verdict is untouched.
        for v in delta.touched:
            for u in range(nq):
                now = self._seed_ok(u, v)
                if now != bool(self.seed[u, v]):
                    self.seed[u, v] = now
                    work.append(("d1", u, v))

        # (b) fold the edge delta into the support counters. Memberships
        # have not moved yet, so "count neighbors in D" changes exactly
        # at the endpoints, by the membership of the opposite endpoint.
        for edges, sign in ((delta.added_edges, 1), (delta.removed_edges, -1)):
            for a, b in edges:
                for u in range(nq):
                    for c in self.children[u]:
                        self._bump(self.cnt1, (u, c), a, self.d1[c, b], sign, "d1", u, work)
                        self._bump(self.cnt1, (u, c), b, self.d1[c, a], sign, "d1", u, work)
                    for p in self.parents[u]:
                        self._bump(self.cnt2, (u, p), a, self.d2[p, b], sign, "d2", u, work)
                        self._bump(self.cnt2, (u, p), b, self.d2[p, a], sign, "d2", u, work)

        self._drain(work)

    def _bump(
        self,
        table: Dict[Tuple[int, int], np.ndarray],
        key: Tuple[int, int],
        v: int,
        opposite_member: bool,
        sign: int,
        kind: str,
        u: int,
        work: deque,
    ) -> None:
        if not opposite_member:
            return
        arr = table[key]
        arr[v] += sign
        self.counters["dynamic.cnt_updates"] += 1
        if (sign > 0 and arr[v] == 1) or (sign < 0 and arr[v] == 0):
            work.append((kind, u, v))

    def _drain(self, work: deque) -> None:
        """Drain the recheck worklist to quiescence.

        Chaotic iteration of a stratified (query-DAG-acyclic) recursion:
        every enqueued recheck compares stored membership against its
        defining predicate under the *current* counters; a flip adjusts
        the counters it supports and enqueues only boundary crossings.
        Quiescence therefore means every local equation holds — the
        unique solution.
        """
        while work:
            kind, u, v = work.popleft()
            self.counters["dynamic.rechecks"] += 1
            if kind == "d1":
                want = bool(self.seed[u, v]) and all(
                    self.cnt1[(u, c)][v] > 0 for c in self.children[u]
                )
                if want != bool(self.d1[u, v]):
                    self.d1[u, v] = want
                    self.counters["dynamic.flips"] += 1
                    sign = 1 if want else -1
                    for p in self.parents[u]:
                        for w in self._adj(v):
                            self._bump(self.cnt1, (p, u), w, True, sign, "d1", p, work)
                    # d2 at (u, v) conjoins d1 — recheck it on a d1 flip.
                    work.append(("d2", u, v))
            else:
                want = bool(self.d1[u, v]) and all(
                    self.cnt2[(u, p)][v] > 0 for p in self.parents[u]
                )
                if want != bool(self.d2[u, v]):
                    self.d2[u, v] = want
                    self.counters["dynamic.flips"] += 1
                    sign = 1 if want else -1
                    for c in self.children[u]:
                        for w in self._adj(v):
                            self._bump(self.cnt2, (c, u), w, True, sign, "d2", c, work)

    # ------------------------------------------------------------------
    # Views and comparison
    # ------------------------------------------------------------------

    def candidate_sets(self) -> CandidateSets:
        """The maintained sets as the pipeline's shared container."""
        return CandidateSets(
            self.query,
            [np.flatnonzero(self.d2[u]) for u in range(self.query.num_vertices)],
        )

    def equal_state(self, other: "IncrementalCandidates") -> bool:
        """Whether the full maintained state (sets *and* counters) matches."""
        if not (
            np.array_equal(self.seed, other.seed)
            and np.array_equal(self.d1, other.d1)
            and np.array_equal(self.d2, other.d2)
        ):
            return False
        for key in self.cnt1:
            if not np.array_equal(self.cnt1[key], other.cnt1[key]):
                return False
        for key in self.cnt2:
            if not np.array_equal(self.cnt2[key], other.cnt2[key]):
                return False
        return True
