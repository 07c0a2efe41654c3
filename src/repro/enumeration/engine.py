"""The recursive backtracking engine (the paper's Algorithm 1).

One engine drives every algorithm in the study. It is parameterized by

* a :class:`~repro.enumeration.local_candidates.LocalCandidateMethod`
  (Algorithms 2–5),
* a matching order φ (static), or DP-iso's adaptive selection state,
* the failing-sets optimization flag (Section 3.4),
* the paper's two run limits: a match cap (the paper stops at 10^5
  matches) and a wall-clock budget (the paper kills at five minutes and
  reports the query unsolved).

The recursion mirrors Algorithm 1 lines 4–12: select an extendable vertex,
compute ``LC(u, M)``, loop over candidates not already used, extend and
recurse.

This class is the *reference implementation*, not a selectable engine:
every served, benchmarked and study path runs the iterative
:class:`~repro.enumeration.frames.FrameMachine`, which must produce
byte-identical embeddings and identical counters. The parity suites under
``tests/`` construct this class beside the frame machine over one
prepared query and compare; under ``src/`` only the
:mod:`repro.enumeration` export imports it.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.errors import BudgetExceeded
from repro.filtering.auxiliary import AuxiliaryStructure
from repro.filtering.candidates import CandidateSets
from repro.graph.graph import Graph
from repro.enumeration.local_candidates import LCContext, LocalCandidateMethod
from repro.enumeration.stats import EnumerationOutcome, EnumerationStats
from repro.enumeration.support import (
    DEADLINE_STRIDE,
    AdaptiveSelector,
    EmbeddingStore,
    prepare_static_order,
)
from repro.ordering.dpiso import DPisoAdaptiveState
from repro.utils.timer import Deadline, Timer

__all__ = ["BacktrackingEngine"]


class _StopSearch(Exception):
    """Internal signal: the match cap was reached; unwind and report solved."""


class BacktrackingEngine:
    """Algorithm 1 with pluggable ComputeLC, ordering mode and failing sets.

    Parameters
    ----------
    lc_method:
        The local-candidate computation (Algorithm 2, 3, 4 or 5).
    use_failing_sets:
        Enable DP-iso's failing-sets pruning (Section 3.4).
    adaptive:
        When given, ignore the static order and run DP-iso's adaptive
        extendable-vertex selection against this state.
    """

    def __init__(
        self,
        lc_method: LocalCandidateMethod,
        use_failing_sets: bool = False,
        adaptive: Optional[DPisoAdaptiveState] = None,
    ) -> None:
        self.lc_method = lc_method
        self.use_failing_sets = use_failing_sets
        self.adaptive = adaptive

    # ------------------------------------------------------------------

    def run(
        self,
        query: Graph,
        data: Graph,
        candidates: Optional[CandidateSets],
        auxiliary: Optional[AuxiliaryStructure],
        order: Optional[Sequence[int]],
        tree_parent: Optional[Sequence[int]] = None,
        match_limit: Optional[int] = None,
        time_limit: Optional[float] = None,
        store_limit: int = 10_000,
        cancel: Optional[Callable[[], bool]] = None,
    ) -> EnumerationOutcome:
        """Enumerate matches of ``query`` in ``data``.

        ``order`` is the matching order φ (ignored in adaptive mode).
        ``tree_parent`` optionally designates ``u.p`` per query vertex (CFL
        must use its BFS-tree parent so Algorithm 4 hits the tree-scoped
        index); otherwise the φ-earliest backward neighbor is the parent.
        ``store_limit`` caps how many embeddings are retained (counting is
        unaffected). ``cancel`` is polled at the deadline stride;
        returning True aborts the search as unsolved.
        """
        n = query.num_vertices
        ctx = LCContext(
            query=query,
            data=data,
            candidates=candidates,
            auxiliary=auxiliary,
            mapping=[-1] * n,
            used={},
        )
        self.lc_method.prepare(ctx)

        self._ctx = ctx
        self._stats = EnumerationStats()
        self._deadline = Deadline(time_limit) if time_limit else None
        self._cancel = cancel
        self._tick = DEADLINE_STRIDE
        self._match_limit = match_limit
        self._num_matches = 0
        self._store = EmbeddingStore(store_limit)
        self._full_mask = (1 << n) - 1

        if self.adaptive is None:
            if order is None:
                raise ValueError("static mode requires a matching order")
            info = prepare_static_order(query, list(order), tree_parent)
            self._order = info.order
            self._backward = info.backward
            self._parent = info.parent
            self._backward_mask = info.backward_mask
            self._selector = None
        else:
            self._selector = AdaptiveSelector(
                self.lc_method, self.adaptive, ctx, self._stats
            )

        solved = True
        with Timer() as timer:
            try:
                if candidates is not None and candidates.has_empty_set:
                    pass  # no match possible; report zero immediately
                elif self.adaptive is not None:
                    if self.use_failing_sets:
                        self._search_adaptive_fs(0)
                    else:
                        self._search_adaptive(0)
                elif self.use_failing_sets:
                    self._search_static_fs(0)
                else:
                    self._search_static(0)
            except _StopSearch:
                pass
            except BudgetExceeded:
                solved = False

        return EnumerationOutcome(
            num_matches=self._num_matches,
            solved=solved,
            embeddings=self._store.as_tuples(),
            stats=self._stats,
            elapsed=timer.elapsed,
        )

    # ------------------------------------------------------------------
    # Shared plumbing
    # ------------------------------------------------------------------

    def _record_match(self) -> None:
        self._num_matches += 1
        self._store.append(self._ctx.mapping)
        if (
            self._match_limit is not None
            and self._num_matches >= self._match_limit
        ):
            raise _StopSearch

    def _check_budget(self) -> None:
        self._tick -= 1
        if self._tick <= 0:
            self._tick = DEADLINE_STRIDE
            if self._deadline is not None and self._deadline.expired():
                raise BudgetExceeded
            if self._cancel is not None and self._cancel():
                raise BudgetExceeded


    # ------------------------------------------------------------------
    # Static order
    # ------------------------------------------------------------------

    def _search_static(self, depth: int) -> None:
        stats = self._stats
        stats.recursion_calls += 1
        self._check_budget()
        ctx = self._ctx
        if depth == len(self._order):
            self._record_match()
            return
        u = self._order[depth]
        lc = self.lc_method.compute(
            ctx, u, self._backward[depth], self._parent[depth]
        )
        mapping, used = ctx.mapping, ctx.used
        for v in lc:
            stats.candidates_scanned += 1
            if v in used:
                stats.conflicts += 1
                continue
            mapping[u] = v
            used[v] = u
            self._search_static(depth + 1)
            del used[v]
            mapping[u] = -1

    def _search_static_fs(self, depth: int) -> int:
        """Failing-sets variant; returns the subtree's failing set bitmask."""
        stats = self._stats
        stats.recursion_calls += 1
        self._check_budget()
        ctx = self._ctx
        if depth == len(self._order):
            self._record_match()
            return self._full_mask
        u = self._order[depth]
        u_bit = 1 << u
        lc = self.lc_method.compute(
            ctx, u, self._backward[depth], self._parent[depth]
        )
        if len(lc) == 0:
            # Emptyset class: the failure involves u and the vertices whose
            # mappings determined LC(u, M).
            return u_bit | self._backward_mask[depth]
        mapping, used = ctx.mapping, ctx.used
        fs_total = 0
        for v in lc:
            stats.candidates_scanned += 1
            conflict_owner = used.get(v)
            if conflict_owner is not None:
                stats.conflicts += 1
                child = u_bit | (1 << conflict_owner)
            else:
                mapping[u] = v
                used[v] = u
                child = self._search_static_fs(depth + 1)
                del used[v]
                mapping[u] = -1
            if not child & u_bit:
                # The failure below does not involve u: mapping u to any
                # other candidate fails identically — skip the siblings.
                stats.failing_set_prunes += 1
                return child
            fs_total |= child
        return fs_total | self._backward_mask[depth]

    # ------------------------------------------------------------------
    # Adaptive order (DP-iso)
    # ------------------------------------------------------------------

    def _search_adaptive(self, depth: int) -> None:
        stats = self._stats
        stats.recursion_calls += 1
        self._check_budget()
        ctx = self._ctx
        if depth == ctx.query.num_vertices:
            self._record_match()
            return
        selection = self._selector.select()
        assert selection is not None, "connected query always has an extendable vertex"
        u, lc, _ = selection
        mapping, used = ctx.mapping, ctx.used
        for v in lc:
            stats.candidates_scanned += 1
            if v in used:
                stats.conflicts += 1
                continue
            mapping[u] = v
            used[v] = u
            self._search_adaptive(depth + 1)
            del used[v]
            mapping[u] = -1

    def _search_adaptive_fs(self, depth: int) -> int:
        stats = self._stats
        stats.recursion_calls += 1
        self._check_budget()
        ctx = self._ctx
        if depth == ctx.query.num_vertices:
            self._record_match()
            return self._full_mask
        selection = self._selector.select()
        assert selection is not None, "connected query always has an extendable vertex"
        u, lc, backward = selection
        u_bit = 1 << u
        backward_mask = 0
        for w in backward:
            backward_mask |= 1 << w
        if len(lc) == 0:
            return u_bit | backward_mask
        mapping, used = ctx.mapping, ctx.used
        fs_total = 0
        for v in lc:
            stats.candidates_scanned += 1
            conflict_owner = used.get(v)
            if conflict_owner is not None:
                stats.conflicts += 1
                child = u_bit | (1 << conflict_owner)
            else:
                mapping[u] = v
                used[v] = u
                child = self._search_adaptive_fs(depth + 1)
                del used[v]
                mapping[u] = -1
            if not child & u_bit:
                stats.failing_set_prunes += 1
                return child
            fs_total |= child
        return fs_total | backward_mask
