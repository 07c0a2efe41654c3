"""ComputeLC: the local-candidate computation methods (Algorithms 2–5).

Section 3.3 is the study's third axis. All algorithms share the recursive
backtracking of Algorithm 1 but compute ``LC(u, M)`` differently:

* :class:`NeighborScanLC` — Algorithm 2 (QuickSI, RI): scan the data
  neighbors of ``M[u.p]``, check LDF and the remaining backward edges.
  Cost ``O(d_G · (α-1) · β)``.
* :class:`VF2ppLC` — Algorithm 2 plus VF2++'s extra label-count lookahead,
  whose overhead the paper finds exceeds its benefit (Figure 9).
* :class:`CandidateScanLC` — Algorithm 3 (GraphQL): scan the whole
  ``C(u)``, check all backward edges. Cost ``O(|C(u)| · α · β)``.
* :class:`TreeAdjacencyLC` — Algorithm 4 (CFL): read ``A_u^{u.p}(M[u.p])``
  from the tree-scoped index, verify the other backward edges.
* :class:`IntersectionLC` — Algorithm 5 (CECI, DP-iso, and every
  "optimized" variant): intersect ``A_u^{u'}(M[u'])`` over all backward
  neighbors. The paper's conclusion: this is the most efficient method,
  and retrofitting it onto QSI/GQL/CFL/2PP yields the Figure 9 speedups.

Each method receives the immutable :class:`LCContext` once and is then
called per search-tree node with the current partial embedding.

A static matching order fixes, per depth, which backward neighbors a
method will consult; :meth:`LocalCandidateMethod.bind` resolves that once
(:class:`StaticOrderInfo`) and materializes the auxiliary pairs the method
will read, so a prepared query pays neither per run. Algorithm 5 under
the ``rows`` kernel additionally binds the per-depth bitmap-row and
position-translation tables the frame machine runs on: there the local
candidates of a node are the AND of a few integers and ``compute`` is
never called.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.filtering.auxiliary import AuxiliaryStructure
from repro.filtering.base import ldf_candidates_for, ldf_check
from repro.filtering.candidates import CandidateSets
from repro.graph.graph import Graph
from repro.utils.kernels import KernelLike, RowsKernel, ScalarKernel, get_kernel

__all__ = [
    "LCContext",
    "StaticOrderInfo",
    "prepare_static_order",
    "LocalCandidateMethod",
    "NeighborScanLC",
    "VF2ppLC",
    "CandidateScanLC",
    "TreeAdjacencyLC",
    "IntersectionLC",
]


@dataclass
class LCContext:
    """Everything a ComputeLC method may consult.

    ``mapping[u]`` is the data vertex mapped to query vertex ``u`` (or -1);
    it is mutated by the engine as the search proceeds. ``candidates`` /
    ``auxiliary`` may be ``None`` for direct-enumeration algorithms.
    """

    query: Graph
    data: Graph
    candidates: Optional[CandidateSets]
    auxiliary: Optional[AuxiliaryStructure]
    mapping: List[int]
    #: Data vertices currently used, mapped back to their query vertex.
    used: Dict[int, int]


class StaticOrderInfo:
    """Per-depth artifacts of a static matching order φ.

    ``order``/``backward``/``parent``/``backward_mask`` are what
    :func:`prepare_static_order` derives from the query alone. A method
    bound to one query's artifacts (:meth:`LocalCandidateMethod.bind`)
    also records what it was bound to, and — Algorithm 5 on bitmap rows —
    the tables of the mask frames, all indexed by depth:

    * ``universe[d]`` / ``arrays[d]`` — ``C(order[d])`` as a list and as
      an int64 array; a frame's masks are over these positions;
    * ``ones[d]`` — the all-candidates mask ``(1 << |C(u)|) - 1``;
    * ``rows[d]`` — ``(w, rows of (w → u))`` per backward neighbor ``w``;
    * ``clash[d]`` — ``(w, translation of C(w) into C(u))`` for every
      earlier vertex whose candidates overlap ``C(u)``.

    ``rows`` is ``None`` when the method answers in lists.
    """

    __slots__ = (
        "order",
        "backward",
        "parent",
        "backward_mask",
        "bound_to",
        "universe",
        "arrays",
        "ones",
        "rows",
        "clash",
    )

    def __init__(
        self,
        order: List[int],
        backward: List[List[int]],
        parent: List[int],
        backward_mask: List[int],
    ) -> None:
        self.order = order
        self.backward = backward
        self.parent = parent
        self.backward_mask = backward_mask
        self.bound_to: Optional[tuple] = None
        self.universe: Optional[List[List[int]]] = None
        self.arrays: Optional[List[np.ndarray]] = None
        self.ones: Optional[List[int]] = None
        self.rows: Optional[List[Tuple[Tuple[int, List[int]], ...]]] = None
        self.clash: Optional[List[Tuple[Tuple[int, List[int]], ...]]] = None


def prepare_static_order(
    query: Graph,
    order: List[int],
    tree_parent: Optional[Sequence[int]],
) -> StaticOrderInfo:
    """Backward neighbors, parent ``u.p`` and fs masks per order position.

    ``tree_parent`` optionally designates ``u.p`` per query vertex (CFL
    must use its BFS-tree parent so Algorithm 4 hits the tree-scoped
    index); otherwise the φ-earliest backward neighbor is the parent.
    """
    position = {u: i for i, u in enumerate(order)}
    backward_lists: List[List[int]] = []
    parents: List[int] = []
    masks: List[int] = []
    for i, u in enumerate(order):
        backward = [
            w for w in query.neighbors(u).tolist() if position[w] < i
        ]
        backward.sort(key=lambda w: position[w])
        parent = -1
        if backward:
            parent = backward[0]
            if tree_parent is not None and tree_parent[u] in backward:
                parent = tree_parent[u]
        backward_lists.append(backward)
        parents.append(parent)
        mask = 0
        for w in backward:
            mask |= 1 << w
        masks.append(mask)
    return StaticOrderInfo(order, backward_lists, parents, masks)


def _binding(candidates, auxiliary, order, tree_parent) -> tuple:
    """What a :class:`StaticOrderInfo` was computed for: the per-query
    artifacts themselves (neither defines ``__eq__``, so tuples compare
    them by identity) and the value of the order."""
    return (
        candidates,
        auxiliary,
        tuple(order),
        None if tree_parent is None else tuple(tree_parent),
    )


class LocalCandidateMethod(ABC):
    """One ComputeLC strategy. Stateless across runs; bound via prepare()."""

    #: Short name for reports.
    name: str = "?"

    #: Whether this method needs candidate sets / an auxiliary structure.
    needs_candidates: bool = False
    needs_auxiliary: bool = False

    #: Whether ``compute(ctx, u, backward, parent)`` is fully determined
    #: by the current mappings of ``backward`` (plus the immutable
    #: context). True for Algorithms 2–5; methods that also consult
    #: ``ctx.used`` (the whole partial embedding) must set this False so
    #: the adaptive selector never serves them a stale memoized list.
    mapping_determined: bool = True

    #: Set on the copy :meth:`bind` returns: the static-order artifacts of
    #: the one prepared query that copy belongs to.
    static: Optional[StaticOrderInfo] = None

    def bind(
        self,
        query: Graph,
        candidates: Optional[CandidateSets],
        auxiliary: Optional[AuxiliaryStructure],
        order: Sequence[int],
        tree_parent: Optional[Sequence[int]] = None,
    ) -> "LocalCandidateMethod":
        """A copy of this method bound to one query's static order.

        Preprocessing calls this once per prepared query: the copy carries
        the :class:`StaticOrderInfo` every later run over the same
        artifacts reuses, and the auxiliary pairs the method reads have
        been materialized (in the form it reads them) — so neither is
        paid inside enumeration. ``self`` is left untouched: spec-level
        methods are shared between queries and threads.
        """
        bound = copy.copy(self)
        bound.static = self.static_info(
            query, candidates, auxiliary, order, tree_parent
        )
        return bound

    def static_info(
        self,
        query: Graph,
        candidates: Optional[CandidateSets],
        auxiliary: Optional[AuxiliaryStructure],
        order: Sequence[int],
        tree_parent: Optional[Sequence[int]] = None,
    ) -> StaticOrderInfo:
        """The static-order artifacts for a run over these arguments: the
        bound ones when this method was bound to exactly them, fresh ones
        otherwise."""
        binding = _binding(candidates, auxiliary, order, tree_parent)
        static = self.static
        if static is None or static.bound_to != binding:
            static = prepare_static_order(query, list(order), tree_parent)
            static.bound_to = binding
            if candidates is not None and auxiliary is not None:
                self._materialize(static, candidates, auxiliary)
        return static

    def _materialize(
        self,
        static: StaticOrderInfo,
        candidates: CandidateSets,
        auxiliary: AuxiliaryStructure,
    ) -> None:
        """Build what ``compute`` will read from ``auxiliary`` under
        ``static`` (methods that read nothing build nothing)."""

    def prepare(self, ctx: LCContext) -> None:
        """Validate wiring before a run starts."""
        if self.needs_candidates and ctx.candidates is None:
            raise ConfigurationError(f"{self.name} requires candidate sets")
        if self.needs_auxiliary and (
            ctx.auxiliary is None or ctx.auxiliary.scope == "none"
        ):
            raise ConfigurationError(
                f"{self.name} requires an auxiliary structure"
            )

    @abstractmethod
    def compute(
        self,
        ctx: LCContext,
        u: int,
        backward: Sequence[int],
        parent: int,
    ) -> Sequence[int]:
        """``LC(u, M)`` given the backward neighbors of ``u`` in φ.

        ``parent`` is ``u.p`` (one designated backward neighbor; -1 when
        ``backward`` is empty, i.e. at the first position or a disconnected
        spectrum order). Injectivity (``v ∉ M``) is the engine's job.
        """

    # Shared fallbacks -------------------------------------------------

    def _start_candidates(self, ctx: LCContext, u: int) -> Sequence[int]:
        """LC at a position with no backward neighbors."""
        if ctx.candidates is not None:
            return ctx.candidates[u]
        return ldf_candidates_for(ctx.query, u, ctx.data)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class NeighborScanLC(LocalCandidateMethod):
    """Algorithm 2: scan ``N(M[u.p])`` with LDF + backward-edge checks."""

    name = "ALG2"

    def compute(
        self,
        ctx: LCContext,
        u: int,
        backward: Sequence[int],
        parent: int,
    ) -> Sequence[int]:
        if parent < 0:
            return self._start_candidates(ctx, u)
        query, data, mapping = ctx.query, ctx.data, ctx.mapping
        anchor_sets = [
            data.neighbor_set(mapping[w]) for w in backward if w != parent
        ]
        result = []
        for v in data.neighbors(mapping[parent]).tolist():
            if not ldf_check(query, u, data, v):
                continue
            if all(v in s for s in anchor_sets):
                result.append(v)
        return result


class VF2ppLC(NeighborScanLC):
    """Algorithm 2 + VF2++'s forward label-count lookahead.

    Requires, for each label ``l`` among the *forward* neighbors of ``u``,
    at least as many unmapped neighbors of ``v`` with that label:
    ``∀l ∈ L(N_-^φ(u)): |N_-^φ(u, l)| ≤ |X(v, l)|``. The per-candidate cost
    is ``O(d(v))`` — the overhead Figure 9 shows outweighing the pruning.
    """

    name = "2PP-LC"
    #: The lookahead counts *unmapped* data neighbors, so the result
    #: depends on the whole partial embedding, not just the backward
    #: neighbors' mappings — it must not be memoized by backward key.
    mapping_determined = False

    def compute(
        self,
        ctx: LCContext,
        u: int,
        backward: Sequence[int],
        parent: int,
    ) -> Sequence[int]:
        base = super().compute(ctx, u, backward, parent)
        query, data, used = ctx.query, ctx.data, ctx.used
        backward_set = set(backward)
        forward_label_counts: Dict[int, int] = {}
        for w in query.neighbors(u).tolist():
            if w not in backward_set:
                label = query.label(w)
                forward_label_counts[label] = (
                    forward_label_counts.get(label, 0) + 1
                )
        if not forward_label_counts:
            return base
        result = []
        for v in base:
            free_counts: Dict[int, int] = {}
            for w in data.neighbors(v).tolist():
                if w not in used:
                    label = data.label(w)
                    free_counts[label] = free_counts.get(label, 0) + 1
            if all(
                free_counts.get(label, 0) >= needed
                for label, needed in forward_label_counts.items()
            ):
                result.append(v)
        return result


class CandidateScanLC(LocalCandidateMethod):
    """Algorithm 3: scan the whole ``C(u)``, verify every backward edge."""

    name = "ALG3"
    needs_candidates = True

    def compute(
        self,
        ctx: LCContext,
        u: int,
        backward: Sequence[int],
        parent: int,
    ) -> Sequence[int]:
        candidates = ctx.candidates[u]  # type: ignore[index]
        if parent < 0:
            return candidates
        data, mapping = ctx.data, ctx.mapping
        anchor_sets = [data.neighbor_set(mapping[w]) for w in backward]
        return [v for v in candidates if all(v in s for s in anchor_sets)]


class TreeAdjacencyLC(LocalCandidateMethod):
    """Algorithm 4: tree-edge adjacency lookup + residual edge checks."""

    name = "ALG4"
    needs_candidates = True
    needs_auxiliary = True

    def _materialize(
        self,
        static: StaticOrderInfo,
        candidates: CandidateSets,
        auxiliary: AuxiliaryStructure,
    ) -> None:
        auxiliary.build_arrays(
            (parent, u)
            for u, parent in zip(static.order, static.parent)
            if parent >= 0 and auxiliary.has_pair(parent, u)
        )

    def compute(
        self,
        ctx: LCContext,
        u: int,
        backward: Sequence[int],
        parent: int,
    ) -> Sequence[int]:
        if parent < 0:
            return ctx.candidates[u]  # type: ignore[index]
        data, mapping = ctx.data, ctx.mapping
        base = ctx.auxiliary.neighbors(parent, u, mapping[parent])  # type: ignore[union-attr]
        if len(backward) == 1:
            return base
        anchor_sets = [
            data.neighbor_set(mapping[w]) for w in backward if w != parent
        ]
        return [v for v in base if all(v in s for s in anchor_sets)]


class IntersectionLC(LocalCandidateMethod):
    """Algorithm 5: intersect candidate adjacency over all backward neighbors.

    ``kernel`` selects the intersection backend, in one of three forms:

    * ``None`` (default) — the paper's scalar hybrid merge/galloping
      method. :func:`repro.core.api.match` swaps in the session's
      resolved :class:`~repro.utils.kernels.KernelBackend` for this
      default; an explicitly passed kernel is never overridden.
    * a registered backend name (``"scalar"``, ``"numpy"``, ``"bitset"``,
      ``"qfilter"``, ``"rows"``, ``"auto"``) — resolved via
      :func:`repro.utils.kernels.get_kernel`.
    * a :class:`~repro.utils.kernels.KernelBackend` instance. The caching
      backends (``bitset``, ``qfilter``) intersect in their packed domain
      and encode-cache the long-lived auxiliary lists, which is how
      Figure 10 models QFilter's one-time layout conversion.

    Anything else raises :class:`~repro.errors.ConfigurationError`.

    Under a :class:`~repro.utils.kernels.RowsKernel` and a static order
    the method *answers in mask form*: binding fills the
    :class:`StaticOrderInfo` row tables and the frame machine ANDs them
    itself. ``compute`` still returns arrays under every kernel (decoded
    from the rows where those are what the structure holds) — the
    recursive reference and the adaptive selector consume those.
    """

    name = "ALG5"
    needs_candidates = True
    needs_auxiliary = True

    def __init__(self, kernel: Optional[KernelLike] = None) -> None:
        #: True when no kernel was requested, letting ``match(kernel=...)``
        #: substitute the session backend without clobbering an explicit
        #: choice.
        self.uses_default_kernel = kernel is None
        self.kernel = ScalarKernel() if kernel is None else get_kernel(kernel)

    def _materialize(
        self,
        static: StaticOrderInfo,
        candidates: CandidateSets,
        auxiliary: AuxiliaryStructure,
    ) -> None:
        order = static.order
        pairs = [
            (w, u) for u, backward in zip(order, static.backward) for w in backward
        ]
        if not all(auxiliary.has_pair(w, u) for w, u in pairs):
            return  # mis-scoped structure: the read raises, as it always did
        if not isinstance(self.kernel, RowsKernel):
            auxiliary.build_arrays(pairs)
            return
        auxiliary.build_rows(pairs)
        static.universe = [candidates[u] for u in order]
        static.arrays = [candidates.array(u) for u in order]
        static.ones = [(1 << candidates.size(u)) - 1 for u in order]
        static.rows = [
            tuple((w, auxiliary.rows(w, u)) for w in backward)
            for u, backward in zip(order, static.backward)
        ]
        static.clash = [
            tuple(
                (w, table)
                for w in order[:depth]
                for table in (auxiliary.translation(w, u),)
                if table is not None
            )
            for depth, u in enumerate(order)
        ]

    def compute(
        self,
        ctx: LCContext,
        u: int,
        backward: Sequence[int],
        parent: int,
    ) -> Sequence[int]:
        if parent < 0:
            return ctx.candidates[u]  # type: ignore[index]
        mapping = ctx.mapping
        aux = ctx.auxiliary
        if len(backward) == 1:
            return aux.neighbors(parent, u, mapping[parent])  # type: ignore[union-attr]
        lists = [
            aux.neighbors(w, u, mapping[w])  # type: ignore[union-attr]
            for w in backward
        ]
        return self.kernel.multi_intersect(lists)
