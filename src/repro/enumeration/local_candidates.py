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
called per search-tree node with the current partial embedding. Every
method answers inside a fixed per-vertex *universe* ``U(u)``: the filter's
``C(u)``, or LDF(u) for the presets that run no filter
(:func:`universe_sets`). The engines hand the universes over as
``ctx.candidates``, so Algorithm 2's LDF check is a membership test in
``U(u)``, and the frame machine indexes every frame by positions in it.

A static matching order fixes, per depth, which backward neighbors a
method will consult; :meth:`LocalCandidateMethod.static_order` resolves
that once per prepared query (:class:`StaticOrderInfo`), builds the
universes and the position translation tables between them, and binds
the auxiliary pairs the method will read. Algorithm 5 under the ``rows``
kernel additionally binds the per-depth row tables (filled on first
read): there the local candidates of a node are the AND of a few
integers and ``compute`` is never called.

Like the methods themselves, Algorithm 5 holds no intersection backend:
the backend belongs to the prepared query it runs
(:func:`~repro.core.plan.bind_enumeration` resolves the request's kernel
name once), and reaches ``compute`` as ``ctx.kernel``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.filtering.auxiliary import AuxiliaryStructure
from repro.filtering.base import ldf_candidates_for
from repro.filtering.candidates import CandidateSets
from repro.graph.graph import Graph
from repro.utils.kernels import KernelBackend, RowsKernel

__all__ = [
    "LCContext",
    "StaticOrderInfo",
    "prepare_static_order",
    "universe_sets",
    "clash_partners",
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
    it is mutated by the engine as the search proceeds. ``candidates`` is
    what :meth:`LocalCandidateMethod.prepare` validates — the plan's sets,
    ``None`` for direct-enumeration algorithms — and, once the engine has
    substituted them, the universes ``U(u)`` every method answers inside
    (:func:`universe_sets`). ``auxiliary`` may be ``None``. ``kernel`` is
    the intersection backend Algorithm 5 runs on (``None`` for the other
    methods, which intersect nothing).
    """

    query: Graph
    data: Graph
    candidates: Optional[CandidateSets]
    auxiliary: Optional[AuxiliaryStructure]
    mapping: List[int]
    kernel: Optional[KernelBackend] = None


def universe_sets(
    query: Graph, data: Graph, candidates: Optional[CandidateSets]
) -> CandidateSets:
    """The universe ``U(u)`` of every query vertex: ``C(u)``, or — with no
    filter — LDF(u), the set Algorithm 2's label-and-degree check admits.
    These belong to the engine, not the plan: they are never reported as
    candidates.

    The label invariant: ``U(u)`` holds only data vertices of ``u``'s own
    label, as every filter's sets and LDF do, so two universes can share
    a vertex only when their query vertices share a label
    (:func:`clash_partners`)."""
    if candidates is not None:
        return candidates
    return CandidateSets(
        query, [ldf_candidates_for(query, u, data) for u in query.vertices()]
    )


def clash_partners(
    query: Graph, data: Graph, universes: CandidateSets
) -> List[List[int]]:
    """Per query vertex ``u``, every other query vertex whose universe may
    share a data vertex with ``U(u)``: those of ``u``'s label, under the
    label invariant (:func:`universe_sets`). Universes that break it (sets
    built by hand) make every pair partners, so a clash is probed, never
    lost."""
    n = query.num_vertices
    if not universes.label_homogeneous(data):
        return [[w for w in range(n) if w != u] for u in range(n)]
    same: Dict[int, List[int]] = {}
    label_of = query.labels.tolist()
    for u, label in enumerate(label_of):
        same.setdefault(label, []).append(u)
    return [[w for w in same[label] if w != u] for u, label in enumerate(label_of)]


class StaticOrderInfo:
    """Per-depth artifacts of a static matching order φ.

    ``order``/``backward``/``parent``/``backward_mask`` are what
    :func:`prepare_static_order` derives from the query alone. Built for
    one prepared query (:meth:`LocalCandidateMethod.static_order`), it
    also holds the tables of its frames:

    * ``universes`` — :func:`universe_sets`; the masks of the frame at
      depth ``d`` are over the positions of ``U(order[d])``;
    * ``clash[d]`` — ``(w, translation of U(w) into U(u))`` for every
      earlier vertex whose universe overlaps ``U(u)``; by the label
      invariant (:func:`universe_sets`) only vertices of ``u``'s label
      are probed (:func:`clash_partners`);

    and, for Algorithm 5 on bitmap rows, indexed by depth:

    * ``ones[d]`` — the all-candidates mask ``(1 << |C(u)|) - 1``;
    * ``rows[d]`` — ``(w, row table of (w → u))`` per backward neighbor ``w``.

    ``rows`` is ``None`` when the method answers in lists.

    ``compiled`` caches, per failing-sets flag, the specialised search
    :mod:`repro.enumeration.compiled` generates for these tables (``None``
    after the first run, which runs the generic search).
    """

    __slots__ = (
        "order",
        "backward",
        "parent",
        "backward_mask",
        "universes",
        "clash",
        "ones",
        "rows",
        "compiled",
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
        self.universes: Optional[CandidateSets] = None
        self.clash: Optional[List[Tuple[Tuple[int, List[int]], ...]]] = None
        self.ones: Optional[List[int]] = None
        self.rows: Optional[List[Tuple[Tuple[int, List[int]], ...]]] = None
        self.compiled: Optional[Dict[bool, Optional[Callable[..., None]]]] = None


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


class LocalCandidateMethod(ABC):
    """One ComputeLC strategy. Stateless across runs; bound via prepare()."""

    #: Short name for reports.
    name: str = "?"

    #: Whether this method needs candidate sets / an auxiliary structure.
    needs_candidates: bool = False
    needs_auxiliary: bool = False

    #: Whether ``compute(ctx, u, backward, parent)`` is fully determined
    #: by the current mappings of ``backward`` (plus the immutable
    #: context). True for Algorithms 2–5; methods that also consult the
    #: rest of ``ctx.mapping`` (the whole partial embedding) must set this
    #: False so the adaptive selector never serves them a stale memoized
    #: list.
    mapping_determined: bool = True

    def static_order(
        self,
        query: Graph,
        data: Graph,
        candidates: Optional[CandidateSets],
        auxiliary: Optional[AuxiliaryStructure],
        order: Sequence[int],
        tree_parent: Optional[Sequence[int]] = None,
        kernel: Optional[KernelBackend] = None,
    ) -> StaticOrderInfo:
        """The static-order artifacts of one prepared query: built once,
        when the query is prepared, and read by every later run of it.
        Binds the auxiliary pairs this method reads in the form it reads
        them (under ``kernel``, the prepared query's backend); ``self`` is
        left untouched, so spec-level methods stay shared between queries
        and threads."""
        static = prepare_static_order(query, list(order), tree_parent)
        static.universes = universes = universe_sets(query, data, candidates)
        order = static.order
        partners = clash_partners(query, data, universes)
        static.clash = [
            tuple(
                (w, table)
                for w in order[:depth]
                if w in partners[u]
                for table in (universes.translation(w, u),)
                if table is not None
            )
            for depth, u in enumerate(order)
        ]
        if candidates is not None and auxiliary is not None:
            self._materialize(static, candidates, auxiliary, kernel)
        return static

    def _materialize(
        self,
        static: StaticOrderInfo,
        candidates: CandidateSets,
        auxiliary: AuxiliaryStructure,
        kernel: Optional[KernelBackend],
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
        spectrum order). Injectivity (``v ∉ M``) is the engine's job. The
        answer is sorted and lies inside ``U(u)`` (``ctx.candidates[u]``),
        which is also the answer at a position with no backward neighbors.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class NeighborScanLC(LocalCandidateMethod):
    """Algorithm 2: scan ``N(M[u.p])`` with LDF + backward-edge checks.

    The LDF check is membership in ``U(u)``: LDF(u) itself with no filter,
    ``C(u)`` when a filter ran (so a filtered Algorithm 2 scans within it).
    """

    name = "ALG2"

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
        universe = ctx.candidates.membership(u)  # type: ignore[union-attr]
        anchor_sets = [
            data.neighbor_set(mapping[w]) for w in backward if w != parent
        ]
        return [
            v
            for v in data.neighbors(mapping[parent]).tolist()
            if v in universe and all(v in s for s in anchor_sets)
        ]


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
        query, data, used = ctx.query, ctx.data, set(ctx.mapping)
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
        kernel: Optional[KernelBackend],
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

    The intersection runs on ``ctx.kernel``, the backend of the prepared
    query (:func:`~repro.core.plan.bind_enumeration` resolves the
    request's kernel name into it). The caching backends (``bitset``,
    ``qfilter``) intersect in their packed domain and encode-cache the
    long-lived auxiliary lists, which is how Figure 10 models QFilter's
    one-time layout conversion.

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

    def _materialize(
        self,
        static: StaticOrderInfo,
        candidates: CandidateSets,
        auxiliary: AuxiliaryStructure,
        kernel: Optional[KernelBackend],
    ) -> None:
        order = static.order
        pairs = [
            (w, u) for u, backward in zip(order, static.backward) for w in backward
        ]
        if not all(auxiliary.has_pair(w, u) for w, u in pairs):
            return  # mis-scoped structure: the read raises, as it always did
        if not isinstance(kernel, RowsKernel):
            auxiliary.build_arrays(pairs)
            return
        static.ones = [(1 << candidates.size(u)) - 1 for u in order]
        static.rows = [
            tuple((w, auxiliary.table(w, u)) for w in backward)
            for u, backward in zip(order, static.backward)
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
        return ctx.kernel.multi_intersect(lists)  # type: ignore[union-attr]
