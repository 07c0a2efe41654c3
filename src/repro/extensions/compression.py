"""Query-graph compression via neighborhood equivalence classes (NEC).

TurboIso's optimization (paper Section 3.4): query vertices that are
*interchangeable* — same label and same neighborhood — can be matched as a
group. Two flavours:

* **false twins** — ``L(u) = L(u')``, ``u ̸~ u'`` and ``N(u) = N(u')``
  (e.g. the leaves of a star);
* **true twins** — ``L(u) = L(u')``, ``u ~ u'`` and
  ``N(u) ∪ {u} = N(u') ∪ {u'}`` (e.g. the vertices of a same-label clique).

Permuting the data vertices a match gives a class's members yields another
match, so every match has exactly one *representative* in which, within
each class, data vertices increase along the matching order; every
representative expands back to ``Π |class|!`` matches. The search for
representatives is Algorithm 1 on the one engine
(:class:`~repro.enumeration.frames.FrameMachine`): GraphQL's filter and
order with failing sets, on bitmap rows, with each class member after
the first reading one more row — the positions of its universe above the
data vertex the previous member holds. Rows are what every search node
ANDs anyway, so the constraint needs no change to the engine, and its
budget, ``cancel``, failing sets and spans all apply.

The paper's finding to verify (Section 3.4, quoting the CFL study): "only
a small number of query vertices could be compressed by the query graph
compression method" on random-walk queries — the ablation bench
``bench_ablation_compression.py`` measures class sizes and the speedup on
compression-friendly shapes (stars, cliques).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import permutations, product
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.plan import compile_plan, prepare_query, run_plan
from repro.core.result import MatchResult
from repro.enumeration.local_candidates import StaticOrderInfo
from repro.graph.graph import Graph
from repro.obs import Metrics

__all__ = [
    "CompressedQuery",
    "neighborhood_equivalence_classes",
    "compress_query",
    "count_matches_compressed",
    "match_compressed",
]

#: The composition representatives are searched with, always on bitmap
#: rows: the class constraint is a row table.
ENGINE = "GQLfs"


def neighborhood_equivalence_classes(query: Graph) -> List[List[int]]:
    """Partition ``V(q)`` into NEC classes (sorted, deterministic).

    >>> star = Graph(labels=[0, 1, 1, 1], edges=[(0, 1), (0, 2), (0, 3)])
    >>> neighborhood_equivalence_classes(star)
    [[0], [1, 2, 3]]
    """
    signature_to_class: Dict[Tuple, List[int]] = {}
    for u in query.vertices():
        open_nb: FrozenSet[int] = query.neighbor_set(u)
        closed_nb = frozenset(open_nb | {u})
        # One signature covers both twin kinds: the closed neighborhood of
        # true twins coincides; for false twins the open one does. Key on
        # (label, closed-neighborhood-without-self-distinction) by trying
        # the closed form: two true twins share closed_nb; two false twins
        # share open_nb but differ in closed_nb, so key both.
        key_true = (query.label(u), "t", closed_nb)
        key_false = (query.label(u), "f", open_nb)
        # Prefer merging under whichever key already exists.
        if key_true in signature_to_class and _is_true_twin(
            query, u, signature_to_class[key_true][0]
        ):
            signature_to_class[key_true].append(u)
        elif key_false in signature_to_class and _is_false_twin(
            query, u, signature_to_class[key_false][0]
        ):
            signature_to_class[key_false].append(u)
        else:
            signature_to_class[key_true] = [u]
            signature_to_class[key_false] = signature_to_class[key_true]

    seen: set = set()
    classes: List[List[int]] = []
    for members in signature_to_class.values():
        marker = id(members)
        if marker not in seen:
            seen.add(marker)
            classes.append(sorted(members))
    classes.sort()
    return classes


def _is_true_twin(query: Graph, a: int, b: int) -> bool:
    if a == b:
        return True
    return (
        query.label(a) == query.label(b)
        and query.has_edge(a, b)
        and query.neighbor_set(a) | {a} == query.neighbor_set(b) | {b}
    )


def _is_false_twin(query: Graph, a: int, b: int) -> bool:
    if a == b:
        return True
    return (
        query.label(a) == query.label(b)
        and not query.has_edge(a, b)
        and query.neighbor_set(a) == query.neighbor_set(b)
    )


@dataclass(frozen=True)
class CompressedQuery:
    """A query graph folded along its NEC classes.

    ``classes[i]`` lists the original vertices represented by compressed
    vertex ``i``; ``labels[i]`` is their shared label.
    """

    original: Graph
    classes: Tuple[Tuple[int, ...], ...]
    labels: Tuple[int, ...]

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def compression_ratio(self) -> float:
        """``|V(q)| / #classes`` — 1.0 means nothing compressed."""
        return self.original.num_vertices / max(1, self.num_classes)

    @property
    def expansion_factor(self) -> int:
        """``Π |class|!`` — original embeddings per compressed assignment."""
        factor = 1
        for members in self.classes:
            for k in range(2, len(members) + 1):
                factor *= k
        return factor


def compress_query(query: Graph) -> CompressedQuery:
    """Fold ``query`` along its NEC classes."""
    classes = neighborhood_equivalence_classes(query)
    return CompressedQuery(
        original=query,
        classes=tuple(tuple(m) for m in classes),
        labels=tuple(query.label(members[0]) for members in classes),
    )


class _Above:
    """The row table of one class constraint ``M[earlier] < M[u]``: row
    ``p`` is the positions of ``U(u)`` that hold a vertex above
    ``U(earlier)[p]``. Rows are computed on read, so the table holds no
    more than the two universes it was given."""

    __slots__ = ("ones", "universe", "earlier")

    def __init__(self, ones: int, universe: List[int], earlier: List[int]) -> None:
        self.ones = ones
        self.universe = universe
        self.earlier = earlier

    def __getitem__(self, p: int) -> int:
        return self.ones & -(1 << bisect_right(self.universe, self.earlier[p]))


def _bind_classes(
    static: StaticOrderInfo, classes: Sequence[Sequence[int]]
) -> None:
    """Add each class member's constraint against the member placed just
    before it to ``static``'s rows, and that member to the depth's
    backward mask (so the emptyset class and the exhaustion failing set
    name it)."""
    depth_of = {u: d for d, u in enumerate(static.order)}
    universes = static.universes
    for members in classes:
        placed = sorted(members, key=depth_of.__getitem__)
        for earlier, u in zip(placed, placed[1:]):
            d = depth_of[u]
            table = _Above(static.ones[d], universes[u], universes[earlier])
            static.rows[d] += ((earlier, table),)
            static.backward_mask[d] |= 1 << earlier


def _expand(
    representatives: List[Tuple[int, ...]],
    classes: Sequence[Sequence[int]],
    limit: int,
) -> List[Tuple[int, ...]]:
    """The first ``limit`` matches the representatives expand to: each
    with its classes' members permuted over the data vertices it gave
    them."""
    groups = [members for members in classes if len(members) > 1]
    embeddings: List[Tuple[int, ...]] = []
    for representative in representatives:
        for arrangement in product(
            *(permutations([representative[u] for u in g]) for g in groups)
        ):
            if len(embeddings) >= limit:
                return embeddings
            embedding = list(representative)
            for members, vertices in zip(groups, arrangement):
                for u, v in zip(members, vertices):
                    embedding[u] = v
            embeddings.append(tuple(embedding))
    return embeddings


def match_compressed(
    query: Graph,
    data: Graph,
    match_limit: Optional[int] = 100_000,
    time_limit: Optional[float] = None,
    store_limit: int = 10_000,
) -> MatchResult:
    """Enumerate matches through NEC compression.

    Returns a regular :class:`MatchResult`; ``num_matches`` counts
    *original* embeddings (each representative contributes
    ``Π |class|!``), so a ``match_limit`` stops at the first multiple of
    that factor at or past it.
    """
    compressed = compress_query(query)
    expansion = compressed.expansion_factor
    plan = compile_plan(ENGINE, query, data, kernel="rows")
    metrics = Metrics()
    prepared = prepare_query(plan, query, data, metrics)
    _bind_classes(prepared.static, compressed.classes)
    result, _ = run_plan(
        plan,
        query,
        data,
        prepared,
        match_limit=None if match_limit is None else -(-match_limit // expansion),
        time_limit=time_limit,
        store_limit=-(-store_limit // expansion),
        metrics=metrics,
    )
    result.algorithm = "NEC"
    result.num_matches *= expansion
    result.embeddings = _expand(result.embeddings, compressed.classes, store_limit)
    result.preprocessing_seconds = prepared.preprocessing_seconds
    return result


def count_matches_compressed(
    query: Graph,
    data: Graph,
    time_limit: Optional[float] = None,
) -> int:
    """Exact match count through compression (no embeddings stored)."""
    return match_compressed(
        query, data, match_limit=None, time_limit=time_limit, store_limit=0
    ).num_matches
