"""Data-graph compression via vertex equivalence (BoostIso-style).

The second compression technique of the paper's Section 3.4: BoostIso
folds *data* vertices that are interchangeable — same label and same
neighborhood — into hyper-vertices, so the enumeration explores each
equivalence class once and multiplies counts instead of permuting
members. The paper relays the CFL study's verdict: "the data graph
compression technique worked well only when the data graph was very
dense"; the ablation bench ``bench_ablation_data_compression.py``
measures exactly that (compression ratio and speedup vs density).

Semantics. Let ``classes`` partition ``V(G)`` into label-preserving
false-twin (``N(v) = N(v')``) or true-twin (``N[v] = N[v']``) classes.
Adjacency is uniform class-to-class, so an assignment of query vertices
to classes is valid iff

* labels match,
* adjacent query vertices land in adjacent classes (or in one *clique*
  class — true twins are mutually adjacent),
* no class receives more query vertices than it has members
  (and any two query vertices sharing a *non-clique* class must be
  non-adjacent, which the adjacency rule already enforces).

Each valid assignment contributes ``Π_C P(|C|, k_C)`` original
embeddings, where ``k_C`` query vertices landed in class ``C`` and ``P``
is the falling factorial — interchangeable members can be picked in any
injective way.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Dict, List, Optional, Tuple

from repro.core.result import MatchResult
from repro.enumeration.support import DEFAULT_MATCH_LIMIT, DEFAULT_STORE_LIMIT
from repro.errors import BudgetExceeded
from repro.graph.graph import Graph
from repro.utils.timer import Deadline, Timer

__all__ = [
    "CompressedData",
    "compress_data_graph",
    "count_matches_data_compressed",
    "match_data_compressed",
]


def _data_equivalence_classes(data: Graph) -> List[List[int]]:
    """Label-preserving twin classes of the data graph."""
    by_signature: Dict[Tuple, List[int]] = {}
    for v in data.vertices():
        open_nb = data.neighbor_set(v)
        # Key on the closed neighborhood for true twins, open for false
        # twins; a vertex joins whichever bucket it genuinely twins with.
        key_true = (data.label(v), "t", frozenset(open_nb | {v}))
        key_false = (data.label(v), "f", open_nb)
        bucket = by_signature.get(key_true)
        if bucket is not None and _true_twin(data, v, bucket[0]):
            bucket.append(v)
            continue
        bucket = by_signature.get(key_false)
        if bucket is not None and _false_twin(data, v, bucket[0]):
            bucket.append(v)
            continue
        fresh = [v]
        by_signature[key_true] = fresh
        by_signature[key_false] = fresh

    seen: set = set()
    classes: List[List[int]] = []
    for bucket in by_signature.values():
        if id(bucket) not in seen:
            seen.add(id(bucket))
            classes.append(sorted(bucket))
    classes.sort()
    return classes


def _true_twin(data: Graph, a: int, b: int) -> bool:
    if a == b:
        return True
    return (
        data.label(a) == data.label(b)
        and data.has_edge(a, b)
        and data.neighbor_set(a) | {a} == data.neighbor_set(b) | {b}
    )


def _false_twin(data: Graph, a: int, b: int) -> bool:
    if a == b:
        return True
    return (
        data.label(a) == data.label(b)
        and not data.has_edge(a, b)
        and data.neighbor_set(a) == data.neighbor_set(b)
    )


@dataclass(frozen=True)
class CompressedData:
    """A data graph folded along vertex equivalence classes.

    ``members[i]`` are the original vertices of hyper-vertex ``i``;
    ``clique[i]`` marks true-twin classes; the hyper-graph ``skeleton``
    connects classes whose members are adjacent (uniformly, by
    equivalence).
    """

    original: Graph
    members: Tuple[Tuple[int, ...], ...]
    labels: Tuple[int, ...]
    clique: Tuple[bool, ...]
    skeleton: Graph  # labels mirror `labels`; edges = class adjacency

    @property
    def num_classes(self) -> int:
        return len(self.members)

    @property
    def compression_ratio(self) -> float:
        """``|V(G)| / #classes`` — 1.0 means nothing compressed."""
        return self.original.num_vertices / max(1, self.num_classes)


def compress_data_graph(data: Graph) -> CompressedData:
    """Fold ``data`` along its vertex equivalence classes."""
    classes = _data_equivalence_classes(data)
    index_of: Dict[int, int] = {}
    for i, members in enumerate(classes):
        for v in members:
            index_of[v] = i
    edges = set()
    for u, v in data.edges():
        a, b = index_of[u], index_of[v]
        if a != b:
            edges.add((min(a, b), max(a, b)))
    labels = [data.label(members[0]) for members in classes]
    clique = tuple(
        len(members) > 1 and data.has_edge(members[0], members[1])
        for members in classes
    )
    skeleton = Graph(labels=labels, edges=sorted(edges))
    return CompressedData(
        original=data,
        members=tuple(tuple(m) for m in classes),
        labels=tuple(labels),
        clique=clique,
        skeleton=skeleton,
    )


class _HyperEnumerator:
    """Backtracking over query-vertex → hyper-vertex assignments."""

    def __init__(
        self,
        query: Graph,
        compressed: CompressedData,
        match_limit: Optional[int],
        time_limit: Optional[float],
        store_limit: int,
    ) -> None:
        self.query = query
        self.c = compressed
        self.match_limit = match_limit
        self.store_limit = store_limit
        self.deadline = Deadline(time_limit) if time_limit else None
        self.num_matches = 0
        self.embeddings: List[Tuple[int, ...]] = []
        self.solved = True

    def run(self) -> None:
        query = self.query
        if query.num_vertices == 0:
            return
        order = self._query_order()
        try:
            self._extend(order, 0, [-1] * query.num_vertices, {})
        except _Stop:
            pass
        except BudgetExceeded:
            self.solved = False

    def _query_order(self) -> List[int]:
        """Connected query order, rarest skeleton label first."""
        query, skeleton = self.query, self.c.skeleton
        start = min(
            query.vertices(),
            key=lambda u: (skeleton.label_frequency(query.label(u)), u),
        )
        order = [start]
        placed = {start}
        while len(order) < query.num_vertices:
            frontier = sorted(
                w
                for u in placed
                for w in query.neighbors(u).tolist()
                if w not in placed
            )
            order.append(frontier[0])
            placed.add(frontier[0])
        return order

    def _extend(
        self,
        order: List[int],
        depth: int,
        assignment: List[int],
        load: Dict[int, int],
    ) -> None:
        if self.deadline is not None and self.deadline.expired():
            raise BudgetExceeded
        query, c = self.query, self.c
        if depth == len(order):
            self._record(assignment, load)
            return
        u = order[depth]
        backward = [
            w for w in query.neighbors(u).tolist() if assignment[w] != -1
        ]

        candidates = self._candidates(u, backward, assignment)
        for class_index in candidates:
            current = load.get(class_index, 0)
            if current >= len(c.members[class_index]):
                continue  # capacity exhausted
            assignment[u] = class_index
            load[class_index] = current + 1
            self._extend(order, depth + 1, assignment, load)
            load[class_index] = current
            if load[class_index] == 0:
                del load[class_index]
            assignment[u] = -1

    def _candidates(
        self, u: int, backward: List[int], assignment: List[int]
    ) -> List[int]:
        query, c = self.query, self.c
        skeleton = c.skeleton
        label = query.label(u)
        if not backward:
            return skeleton.vertices_with_label(label).tolist()
        # Anchor on the first backward neighbor's class: candidates are
        # its skeleton neighbors plus (if clique) the class itself.
        anchor = assignment[backward[0]]
        pool = [
            w
            for w in skeleton.neighbors(anchor).tolist()
            if skeleton.label(w) == label
        ]
        if c.clique[anchor] and c.labels[anchor] == label:
            pool.append(anchor)
        result = []
        for class_index in pool:
            if all(
                self._class_edge_ok(class_index, assignment[w])
                for w in backward
            ):
                result.append(class_index)
        return result

    def _class_edge_ok(self, a: int, b: int) -> bool:
        """Whether query-adjacent vertices may map into classes a and b."""
        if a == b:
            return self.c.clique[a]
        return self.c.skeleton.has_edge(a, b)

    def _record(self, assignment: List[int], load: Dict[int, int]) -> None:
        c = self.c
        count = 1
        for class_index, k in load.items():
            size = len(c.members[class_index])
            for i in range(k):
                count *= size - i
        self.num_matches += count
        if len(self.embeddings) < self.store_limit:
            self._expand(assignment, load)
        if (
            self.match_limit is not None
            and self.num_matches >= self.match_limit
        ):
            raise _Stop

    def _expand(self, assignment: List[int], load: Dict[int, int]) -> None:
        """Materialize original embeddings for one class assignment."""
        c = self.c
        by_class: Dict[int, List[int]] = {}
        for u, class_index in enumerate(assignment):
            by_class.setdefault(class_index, []).append(u)

        partial: List[Dict[int, int]] = [dict()]
        for class_index, query_vertices in by_class.items():
            members = c.members[class_index]
            k = len(query_vertices)
            new_partial: List[Dict[int, int]] = []
            for base in partial:
                for perm in permutations(members, k):
                    extended = dict(base)
                    for u, v in zip(query_vertices, perm):
                        extended[u] = v
                    new_partial.append(extended)
            partial = new_partial
        for mapping in partial:
            if len(self.embeddings) >= self.store_limit:
                break
            self.embeddings.append(
                tuple(mapping[u] for u in range(self.query.num_vertices))
            )


class _Stop(Exception):
    """Match cap reached."""


def match_data_compressed(
    query: Graph,
    data: Graph,
    match_limit: Optional[int] = DEFAULT_MATCH_LIMIT,
    time_limit: Optional[float] = None,
    store_limit: int = DEFAULT_STORE_LIMIT,
    compressed: Optional[CompressedData] = None,
) -> MatchResult:
    """Enumerate matches through data-graph compression.

    ``compressed`` may be supplied to reuse a compression across queries
    (the point of BoostIso: compress once, query many times).
    """
    with Timer() as prep_timer:
        if compressed is None:
            compressed = compress_data_graph(data)
    enumerator = _HyperEnumerator(
        query, compressed, match_limit, time_limit, store_limit
    )
    with Timer() as enum_timer:
        enumerator.run()
    return MatchResult(
        algorithm="BoostIso",
        num_matches=enumerator.num_matches,
        solved=enumerator.solved,
        embeddings=enumerator.embeddings,
        order=None,
        preprocessing_seconds=prep_timer.elapsed,
        enumeration_seconds=enum_timer.elapsed,
    )


def count_matches_data_compressed(
    query: Graph,
    data: Graph,
    time_limit: Optional[float] = None,
    compressed: Optional[CompressedData] = None,
) -> int:
    """Exact match count through data compression."""
    return match_data_compressed(
        query,
        data,
        match_limit=None,
        time_limit=time_limit,
        store_limit=0,
        compressed=compressed,
    ).num_matches
