"""Planted-embedding workload generation and metamorphic transforms.

A fuzz case needs ground truth. Random (query, data) pairs mostly have
*zero* matches, which exercises nothing and verifies nothing. Instead we
**plant** a known query inside a random RMAT/Erdős–Rényi background: pick
host vertices, overwrite their labels with the query's, and add the
query's edges between them. The planted assignment is then a genuine
embedding by construction (Definition 2.1 holds edge by edge), so every
algorithm must report at least one match and the planted tuple must be in
its match set — an expected-*minimum* oracle that needs no reference run.

The metamorphic transforms encode invariants every correct matcher obeys:

* ``relabel`` — a bijective permutation of the label alphabet applied to
  query and data together preserves counts and embeddings exactly;
* ``renumber`` — a permutation of data vertex ids preserves counts and
  maps embeddings through the permutation (and the query fingerprint of a
  renumbered *query* is unchanged, per :mod:`repro.graph.fingerprint`);
* ``edge_shuffle`` — re-presenting a graph's edge list in a different
  order builds an equal :class:`~repro.graph.graph.Graph` (CSR is
  canonical), so results must be byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.dynamic.mutations import (
    ADD_EDGE,
    ADD_VERTEX,
    REMOVE_EDGE,
    Mutation,
    MutationScript,
)
from repro.graph.generators import erdos_renyi_graph, rmat_graph
from repro.graph.graph import Graph
from repro.graph.ops import connected

__all__ = [
    "PlantedCase",
    "plant_case",
    "plant_mutation_script",
    "random_query",
    "TRANSFORMS",
    "apply_transform",
    "renumber_vertices",
    "permute_label_alphabet",
    "shuffle_edges",
]

#: Names of the metamorphic transforms :func:`apply_transform` accepts.
TRANSFORMS: Tuple[str, ...] = ("relabel", "renumber", "edge_shuffle")


@dataclass(frozen=True)
class PlantedCase:
    """One fuzz case: a query known to occur in the data graph.

    ``planted[u]`` is the data vertex hosting query vertex ``u``; it is a
    valid embedding by construction, so ``num_matches >= 1`` and
    ``planted`` must appear in every algorithm's match set.
    """

    seed: int
    query: Graph
    data: Graph
    planted: Tuple[int, ...]
    num_labels: int

    def __repr__(self) -> str:
        return (
            f"PlantedCase(seed={self.seed}, q={self.query.num_vertices}v/"
            f"{self.query.num_edges}e, g={self.data.num_vertices}v/"
            f"{self.data.num_edges}e)"
        )


def random_query(
    rng: np.random.Generator, num_vertices: int, num_labels: int
) -> Graph:
    """A random connected labeled query: spanning tree plus extra edges."""
    labels = rng.integers(0, num_labels, size=num_vertices).tolist()
    edges = set()
    for v in range(1, num_vertices):
        parent = int(rng.integers(0, v))
        edges.add((parent, v))
    for _ in range(int(rng.integers(0, num_vertices + 1))):
        u = int(rng.integers(0, num_vertices))
        v = int(rng.integers(0, num_vertices))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    query = Graph(labels=labels, edges=sorted(edges))
    assert connected(query)
    return query


def plant_case(
    seed: int,
    min_query: int = 3,
    max_query: int = 6,
    min_data: int = 12,
    max_data: int = 40,
    num_labels: Optional[int] = None,
) -> PlantedCase:
    """Build one fully deterministic planted-embedding case from ``seed``.

    The background is RMAT or Erdős–Rényi (chosen by the seed); the hosts
    are distinct background vertices whose labels are overwritten with the
    query's, and the query's edges are added between them (duplicates with
    background edges collapse in the Graph constructor).
    """
    rng = np.random.default_rng(seed)
    nq = int(rng.integers(min_query, max_query + 1))
    labels = (
        int(rng.integers(3, 6)) if num_labels is None else int(num_labels)
    )
    query = random_query(rng, nq, labels)

    nd = int(rng.integers(max(min_data, nq), max_data + 1))
    degree = float(rng.uniform(2.0, 5.0))
    background_seed = int(rng.integers(0, 2**31))
    if rng.random() < 0.5:
        background = erdos_renyi_graph(nd, degree, labels, seed=background_seed)
    else:
        background = rmat_graph(nd, degree, labels, seed=background_seed)

    hosts = rng.choice(nd, size=nq, replace=False)
    data_labels = background.labels.tolist()
    for u in query.vertices():
        data_labels[int(hosts[u])] = query.label(u)
    data_edges = list(background.edges())
    for u, v in query.edges():
        data_edges.append((int(hosts[u]), int(hosts[v])))
    data = Graph(labels=data_labels, edges=data_edges)

    return PlantedCase(
        seed=seed,
        query=query,
        data=data,
        planted=tuple(int(h) for h in hosts),
        num_labels=labels,
    )


def plant_mutation_script(
    case: PlantedCase,
    num_batches: int = 3,
    seed: Optional[int] = None,
) -> MutationScript:
    """A seeded mutation script with a planted post-mutation embedding.

    The leading batches churn the background — random edge inserts,
    removals of existing edges (the planted embedding's edges included,
    so deletion cascades are exercised), and attached fresh vertices.
    The **final batch plants a brand-new copy of the query** on freshly
    added vertices, so after the whole script runs the graph is
    guaranteed to contain at least one embedding that exists *only*
    because of the mutations — the addition cascade the incremental
    candidate maintenance must propagate from nothing.

    Ground truth for the script is differential (incremental vs
    from-scratch rebuild after every batch), so the churn batches are
    unconstrained; the planted final batch just guarantees the
    interesting direction is never vacuously empty.
    """
    rng = np.random.default_rng(
        case.seed * 7919 + 11 if seed is None else seed
    )
    n = case.data.num_vertices
    edges = set(case.data.edges())
    script: List[Tuple[Mutation, ...]] = []

    for _ in range(max(0, num_batches - 1)):
        batch: List[Mutation] = []
        for _ in range(int(rng.integers(2, 6))):
            roll = rng.random()
            if roll < 0.45:
                u = int(rng.integers(0, n))
                v = int(rng.integers(0, n))
                if u != v:
                    edge = (min(u, v), max(u, v))
                    batch.append(Mutation(ADD_EDGE, *edge))
                    edges.add(edge)
            elif roll < 0.80 and edges:
                edge = sorted(edges)[int(rng.integers(0, len(edges)))]
                batch.append(Mutation(REMOVE_EDGE, *edge))
                edges.discard(edge)
            else:
                label = int(rng.integers(0, case.num_labels))
                anchor = int(rng.integers(0, n))
                batch.append(Mutation(ADD_VERTEX, label))
                batch.append(Mutation(ADD_EDGE, anchor, n))
                edges.add((anchor, n))
                n += 1
        script.append(tuple(batch))

    final: List[Mutation] = []
    hosts: List[int] = []
    for u in case.query.vertices():
        final.append(Mutation(ADD_VERTEX, case.query.label(u)))
        hosts.append(n)
        n += 1
    for u, v in case.query.edges():
        final.append(Mutation(ADD_EDGE, hosts[u], hosts[v]))
    script.append(tuple(final))
    return tuple(script)


def replay_script(
    data: Graph, script: Sequence[Sequence[Mutation]]
) -> Iterator[Tuple[List[int], List[Tuple[int, int]]]]:
    """The graph after each batch of ``script``, replayed on plain sets.

    Yields ``(labels, edges)`` per batch — the label list and the sorted
    ``u < v`` edge list that ``Graph(labels=..., edges=...)`` builds from
    scratch. Each op folds into a Python edge set in order, so re-adding
    a present edge or removing an absent one changes nothing, as in
    :meth:`~repro.dynamic.overlay.DynamicGraph.apply`; the ops must be
    valid (:func:`~repro.dynamic.mutations.sanitize_batch`). Nothing here
    reads a ``DynamicGraph``: this is the oracle its snapshots are held to.
    """
    labels = data.labels.tolist()
    edges = set(data.edges())
    for batch in script:
        for mutation in batch:
            if mutation.op == ADD_VERTEX:
                labels.append(int(mutation.a))
                continue
            u, v = int(mutation.a), int(mutation.b)
            edge = (u, v) if u < v else (v, u)
            if mutation.op == ADD_EDGE:
                edges.add(edge)
            else:
                edges.discard(edge)
        yield list(labels), sorted(edges)


# ----------------------------------------------------------------------
# Metamorphic transforms
# ----------------------------------------------------------------------


def renumber_vertices(graph: Graph, seed: int) -> Tuple[Graph, List[int]]:
    """Permute vertex ids; returns the new graph and ``perm`` (old → new).

    The renumbered graph is isomorphic to the input, so match *counts*
    are invariant and embeddings into it are the originals mapped through
    ``perm``.
    """
    rng = np.random.default_rng(seed)
    perm = rng.permutation(graph.num_vertices).tolist()
    labels = [0] * graph.num_vertices
    for v in graph.vertices():
        labels[perm[v]] = graph.label(v)
    edges = [(perm[u], perm[v]) for u, v in graph.edges()]
    return Graph(labels=labels, edges=edges), perm


def permute_label_alphabet(
    seed: int, query: Graph, data: Graph
) -> Tuple[Graph, Graph]:
    """Apply one bijective label permutation to query and data together.

    Matching only compares labels for equality, so counts and embeddings
    are exactly preserved.
    """
    alphabet = sorted(
        set(query.labels.tolist()) | set(data.labels.tolist())
    )
    rng = np.random.default_rng(seed)
    shuffled = list(alphabet)
    rng.shuffle(shuffled)
    mapping = dict(zip(alphabet, shuffled))
    return (
        query.relabeled([mapping[l] for l in query.labels.tolist()]),
        data.relabeled([mapping[l] for l in data.labels.tolist()]),
    )


def shuffle_edges(graph: Graph, seed: int) -> Graph:
    """Rebuild ``graph`` from a shuffled edge list (an equal graph).

    The CSR construction canonicalizes edge order, so the result compares
    equal to the input and every downstream result must be byte-identical.
    """
    rng = np.random.default_rng(seed)
    edges = list(graph.edges())
    rng.shuffle(edges)
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    return Graph(labels=graph.labels.tolist(), edges=edges)


def apply_transform(
    name: str, query: Graph, data: Graph, seed: int
) -> Tuple[Graph, Graph, Optional[List[int]]]:
    """Apply the named transform; returns (query', data', data_perm).

    ``data_perm`` is the old → new data-vertex permutation for
    ``"renumber"`` (used to map expected embeddings) and ``None`` for the
    transforms that leave vertex ids alone.
    """
    if name == "relabel":
        q2, d2 = permute_label_alphabet(seed, query, data)
        return q2, d2, None
    if name == "renumber":
        d2, perm = renumber_vertices(data, seed)
        return query, d2, perm
    if name == "edge_shuffle":
        return shuffle_edges(query, seed), shuffle_edges(data, seed + 1), None
    raise ValueError(f"unknown transform {name!r}; known: {TRANSFORMS}")
