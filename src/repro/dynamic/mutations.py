"""Mutation vocabulary shared by the dynamic layer and the QA harness.

A mutation is one of three ops on a resident graph:

``("add_edge", u, v)``
    Insert the undirected edge ``e(u, v)``. Inserting an edge that is
    already present is a no-op (the delta does not report it).
``("remove_edge", u, v)``
    Delete the undirected edge ``e(u, v)``. Deleting an absent edge is
    a no-op.
``("add_vertex", label)``
    Append a fresh isolated vertex carrying ``label``; it receives the
    next dense id.

Vertex *removal* is deliberately absent: dense ids are load-bearing
across every candidate structure and CSR buffer, and the serving
scenarios in ROADMAP item 4 (agent memory, streaming entity edges) are
append-heavy. A "removed" vertex is modeled by removing its edges.

Scripts — sequences of mutation *batches* — are plain data so the QA
corpus can serialize them verbatim: a script is a list of batches, a
batch a list of ``Mutation`` ops. :func:`script_to_json` /
:func:`script_from_json` round-trip through the ``repro.qa/v1`` JSON
corpus format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

__all__ = [
    "ADD_EDGE",
    "REMOVE_EDGE",
    "ADD_VERTEX",
    "MUTATION_OPS",
    "Mutation",
    "MutationScript",
    "op_error",
    "sanitize_batch",
    "script_to_json",
    "script_from_json",
]

ADD_EDGE = "add_edge"
REMOVE_EDGE = "remove_edge"
ADD_VERTEX = "add_vertex"

#: Recognized mutation opcodes.
MUTATION_OPS = (ADD_EDGE, REMOVE_EDGE, ADD_VERTEX)


@dataclass(frozen=True)
class Mutation:
    """One mutation op.

    ``a``/``b`` are the edge endpoints for edge ops; for ``add_vertex``
    ``a`` is the label and ``b`` is unused (kept at ``-1``).
    """

    op: str
    a: int
    b: int = -1

    def __post_init__(self) -> None:
        if self.op not in MUTATION_OPS:
            raise ValueError(f"unknown mutation op {self.op!r}")

    def to_json(self) -> List[Any]:
        if self.op == ADD_VERTEX:
            return [self.op, self.a]
        return [self.op, self.a, self.b]

    @classmethod
    def from_json(cls, payload: Sequence[Any]) -> "Mutation":
        op = str(payload[0])
        if op == ADD_VERTEX:
            return cls(op, int(payload[1]))
        return cls(op, int(payload[1]), int(payload[2]))


#: A script: a tuple of batches, each batch a tuple of mutations.
MutationScript = Tuple[Tuple[Mutation, ...], ...]


def op_error(mutation: Mutation, num_vertices: int) -> Optional[str]:
    """Why ``mutation`` is invalid against ``num_vertices`` vertices (a self
    loop, an endpoint out of range, a negative label), or ``None``: the one
    rule :meth:`~repro.dynamic.overlay.DynamicGraph.apply` raises by and
    :func:`sanitize_batch` drops by."""
    if mutation.op == ADD_VERTEX:
        return None if mutation.a >= 0 else "labels must be non-negative integers"
    u, v = mutation.a, mutation.b
    if u == v:
        return f"self loop on vertex {u} is not allowed"
    if not (0 <= u < num_vertices and 0 <= v < num_vertices):
        return f"edge ({u}, {v}) out of range for {num_vertices} vertices"
    return None


def sanitize_batch(
    batch: Sequence[Mutation], num_vertices: int
) -> Tuple[Tuple[Mutation, ...], int]:
    """Drop the ops :func:`op_error` refuses against ``num_vertices``.

    The QA shrinker deletes data vertices underneath a recorded mutation
    script, so replay must tolerate edge ops whose endpoints no longer
    exist (or collide into self-loops). ``add_vertex`` ops grow the id
    space for the ops after them, matching the batch-application
    semantics of :meth:`repro.dynamic.overlay.DynamicGraph.apply`.
    Returns the kept ops and the post-batch vertex count.
    """
    kept: List[Mutation] = []
    n = int(num_vertices)
    for mutation in batch:
        if op_error(mutation, n) is None:
            kept.append(mutation)
            n += mutation.op == ADD_VERTEX
    return tuple(kept), n


def script_to_json(script: Sequence[Sequence[Mutation]]) -> List[List[List[Any]]]:
    """Serialize a mutation script for the ``repro.qa/v1`` corpus."""
    return [[m.to_json() for m in batch] for batch in script]


def script_from_json(payload: Any) -> MutationScript:
    """Parse a mutation script from its corpus JSON form."""
    if payload is None:
        return ()
    return tuple(
        tuple(Mutation.from_json(item) for item in batch) for batch in payload
    )
