"""The array substrate every filter runs on.

Section 3.1 has the filters differ only in *schedule* — which query
vertex, in which order, against which anchor sets, how many rounds — over
the same rules, and each rule exists here once, as a batch over the CSR
arrays: **seed**, :func:`nlf_keep` over an LDF pool; **generate**,
:func:`neighbor_union` (Generation Rule 3.1); **refine**,
:func:`refine_keep` (Filtering Rule 3.1). Generate and refine reduce over
one ragged gather of the candidates' neighbor slices
(:func:`_gather_neighbors`, which counts the CSR entries it reads as
``filter.neighbors_gathered``), so a sweep costs a handful of numpy calls
instead of a Python loop per candidate-neighbor pair. Seed reads a
per-label column of neighbour-label counts that the data graph keeps
(:meth:`~repro.graph.graph.Graph.neighbor_label_counts`) — the one fact
cached on the graph for the filters. Like the label index, a column is
graph data: building or patching it is charged to no counter, so a run's
counters do not depend on which runs came before it. GraphQL's sweep
gathers once with ``charge=False`` and charges each vertex's slice when
that vertex reads it.

The scalar :func:`has_candidate_neighbor`, like
:func:`~repro.filtering.base.nlf_check`, is the rule's *definition*: the
property suite holds the batched form equal to it, and no filter calls it.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Mapping, Sequence, Tuple

import numpy as np

from repro.graph.graph import Graph
from repro.obs import add_counter

__all__ = [
    "MASK_BITS",
    "as_vertex_array",
    "has_candidate_neighbor",
    "neighbor_hit_mask",
    "neighbor_union",
    "nlf_keep",
    "refine_keep",
    "segment_starts",
]

_EMPTY_I64 = np.empty(0, dtype=np.int64)

#: Anchor lists one int64 membership mask can tell apart: its
#: non-negative bits.
MASK_BITS = 63


def as_vertex_array(values: Iterable[int]) -> np.ndarray:
    """``values`` as an int64 vertex-id array (no copy for int64 arrays)."""
    if isinstance(values, np.ndarray):
        if values.dtype == np.int64:
            return values
        return values.astype(np.int64)
    return np.fromiter(values, dtype=np.int64)


def has_candidate_neighbor(
    data: Graph,
    v: int,
    candidate_list: Sequence[int],
    candidate_set: AbstractSet[int],
) -> bool:
    """Whether ``N(v) ∩ C ≠ ∅`` (Filtering Rule 3.1's primitive check)."""
    neighbor_set = data.neighbor_set(v)
    if len(candidate_list) <= len(neighbor_set):
        return any(c in neighbor_set for c in candidate_list)
    return any(w in candidate_set for w in neighbor_set)


def segment_starts(lengths: np.ndarray) -> np.ndarray:
    """Where each of ``lengths`` consecutive segments begins (exclusive cumsum)."""
    starts = np.zeros(lengths.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    return starts


def _ragged_indices(
    starts: np.ndarray, lengths: np.ndarray, seg_starts: np.ndarray, total: int
) -> np.ndarray:
    """Flat CSR indices selecting each ``starts[i] .. +lengths[i]`` slice
    (``seg_starts`` is :func:`segment_starts` of ``lengths``)."""
    return np.repeat(starts - seg_starts, lengths) + np.arange(
        total, dtype=np.int64
    )


def _gather_neighbors(
    data: Graph, vs: np.ndarray, charge: bool = True
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The neighbor slices of ``vs`` laid end to end.

    Returns ``(gathered, seg_starts, nonempty)``: the concatenated
    slices, and the ``reduceat`` boundaries of the vertices flagged in
    ``nonempty``. Zero-length segments share their start with the
    following segment, so leaving them out gives boundaries that exactly
    tile ``gathered``. With ``charge`` false the caller counts the
    entries it reads.
    """
    offsets, neighbors = data.csr
    starts = offsets[vs]
    lengths = offsets[vs + 1] - starts
    nonempty = lengths > 0
    total = int(lengths.sum())
    if total == 0:
        return _EMPTY_I64, _EMPTY_I64, nonempty
    if charge:
        add_counter("filter.neighbors_gathered", total)
    seg_starts = segment_starts(lengths)
    gathered = neighbors[_ragged_indices(starts, lengths, seg_starts, total)]
    return gathered, seg_starts[nonempty], nonempty


def neighbor_union(
    data: Graph, parents: Sequence[int], label: int, min_degree: int
) -> np.ndarray:
    """Generation Rule 3.1's pool, sorted: the neighbors of ``parents``
    that pass LDF (``L(w) = label``, ``d(w) ≥ min_degree``).

    LDF is applied to the gathered entries, duplicates included, so the
    sort behind ``np.unique`` sees only the few that pass it.
    """
    gathered, _, _ = _gather_neighbors(data, as_vertex_array(parents))
    labelled = gathered[data.labels[gathered] == label]
    return np.unique(labelled[data.degrees[labelled] >= min_degree])


def neighbor_hit_mask(
    data: Graph, vertices: np.ndarray, member_mask: np.ndarray
) -> np.ndarray:
    """Per-vertex ``N(v) ∩ C ≠ ∅`` over a membership bitmap, batched.

    ``member_mask`` is a bool array over the data-vertex universe with
    ``True`` at the members of ``C``. Returns a bool array aligned with
    ``vertices``. One gather plus one segmented OR — no per-vertex loop.
    """
    vs = as_vertex_array(vertices)
    out = np.zeros(vs.size, dtype=bool)
    gathered, seg_starts, nonempty = _gather_neighbors(data, vs)
    if gathered.size:
        out[nonempty] = np.bitwise_or.reduceat(member_mask[gathered], seg_starts)
    return out


def nlf_keep(
    data: Graph, vertices: Sequence[int], required: Mapping[int, int]
) -> np.ndarray:
    """The NLF rule, batched: keep ``v`` with ``|N(v, l)| ≥ required[l]``
    for every label ``l`` (``required`` is a query vertex's
    :meth:`~repro.graph.graph.Graph.nlf`, so every count is positive).

    One lookup per required label into the data graph's resident
    :meth:`~repro.graph.graph.Graph.neighbor_label_counts` column — no
    gather of the pool's neighbors, no per-vertex loop. ``vertices`` may
    mix labels. A label the data graph lacks keeps no vertex, and asks
    for no column.
    """
    vs = as_vertex_array(vertices)
    for label, needed in required.items():
        if vs.size == 0:
            break
        if data.label_frequency(label) == 0:
            return vs[:0]
        vs = vs[data.neighbor_label_counts(label)[vs] >= needed]
    return vs


def refine_keep(
    data: Graph,
    target: Sequence[int],
    anchor_lists: Sequence[Sequence[int]],
    scratch: np.ndarray,
) -> np.ndarray:
    """Filtering Rule 3.1, batched: keep ``v ∈ target`` with at least one
    neighbor in every anchor list.

    ``scratch`` is a reusable bool (or integer) array over the
    data-vertex universe (all zero on entry; restored to all zero on
    exit). The surviving candidates shrink after each anchor, so later
    anchors scan progressively smaller gather sets.
    """
    vs = as_vertex_array(target)
    for anchor in anchor_lists:
        if vs.size == 0:
            break
        arr = as_vertex_array(anchor)
        if arr.size == 0:
            return _EMPTY_I64
        scratch[arr] = True
        vs = vs[neighbor_hit_mask(data, vs, scratch)]
        scratch[arr] = False
    return vs
