"""Pluggable graph storage: one CSR layout, three residency backends.

Every layer above this module consumes a :class:`~repro.graph.graph.Graph`
— an immutable view over four canonical int64 arrays (labels, CSR
offsets, CSR neighbors, and the stable label-sorted vertex permutation
the label index is derived from). This module owns where those arrays
physically live:

* :class:`InMemoryStore` — plain process-heap numpy arrays (the
  historical representation; what ``Graph(labels, edges)`` builds);
* :class:`MmapStore` — a versioned binary graph file (``.rgf``) opened
  with ``np.memmap``, so a cold graph larger than RAM opens in O(header)
  and matching touches only the pages the search actually reads (the
  working-set argument of the compact-neighborhood-index line of work);
* :class:`SharedMemoryStore` — one POSIX shared-memory segment published
  by a parent process and attached zero-copy by workers
  (:mod:`repro.parallel` rides this backend).

All three backends share **one** serialization/layout path:
:class:`CSRLayout` places the four arrays back to back in a flat int64
buffer, and :func:`pack_into`/:meth:`CSRLayout.split` are the only code
that knows the order. A graph round-tripped through any backend is
byte-identical to the source — the parity property suite and the QA
harness's storage axis enforce this — so any engine/preset/kernel runs
identically off any backend.

The ``.rgf`` format (**r**epro **g**raph **f**ile), version 1::

    offset  size  field
    0       4     magic b"RGF1"
    4       2     format version (little-endian u16, currently 1)
    6       2     flags (reserved, 0)
    8       8     num_vertices        (i64)
    16      8     num_edges           (i64, undirected edge count)
    24      8     directed_edges      (i64, length of the neighbors array)
    32      4     crc32 of the labels segment     (u32)
    36      4     crc32 of the offsets segment    (u32)
    40      4     crc32 of the neighbors segment  (u32)
    44      4     crc32 of the by_label segment   (u32)
    48      4     crc32 of header bytes [0, 48)   (u32)
    52      12    reserved padding (zeros)
    64      -     the four little-endian int64 array segments, in
                  CSRLayout order: labels | offsets | neighbors | by_label

Opening reads and verifies only the 64-byte header; segment checksums
are verified on demand (``validate=True``), because a full-file CRC pass
would defeat the O(header) open that out-of-core matching needs.
All malformed/truncated input raises :class:`~repro.errors.GraphFormatError`
with file and byte-offset context.
"""

from __future__ import annotations

import hashlib
import os
import struct
import weakref
import zlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from multiprocessing import shared_memory
from pathlib import Path
from typing import Optional, Tuple, Union

import numpy as np

from repro.errors import GraphFormatError, InvalidGraphError
from repro.graph.graph import Graph

__all__ = [
    "CSRLayout",
    "GraphStore",
    "InMemoryStore",
    "MmapStore",
    "SharedMemoryStore",
    "SharedGraphHandle",
    "RGF_MAGIC",
    "RGF_VERSION",
    "RGF_HEADER_SIZE",
    "write_rgf",
    "read_rgf_header",
    "as_graph",
    "graph_arrays",
]

#: Canonical array dtype: little-endian 8-byte signed, on every backend.
DTYPE = np.dtype("<i8")
_ITEMSIZE = DTYPE.itemsize

RGF_MAGIC = b"RGF1"
RGF_VERSION = 1
RGF_HEADER_SIZE = 64

#: magic | version | flags | n | e | m | 4 segment CRCs | header CRC | pad
_HEADER = struct.Struct("<4sHHqqqIIIII12x")
#: The header CRC covers everything before its own field.
_HEADER_CRC_SPAN = 48

PathLike = Union[str, os.PathLike]


@dataclass(frozen=True)
class CSRLayout:
    """Placement of the four canonical arrays in one flat int64 buffer.

    The order — ``labels(n) | offsets(n+1) | neighbors(m) | by_label(n)``
    — is the single layout every backend serializes through; the
    shared-memory segment and the ``.rgf`` data section are byte-for-byte
    the same region.
    """

    num_vertices: int
    num_edges: int
    directed_edges: int

    @property
    def total_items(self) -> int:
        n = self.num_vertices
        return n + (n + 1) + self.directed_edges + n

    @property
    def total_bytes(self) -> int:
        return self.total_items * _ITEMSIZE

    def split(
        self, base: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Views of the four arrays inside ``base`` (no copies)."""
        n, m = self.num_vertices, self.directed_edges
        labels = base[0:n]
        offsets = base[n : 2 * n + 1]
        neighbors = base[2 * n + 1 : 2 * n + 1 + m]
        by_label = base[2 * n + 1 + m : 3 * n + 1 + m]
        return labels, offsets, neighbors, by_label

    def segment_spans(self) -> Tuple[Tuple[str, int, int], ...]:
        """``(name, start_item, item_count)`` for each array, in order."""
        n, m = self.num_vertices, self.directed_edges
        return (
            ("labels", 0, n),
            ("offsets", n, n + 1),
            ("neighbors", 2 * n + 1, m),
            ("by_label", 2 * n + 1 + m, n),
        )

    @classmethod
    def for_graph(cls, graph: Graph) -> "CSRLayout":
        offsets, neighbors = graph.csr
        return cls(
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            directed_edges=int(neighbors.size),
        )


def graph_arrays(
    graph: Graph,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four canonical arrays of ``graph``, by_label computed here.

    ``by_label`` is the stable label-argsort permutation the label index
    is built from; shipping it with the CSR lets every consumer of a
    serialized graph skip the O(n log n) sort on open/attach.
    """
    offsets, neighbors = graph.csr
    by_label = np.argsort(graph.labels, kind="stable")
    return graph.labels, offsets, neighbors, by_label


def pack_into(base: np.ndarray, graph: Graph) -> CSRLayout:
    """Copy a graph's arrays into ``base`` using the canonical layout."""
    layout = CSRLayout.for_graph(graph)
    labels, offsets, neighbors, by_label = graph_arrays(graph)
    dst_labels, dst_offsets, dst_neighbors, dst_by_label = layout.split(base)
    dst_labels[:] = labels
    dst_offsets[:] = offsets
    dst_neighbors[:] = neighbors
    dst_by_label[:] = by_label
    return layout


# ----------------------------------------------------------------------
# The store interface
# ----------------------------------------------------------------------


class GraphStore(ABC):
    """Owner of one graph's canonical CSR arrays.

    Concrete stores differ only in where the arrays live (heap, memmap,
    shared memory); everything above reads the same four views. The
    :meth:`graph` view is cached *weakly*: the graph holds a strong
    reference to its store, so a strong back-reference would form a
    refcount cycle keeping buffer exports (shared-memory views) alive
    until a gc pass — dropping the graph must release the segment
    promptly. Rebuilding a collected view is cheap anyway: ``Graph``
    derives its label index from ``by_label`` without re-sorting, so
    construction costs O(n) regardless of backend.
    """

    #: Registry-style backend name, recorded by benchmarks and the QA axis.
    backend: str = "?"

    labels: np.ndarray
    offsets: np.ndarray
    neighbors: np.ndarray
    by_label: np.ndarray

    _layout: CSRLayout
    _graph: Optional["weakref.ref[Graph]"] = None

    @property
    def layout(self) -> CSRLayout:
        return self._layout

    @property
    def num_vertices(self) -> int:
        return self._layout.num_vertices

    @property
    def num_edges(self) -> int:
        return self._layout.num_edges

    @property
    def directed_edges(self) -> int:
        return self._layout.directed_edges

    @property
    def nbytes(self) -> int:
        return self._layout.total_bytes

    def graph(self) -> Graph:
        """The :class:`Graph` view over this store (weakly cached)."""
        graph = self._graph() if self._graph is not None else None
        if graph is None:
            graph = Graph.from_store(self)
            self._graph = weakref.ref(graph)
        return graph

    def fingerprint(self) -> str:
        """SHA-256 over the layout and array bytes.

        Byte-identical arrays hash identically on every backend — the
        cross-backend parity currency of the QA storage axis.
        """
        digest = hashlib.sha256()
        digest.update(
            f"{self.num_vertices}/{self.num_edges}/{self.directed_edges}".encode()
        )
        digest.update(np.ascontiguousarray(self.labels, dtype=DTYPE).tobytes())
        digest.update(np.ascontiguousarray(self.offsets, dtype=DTYPE).tobytes())
        digest.update(
            np.ascontiguousarray(self.neighbors, dtype=DTYPE).tobytes()
        )
        return digest.hexdigest()

    @abstractmethod
    def close(self) -> None:
        """Release backend resources (idempotent)."""

    def __enter__(self) -> "GraphStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(|V|={self.num_vertices}, "
            f"|E|={self.num_edges}, {self.nbytes} bytes)"
        )


class InMemoryStore(GraphStore):
    """The historical representation: plain heap-resident numpy arrays."""

    backend = "memory"

    def __init__(
        self,
        labels: np.ndarray,
        offsets: np.ndarray,
        neighbors: np.ndarray,
        by_label: np.ndarray,
        num_edges: int,
    ) -> None:
        self._layout = CSRLayout(
            num_vertices=int(labels.size),
            num_edges=int(num_edges),
            directed_edges=int(neighbors.size),
        )
        self.labels = labels
        self.offsets = offsets
        self.neighbors = neighbors
        self.by_label = by_label
        self._graph = None

    @classmethod
    def from_graph(cls, graph: Graph) -> "InMemoryStore":
        """Wrap an existing graph's arrays (no copies).

        The store's :meth:`graph` returns ``graph`` itself, so
        ``Graph.store`` round-trips to the same object.
        """
        labels, offsets, neighbors, by_label = graph_arrays(graph)
        store = cls(labels, offsets, neighbors, by_label, graph.num_edges)
        store._graph = weakref.ref(graph)
        return store

    @classmethod
    def materialize(cls, source: GraphStore) -> "InMemoryStore":
        """Copy another store's arrays into process memory.

        This is the explicit "load it all into RAM" operation — the
        baseline the out-of-core benchmark compares :class:`MmapStore`
        against.
        """
        return cls(
            np.array(source.labels, dtype=np.int64),
            np.array(source.offsets, dtype=np.int64),
            np.array(source.neighbors, dtype=np.int64),
            np.array(source.by_label, dtype=np.int64),
            source.num_edges,
        )

    def close(self) -> None:
        """Nothing to release; the arrays die with their references."""


# ----------------------------------------------------------------------
# The .rgf binary format and its memmap-backed store
# ----------------------------------------------------------------------


def _pack_header(layout: CSRLayout, crcs: Tuple[int, int, int, int]) -> bytes:
    body = _HEADER.pack(
        RGF_MAGIC,
        RGF_VERSION,
        0,
        layout.num_vertices,
        layout.num_edges,
        layout.directed_edges,
        crcs[0],
        crcs[1],
        crcs[2],
        crcs[3],
        0,  # header CRC placeholder, patched below
    )
    header_crc = zlib.crc32(body[:_HEADER_CRC_SPAN])
    return (
        body[:_HEADER_CRC_SPAN]
        + struct.pack("<I", header_crc)
        + body[_HEADER_CRC_SPAN + 4 :]
    )


def write_rgf(source: Union[Graph, GraphStore], path: PathLike) -> CSRLayout:
    """Write a graph (or any store's contents) as a ``.rgf`` file.

    The write is atomic-ish: arrays stream to ``<path>.tmp`` and the file
    is renamed into place, so a crashed convert never leaves a
    truncated file under the target name.
    """
    if isinstance(source, GraphStore):
        layout = source.layout
        arrays = (source.labels, source.offsets, source.neighbors, source.by_label)
    else:
        layout = CSRLayout.for_graph(source)
        arrays = graph_arrays(source)
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    crcs = []
    contiguous = [np.ascontiguousarray(arr, dtype=DTYPE) for arr in arrays]
    for arr in contiguous:
        crcs.append(zlib.crc32(arr.view(np.uint8)))
    try:
        with open(tmp, "wb") as fh:
            fh.write(_pack_header(layout, tuple(crcs)))
            for arr in contiguous:
                fh.write(memoryview(arr).cast("B"))
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()
    return layout


def read_rgf_header(path: PathLike) -> Tuple[CSRLayout, Tuple[int, int, int, int]]:
    """Parse and verify a ``.rgf`` header; returns (layout, segment CRCs).

    Raises :class:`GraphFormatError` (with file and offset context) on a
    bad magic, unsupported version, corrupt header checksum, or a file
    whose size disagrees with the layout the header declares.
    """
    path = Path(path)
    try:
        size = path.stat().st_size
        with open(path, "rb") as fh:
            raw = fh.read(RGF_HEADER_SIZE)
    except OSError as exc:
        raise GraphFormatError(f"{path}: cannot read header: {exc}") from exc
    if len(raw) < RGF_HEADER_SIZE:
        raise GraphFormatError(
            f"{path}: truncated header — {len(raw)} bytes, "
            f"need {RGF_HEADER_SIZE} (offset 0)"
        )
    (
        magic,
        version,
        _flags,
        num_vertices,
        num_edges,
        directed_edges,
        crc_labels,
        crc_offsets,
        crc_neighbors,
        crc_by_label,
        header_crc,
    ) = _HEADER.unpack(raw)
    if magic != RGF_MAGIC:
        raise GraphFormatError(
            f"{path}: bad magic {magic!r} at offset 0 (expected {RGF_MAGIC!r})"
        )
    if version != RGF_VERSION:
        raise GraphFormatError(
            f"{path}: unsupported rgf version {version} at offset 4 "
            f"(this build reads version {RGF_VERSION})"
        )
    actual_crc = zlib.crc32(raw[:_HEADER_CRC_SPAN])
    if header_crc != actual_crc:
        raise GraphFormatError(
            f"{path}: header checksum mismatch at offset {_HEADER_CRC_SPAN} "
            f"(stored {header_crc:#010x}, computed {actual_crc:#010x})"
        )
    if num_vertices < 0 or num_edges < 0 or directed_edges < 0:
        raise GraphFormatError(
            f"{path}: negative counts in header "
            f"(|V|={num_vertices}, |E|={num_edges}, m={directed_edges})"
        )
    layout = CSRLayout(
        num_vertices=num_vertices,
        num_edges=num_edges,
        directed_edges=directed_edges,
    )
    expected = RGF_HEADER_SIZE + layout.total_bytes
    if size != expected:
        raise GraphFormatError(
            f"{path}: file is {size} bytes but the header declares "
            f"{expected} (|V|={num_vertices}, m={directed_edges}); "
            f"truncated at offset {min(size, expected)}"
        )
    return layout, (crc_labels, crc_offsets, crc_neighbors, crc_by_label)


class MmapStore(GraphStore):
    """A ``.rgf`` file mapped read-only with ``np.memmap``.

    Opening costs O(header): the 64-byte header is read and verified,
    the data section is mapped (no pages touched), and the four array
    views are sliced out. The OS pages data in as matching reads it and
    evicts cold pages under memory pressure — which is the entire
    out-of-core story.

    ``validate=True`` additionally verifies every segment checksum and
    the CSR structural invariants; that reads the whole file, so it is
    opt-in (the ``repro convert --validate`` path and the QA harness use
    it; hot-path opens do not).
    """

    backend = "mmap"

    def __init__(self, path: PathLike, validate: bool = False) -> None:
        self.path = Path(path)
        layout, crcs = read_rgf_header(self.path)
        self._layout = layout
        try:
            self._base = np.memmap(
                self.path,
                dtype=DTYPE,
                mode="r",
                offset=RGF_HEADER_SIZE,
                shape=(layout.total_items,),
            )
        except (OSError, ValueError) as exc:
            raise GraphFormatError(
                f"{self.path}: cannot map {layout.total_bytes} data bytes "
                f"at offset {RGF_HEADER_SIZE}: {exc}"
            ) from exc
        # Plain ndarray views of the mapping: indexing an ``np.memmap``
        # goes through its Python-level ``__getitem__``/``__array_finalize__``
        # on every neighbor slice. The views' ``.base`` chain holds the map.
        self.labels, self.offsets, self.neighbors, self.by_label = (
            layout.split(np.asarray(self._base))
        )
        self._graph = None
        self._closed = False
        if validate:
            self._validate(crcs)

    def _validate(self, crcs: Tuple[int, int, int, int]) -> None:
        for (name, start, count), expected in zip(
            self._layout.segment_spans(), crcs
        ):
            segment = self._base[start : start + count]
            actual = zlib.crc32(np.ascontiguousarray(segment).view(np.uint8))
            if actual != expected:
                offset = RGF_HEADER_SIZE + start * _ITEMSIZE
                raise GraphFormatError(
                    f"{self.path}: {name} segment checksum mismatch at "
                    f"offset {offset} (stored {expected:#010x}, "
                    f"computed {actual:#010x})"
                )
        offsets, neighbors = self.offsets, self.neighbors
        n = self.num_vertices
        if offsets.size != n + 1 or int(offsets[0]) != 0:
            raise GraphFormatError(
                f"{self.path}: offsets array malformed (size {offsets.size}, "
                f"first {int(offsets[0]) if offsets.size else '-'})"
            )
        if n and int(offsets[-1]) != self.directed_edges:
            raise GraphFormatError(
                f"{self.path}: offsets end at {int(offsets[-1])}, expected "
                f"directed_edges={self.directed_edges}"
            )
        if n and np.any(np.diff(offsets) < 0):
            raise GraphFormatError(f"{self.path}: offsets not monotonic")
        if neighbors.size and (
            int(neighbors.min()) < 0 or int(neighbors.max()) >= n
        ):
            raise GraphFormatError(
                f"{self.path}: neighbor ids out of range [0, {n})"
            )
        by_label = self.by_label
        if by_label.size and (
            int(by_label.min()) < 0 or int(by_label.max()) >= n
        ):
            raise GraphFormatError(
                f"{self.path}: by_label permutation out of range [0, {n})"
            )

    def close(self) -> None:
        """Drop the mapping (idempotent).

        Existing array views keep their pages alive until they die;
        close only releases this store's own references so the file
        handle goes away promptly on platforms that care.
        """
        if self._closed:
            return
        self._closed = True
        self._graph = None
        self.labels = self.offsets = self.neighbors = self.by_label = None  # type: ignore[assignment]
        self._base = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"MmapStore({str(self.path)!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}, {self.nbytes} bytes)"
        )


# ----------------------------------------------------------------------
# Shared-memory backend
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SharedGraphHandle:
    """Picklable descriptor of a published graph: name plus array layout.

    ``directed_edges`` is the length of the neighbors array (``2|E|`` for
    an undirected CSR with mirrored edges).
    """

    name: str
    num_vertices: int
    num_edges: int
    directed_edges: int

    @property
    def layout(self) -> CSRLayout:
        return CSRLayout(
            num_vertices=self.num_vertices,
            num_edges=self.num_edges,
            directed_edges=self.directed_edges,
        )

    @property
    def total_items(self) -> int:
        return self.layout.total_items


class SharedMemoryStore(GraphStore):
    """The canonical CSR layout inside one POSIX shared-memory segment.

    Create with :meth:`publish` (the owning side — copies the arrays in
    and is responsible for :meth:`close`, which unlinks the segment) or
    :meth:`attach` (the worker side — maps the existing segment by name,
    zero-copy; attachers just drop their references, because closing a
    mapping that still has exported array views would raise
    ``BufferError``).
    """

    backend = "shared"

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        handle: SharedGraphHandle,
        owner: bool,
    ) -> None:
        self._shm = shm
        self.handle = handle
        self._owner = owner
        self._layout = handle.layout
        base = np.frombuffer(
            shm.buf, dtype=DTYPE, count=self._layout.total_items
        )
        self.labels, self.offsets, self.neighbors, self.by_label = (
            self._layout.split(base)
        )
        self._graph = None
        self._closed = False

    @classmethod
    def publish(cls, source: Union[Graph, GraphStore]) -> "SharedMemoryStore":
        """Copy a graph into a fresh segment; the caller owns the result."""
        graph = source.graph() if isinstance(source, GraphStore) else source
        layout = CSRLayout.for_graph(graph)
        # Zero-vertex graphs still need a nonzero-size segment.
        shm = shared_memory.SharedMemory(
            create=True, size=max(layout.total_bytes, _ITEMSIZE)
        )
        base = np.frombuffer(shm.buf, dtype=DTYPE, count=layout.total_items)
        pack_into(base, graph)
        del base
        handle = SharedGraphHandle(
            name=shm.name,
            num_vertices=layout.num_vertices,
            num_edges=layout.num_edges,
            directed_edges=layout.directed_edges,
        )
        return cls(shm, handle, owner=True)

    @classmethod
    def attach(cls, handle: SharedGraphHandle) -> "SharedMemoryStore":
        """Map a published segment by name (zero-copy, not the owner)."""
        shm = shared_memory.SharedMemory(name=handle.name)
        return cls(shm, handle, owner=False)

    @property
    def name(self) -> str:
        return self.handle.name

    @property
    def segment(self) -> shared_memory.SharedMemory:
        return self._shm

    def close(self) -> None:
        """Owner: close and unlink the segment. Attacher: close the mapping.

        Idempotent either way. A handed-out :meth:`graph` view still
        exporting the buffer keeps the mapping alive (the ``close`` on
        the raw segment is skipped, and the mapping dies with the
        views); the owner's ``unlink`` — the part the /dev/shm leak gate
        watches — happens regardless.
        """
        if self._closed:
            return
        self._closed = True
        self._graph = None
        self.labels = self.offsets = self.neighbors = self.by_label = None  # type: ignore[assignment]
        try:
            self._shm.close()
        except BufferError:
            pass
        if self._owner:
            self._shm.unlink()

    def __del__(self) -> None:
        # Dropped without close() — pool workers just drop their graph —
        # the views must still die before the mapping they export, or the
        # segment's own finalizer cannot close it.
        self.labels = self.offsets = self.neighbors = self.by_label = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        role = "owner" if self._owner else "attached"
        return (
            f"SharedMemoryStore({self.handle.name}, {role}, "
            f"|V|={self.num_vertices}, {self.nbytes} bytes)"
        )


# ----------------------------------------------------------------------
# Residency resolution
# ----------------------------------------------------------------------

GraphSource = Union[Graph, GraphStore, str, os.PathLike]


def as_graph(data: GraphSource) -> Graph:
    """Resolve anything graph-shaped into a :class:`Graph` view.

    Accepts a :class:`Graph` (returned unchanged), a :class:`GraphStore`
    (its cached view), or a path — ``.rgf`` files open memmap-backed in
    O(header); anything else parses as the ``.graph`` text format. This
    is the single residency entry point used by
    :class:`~repro.core.session.MatchSession`,
    :class:`~repro.serve.service.MatchService` and the study runners.
    """
    if isinstance(data, Graph):
        return data
    if isinstance(data, GraphStore):
        return data.graph()
    if isinstance(data, (str, os.PathLike)):
        from repro.graph.io import load_graph

        return load_graph(data)
    raise InvalidGraphError(
        f"cannot resolve {type(data).__name__!r} into a graph "
        "(expected Graph, GraphStore, or a path)"
    )
