"""Unit tests for the graph storage layer (repro.graph.store)."""

import os
import zlib

import numpy as np
import pytest

from repro.errors import GraphFormatError, InvalidGraphError
from repro.graph import Graph
from repro.graph.store import (
    RGF_HEADER_SIZE,
    RGF_MAGIC,
    CSRLayout,
    InMemoryStore,
    MmapStore,
    SharedMemoryStore,
    as_graph,
    graph_arrays,
    read_rgf_header,
    write_rgf,
)


@pytest.fixture
def graph():
    return Graph(
        labels=[0, 1, 0, 2, 1],
        edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)],
    )


class TestCSRLayout:
    def test_for_graph_counts(self, graph):
        layout = CSRLayout.for_graph(graph)
        assert layout.num_vertices == 5
        assert layout.num_edges == 6
        assert layout.directed_edges == 12
        # labels(n) + offsets(n+1) + neighbors(2E) + by_label(n)
        assert layout.total_items == 3 * 5 + 1 + 12
        assert layout.total_bytes == layout.total_items * 8

    def test_split_partitions_everything(self, graph):
        layout = CSRLayout.for_graph(graph)
        base = np.arange(layout.total_items, dtype=np.int64)
        labels, offsets, neighbors, by_label = layout.split(base)
        total = sum(a.size for a in (labels, offsets, neighbors, by_label))
        assert total == layout.total_items
        # Views, not copies.
        assert labels.base is base

    def test_segment_spans_cover_in_order(self, graph):
        layout = CSRLayout.for_graph(graph)
        spans = layout.segment_spans()
        assert [name for name, _, _ in spans] == [
            "labels", "offsets", "neighbors", "by_label",
        ]
        cursor = 0
        for _, start, count in spans:
            assert start == cursor
            cursor += count
        assert cursor == layout.total_items

    def test_empty_graph(self):
        layout = CSRLayout.for_graph(Graph(labels=[], edges=[]))
        assert layout.total_items == 1  # the lone offsets[0] = 0


class TestInMemoryStore:
    def test_from_graph_is_zero_copy(self, graph):
        store = InMemoryStore.from_graph(graph)
        assert store.labels is graph.labels
        assert store.graph() is graph
        assert store.backend == "memory"

    def test_graph_store_property_caches(self, graph):
        assert graph.store is graph.store
        assert graph.store.graph() is graph

    def test_materialize_copies(self, graph):
        copy = InMemoryStore.materialize(graph.store)
        assert copy.labels is not graph.labels
        assert copy.graph() == graph

    def test_fingerprint_stable_across_backends(self, graph, tmp_path):
        fp = graph.store.fingerprint()
        path = tmp_path / "g.rgf"
        write_rgf(graph, path)
        with MmapStore(path) as store:
            assert store.fingerprint() == fp
        assert InMemoryStore.materialize(graph.store).fingerprint() == fp


class TestRgfFormat:
    def test_round_trip(self, graph, tmp_path):
        path = tmp_path / "g.rgf"
        write_rgf(graph, path)
        with MmapStore(path, validate=True) as store:
            assert store.graph() == graph
            assert store.backend == "mmap"

    def test_header_is_constant_size(self, graph, tmp_path):
        path = tmp_path / "g.rgf"
        write_rgf(graph, path)
        layout, _ = read_rgf_header(path)
        assert path.stat().st_size == RGF_HEADER_SIZE + layout.total_bytes

    def test_empty_graph_round_trip(self, tmp_path):
        empty = Graph(labels=[], edges=[])
        path = tmp_path / "empty.rgf"
        write_rgf(empty, path)
        with MmapStore(path, validate=True) as store:
            assert store.graph() == empty

    def test_arrays_are_plain_readonly_views_that_outlive_close(
        self, graph, tmp_path
    ):
        # np.memmap's Python-level __getitem__ must not sit on the hot
        # path; the views' .base chain, not the store, holds the mapping.
        path = tmp_path / "g.rgf"
        write_rgf(graph, path)
        store = MmapStore(path)
        labels, offsets, neighbors, by_label = graph_arrays(graph)
        for name in ("labels", "offsets", "neighbors", "by_label"):
            array = getattr(store, name)
            assert type(array) is np.ndarray
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            store.neighbors[0] = 0
        start, stop = int(offsets[1]), int(offsets[2])
        run = store.neighbors[start:stop]
        assert type(run) is np.ndarray
        view = store.graph()
        store.close()
        assert run.tolist() == neighbors[start:stop].tolist()
        assert view.neighbors(1).tolist() == graph.neighbors(1).tolist()
        assert view.labels.tolist() == labels.tolist()

    def test_write_is_atomic(self, graph, tmp_path):
        path = tmp_path / "g.rgf"
        write_rgf(graph, path)
        assert not (tmp_path / "g.rgf.tmp").exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(GraphFormatError, match="rgf"):
            MmapStore(tmp_path / "nope.rgf")

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.rgf"
        path.write_bytes(b"RGF1abc")
        with pytest.raises(GraphFormatError, match="truncated"):
            read_rgf_header(path)

    def test_bad_magic(self, graph, tmp_path):
        path = tmp_path / "g.rgf"
        write_rgf(graph, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(raw)
        with pytest.raises(GraphFormatError, match="magic"):
            MmapStore(path)

    def test_unsupported_version(self, graph, tmp_path):
        path = tmp_path / "g.rgf"
        write_rgf(graph, path)
        raw = bytearray(path.read_bytes())
        raw[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(raw)
        with pytest.raises(GraphFormatError, match="version"):
            MmapStore(path)

    def test_header_checksum_detects_flips(self, graph, tmp_path):
        path = tmp_path / "g.rgf"
        write_rgf(graph, path)
        raw = bytearray(path.read_bytes())
        raw[8] ^= 0xFF  # num_vertices field
        path.write_bytes(raw)
        with pytest.raises(GraphFormatError, match="header checksum"):
            MmapStore(path)

    def test_truncated_data(self, graph, tmp_path):
        path = tmp_path / "g.rgf"
        write_rgf(graph, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(GraphFormatError, match="truncated"):
            MmapStore(path)

    def test_segment_checksum_mismatch_names_offset(self, graph, tmp_path):
        path = tmp_path / "g.rgf"
        write_rgf(graph, path)
        raw = bytearray(path.read_bytes())
        raw[RGF_HEADER_SIZE] ^= 0x01  # first byte of the labels segment
        path.write_bytes(raw)
        with pytest.raises(GraphFormatError) as err:
            MmapStore(path, validate=True)
        assert "labels" in str(err.value)
        assert str(RGF_HEADER_SIZE) in str(err.value)

    def test_validation_off_skips_checksums(self, graph, tmp_path):
        # validate=False is the O(header) open: segment CRCs not read.
        path = tmp_path / "g.rgf"
        write_rgf(graph, path)
        raw = bytearray(path.read_bytes())
        raw[RGF_HEADER_SIZE] ^= 0x01
        path.write_bytes(raw)
        store = MmapStore(path)  # opens fine
        store.close()

    def test_csr_invariant_violation_caught(self, graph, tmp_path):
        # Corrupt offsets into a non-monotonic sequence and fix up its
        # CRC so only the structural validation can catch it.
        path = tmp_path / "g.rgf"
        write_rgf(graph, path)
        layout, _ = read_rgf_header(path)
        raw = bytearray(path.read_bytes())
        n = layout.num_vertices
        start = RGF_HEADER_SIZE + n * 8  # offsets segment
        seg = np.frombuffer(
            bytes(raw[start:start + (n + 1) * 8]), dtype="<i8"
        ).copy()
        seg[1] = seg[-1] + 10
        raw[start:start + (n + 1) * 8] = seg.tobytes()
        crc = zlib.crc32(seg.tobytes())
        raw[36:40] = crc.to_bytes(4, "little")  # offsets crc slot
        raw[48:52] = zlib.crc32(bytes(raw[:48])).to_bytes(4, "little")
        path.write_bytes(raw)
        with pytest.raises(GraphFormatError, match="offsets"):
            MmapStore(path, validate=True)

    def test_error_carries_path_context(self, tmp_path):
        path = tmp_path / "bad.rgf"
        path.write_bytes(b"junk")
        with pytest.raises(GraphFormatError, match="bad.rgf"):
            read_rgf_header(path)


class TestSharedMemoryStore:
    def test_publish_attach_round_trip(self, graph):
        owner = SharedMemoryStore.publish(graph)
        try:
            assert owner.backend == "shared"
            attached = SharedMemoryStore.attach(owner.handle)
            try:
                assert attached.graph() == graph
                assert attached.fingerprint() == graph.store.fingerprint()
            finally:
                attached.close()
        finally:
            owner.close()

    def test_owner_close_unlinks(self, graph):
        owner = SharedMemoryStore.publish(graph)
        name = owner.name
        owner.close()
        assert not os.path.exists(f"/dev/shm/{name}")

    def test_handle_carries_layout(self, graph):
        owner = SharedMemoryStore.publish(graph)
        try:
            handle = owner.handle
            assert handle.num_vertices == graph.num_vertices
            assert handle.num_edges == graph.num_edges
            assert handle.layout == CSRLayout.for_graph(graph)
        finally:
            owner.close()


class TestAsGraph:
    def test_graph_passthrough(self, graph):
        assert as_graph(graph) is graph

    def test_store_dispatch(self, graph):
        assert as_graph(graph.store) is graph

    def test_rgf_path_dispatch(self, graph, tmp_path):
        path = tmp_path / "g.rgf"
        write_rgf(graph, path)
        loaded = as_graph(path)
        assert loaded == graph
        assert loaded._store is not None
        assert loaded._store.backend == "mmap"

    def test_text_path_dispatch(self, graph, tmp_path):
        from repro.graph import save_graph

        path = tmp_path / "g.graph"
        save_graph(graph, path)
        assert as_graph(str(path)) == graph

    def test_rejects_junk(self):
        with pytest.raises(InvalidGraphError):
            as_graph(42)


class TestGraphArrays:
    def test_by_label_is_stable_label_sort(self, graph):
        _, _, _, by_label = graph_arrays(graph)
        labels = graph.labels[by_label]
        assert list(labels) == sorted(labels)
        # Stable: ids ascending inside each label group.
        for lbl in set(graph.labels.tolist()):
            group = by_label[labels == lbl]
            assert list(group) == sorted(group)


class TestStoreBackedMatching:
    def test_match_identical_across_backends(self, graph, tmp_path):
        from repro.core.api import match

        query = Graph(labels=[0, 1, 0], edges=[(0, 1), (1, 2)])
        baseline = match(query, graph, algorithm="GQL")
        path = tmp_path / "g.rgf"
        write_rgf(graph, path)
        with MmapStore(path, validate=True) as mmap_store:
            from_mmap = match(query, mmap_store.graph(), algorithm="GQL")
        shm = SharedMemoryStore.publish(graph)
        try:
            from_shm = match(query, shm.graph(), algorithm="GQL")
        finally:
            shm.close()
        assert from_mmap.embeddings == baseline.embeddings
        assert from_shm.embeddings == baseline.embeddings

    def test_store_backed_graph_pickles_as_plain_arrays(self, graph, tmp_path):
        import pickle

        path = tmp_path / "g.rgf"
        write_rgf(graph, path)
        with MmapStore(path) as store:
            clone = pickle.loads(pickle.dumps(store.graph()))
        assert clone == graph
        assert clone._store is None
        assert clone.labels.base is None or clone.labels.flags.owndata
