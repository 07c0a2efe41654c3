"""Unit tests for the kernel backend registry (repro.utils.kernels)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.utils import kernels
from repro.utils.kernels import (
    BitsetKernel,
    KernelBackend,
    NumpyKernel,
    QFilterKernel,
    RowsKernel,
    ScalarKernel,
    _REGISTRY,
    available_kernels,
    get_kernel,
    intersect_merge,
    multi_intersect,
    register_kernel,
)


class TestRegistry:
    def test_builtin_backends_listed(self):
        names = available_kernels()
        assert {"scalar", "numpy", "bitset", "qfilter", "rows", "auto"} <= set(names)
        assert names == sorted(set(names) - {"auto"}) + ["auto"]

    @pytest.mark.parametrize(
        "name,cls",
        [
            ("scalar", ScalarKernel),
            ("numpy", NumpyKernel),
            ("bitset", BitsetKernel),
            ("qfilter", QFilterKernel),
            ("rows", RowsKernel),
        ],
    )
    def test_get_by_name(self, name, cls):
        kernel = get_kernel(name)
        assert isinstance(kernel, cls)
        assert kernel.name == name

    def test_name_case_insensitive(self):
        assert isinstance(get_kernel("NumPy"), NumpyKernel)
        assert isinstance(get_kernel("  BITSET "), BitsetKernel)

    def test_fresh_instance_per_call(self):
        # Caching backends key encodings on object identity; a shared
        # singleton would grow its cache without bound across match runs.
        assert get_kernel("bitset") is not get_kernel("bitset")

    def test_backend_instance_passes_through(self):
        kernel = NumpyKernel()
        assert get_kernel(kernel) is kernel

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError, match="unknown kernel"):
            get_kernel("simd512")

    @pytest.mark.parametrize("bad", [5, intersect_merge], ids=["int", "callable"])
    def test_non_name_non_backend_raises_typed_error(self, bad):
        # Only None, a registry name or a KernelBackend are accepted; the
        # rest must not surface as AttributeError from ``.strip()``.
        with pytest.raises(ConfigurationError, match="registry name"):
            get_kernel(bad)

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "scalar")
        assert isinstance(get_kernel(), ScalarKernel)

    def test_env_var_unset_falls_back_to_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert isinstance(get_kernel(), NumpyKernel)

    def test_register_custom_backend(self):
        class EchoKernel(KernelBackend):
            name = "echo-test"

            def intersect(self, a, b):
                return intersect_merge(a, b)

        register_kernel("echo-test", EchoKernel)
        try:
            assert "echo-test" in available_kernels()
            assert isinstance(get_kernel("echo-test"), EchoKernel)
        finally:
            del _REGISTRY["echo-test"]


class TestAutoHeuristic:
    """``auto`` = the rows when the caller's rows fit the byte budget."""

    def test_rows_within_budget_pick_rows(self, monkeypatch):
        monkeypatch.setenv("REPRO_BITSET_CACHE_MB", "1")
        assert isinstance(get_kernel("auto", row_bytes=2**20), RowsKernel)
        assert isinstance(get_kernel("auto", row_bytes=0), RowsKernel)

    def test_rows_over_budget_pick_numpy(self, monkeypatch):
        monkeypatch.setenv("REPRO_BITSET_CACHE_MB", "1")
        assert isinstance(get_kernel("auto", row_bytes=2**20 + 1), NumpyKernel)

    def test_no_context_picks_numpy(self):
        assert isinstance(get_kernel("auto"), NumpyKernel)

    def test_explicit_names_ignore_the_rule(self, monkeypatch):
        monkeypatch.setenv("REPRO_BITSET_CACHE_MB", "0")
        assert isinstance(get_kernel("rows", row_bytes=2**30), RowsKernel)
        assert isinstance(get_kernel("bitset", row_bytes=0), BitsetKernel)


class TestBackendSemantics:
    @pytest.mark.parametrize("name", ["scalar", "numpy", "bitset", "qfilter", "rows"])
    def test_pairwise(self, name):
        kernel = get_kernel(name)
        got = kernel.intersect([1, 3, 5, 9], [3, 4, 5, 6])
        assert [int(v) for v in got] == [3, 5]

    @pytest.mark.parametrize("name", ["scalar", "numpy", "bitset", "qfilter", "rows"])
    def test_multiway(self, name):
        kernel = get_kernel(name)
        got = kernel.multi_intersect([[1, 2, 3, 4], [2, 4, 6], [0, 2, 4, 8]])
        assert [int(v) for v in got] == [2, 4]

    @pytest.mark.parametrize("name", ["scalar", "numpy", "bitset", "qfilter", "rows"])
    def test_empty_input(self, name):
        kernel = get_kernel(name)
        assert list(kernel.intersect([], [1, 2, 3])) == []
        assert list(kernel.intersect([1, 2, 3], [])) == []

    @pytest.mark.parametrize("name", ["scalar", "numpy", "bitset", "qfilter", "rows"])
    def test_multiway_rejects_no_lists(self, name):
        with pytest.raises(ValueError):
            get_kernel(name).multi_intersect([])

    def test_numpy_accepts_arrays_and_lists(self):
        kernel = NumpyKernel()
        a = np.array([2, 4, 6, 8], dtype=np.int64)
        assert kernel.intersect(a, [4, 8, 12]).tolist() == [4, 8]

    def test_numpy_gallop_path(self):
        # Size ratio beyond GALLOP_RATIO exercises the searchsorted branch.
        small = np.array([5, 500, 999], dtype=np.int64)
        large = np.arange(0, 1000, 5, dtype=np.int64)
        assert NumpyKernel().intersect(small, large).tolist() == [5, 500]


class TestBitsetEncoding:
    def test_roundtrip(self):
        values = [0, 1, 63, 64, 65, 1000]
        words = BitsetKernel.encode(values)
        assert BitsetKernel.decode(words).tolist() == values

    def test_empty_roundtrip(self):
        assert BitsetKernel.decode(BitsetKernel.encode([])).tolist() == []

    def test_word_count_truncation(self):
        # Different universes: intersect must align on the shorter word run.
        kernel = BitsetKernel()
        assert kernel.intersect([3, 70], [3, 4, 5000]).tolist() == [3]

    def test_encode_cached_by_identity(self):
        kernel = BitsetKernel()
        values = [1, 2, 3]
        first = kernel.encode_cached(values)
        assert kernel.encode_cached(values) is first
        kernel.clear()
        assert kernel.encode_cached(values) is not first


class TestMultiIntersectShortCircuit:
    def test_scalar_function_stops_on_empty_intermediate(self, monkeypatch):
        # Satellite pin: once the running intersection is empty the
        # remaining pairwise kernel calls are skipped entirely.
        calls = []

        def counting(a, b):
            calls.append((list(a), list(b)))
            return intersect_merge(a, b)

        monkeypatch.setattr(kernels, "intersect_hybrid", counting)
        lists = [[1, 2], [3, 4], [5, 6], [7, 8]]
        assert multi_intersect(lists) == []
        assert len(calls) == 1

    def test_backend_default_stops_on_empty_intermediate(self):
        class Counting(ScalarKernel):
            def __init__(self):
                self.calls = 0

            def intersect(self, a, b):
                self.calls += 1
                return intersect_merge(a, b)

        assert Counting.multi_intersect is KernelBackend.multi_intersect
        kernel = Counting()
        assert kernel.multi_intersect([[1], [2], [3], [4]]) == []
        assert kernel.calls == 1

    def test_numpy_backend_stops_on_empty_intermediate(self):
        class Counting(NumpyKernel):
            def __init__(self):
                self.calls = 0

            def intersect(self, a, b):
                self.calls += 1
                return NumpyKernel.intersect(self, a, b)

        kernel = Counting()
        result = kernel.multi_intersect([[1], [2], [3], [4]])
        assert list(result) == []
        assert kernel.calls == 1

    def test_bitset_backend_skips_encodes_after_empty(self):
        class Counting(BitsetKernel):
            def __init__(self):
                super().__init__()
                self.encodes = 0

            def encode_cached(self, values):
                self.encodes += 1
                return BitsetKernel.encode_cached(self, values)

        kernel = Counting()
        result = kernel.multi_intersect([[1], [2], [3], [4]])
        assert list(result) == []
        # First two lists encode; their AND is empty, so the rest skip.
        assert kernel.encodes == 2


    def test_qfilter_backend_skips_encodes_after_empty(self):
        class Counting(QFilterKernel):
            def __init__(self):
                super().__init__()
                self.encodes = 0

            def encode_cached(self, values):
                self.encodes += 1
                return QFilterKernel.encode_cached(self, values)

        kernel = Counting()
        assert kernel.multi_intersect([[1], [2], [3], [4]]) == []
        # First two lists encode; their merge is empty, so the rest skip.
        assert kernel.encodes == 2


class TestBitsetCacheBudget:
    """The encode cache is a byte-budgeted LRU (REPRO_BITSET_CACHE_MB)."""

    def test_default_budget_from_env(self, monkeypatch):
        from repro.utils.kernels import _bitset_cache_budget

        monkeypatch.delenv("REPRO_BITSET_CACHE_MB", raising=False)
        assert _bitset_cache_budget() == int(64.0 * 1024 * 1024)
        monkeypatch.setenv("REPRO_BITSET_CACHE_MB", "0.5")
        assert _bitset_cache_budget() == int(0.5 * 1024 * 1024)

    def test_invalid_env_raises(self, monkeypatch):
        from repro.utils.kernels import _bitset_cache_budget

        monkeypatch.setenv("REPRO_BITSET_CACHE_MB", "lots")
        with pytest.raises(ConfigurationError):
            _bitset_cache_budget()
        monkeypatch.setenv("REPRO_BITSET_CACHE_MB", "-1")
        with pytest.raises(ConfigurationError):
            _bitset_cache_budget()

    def test_eviction_is_lru(self):
        # Budget fits exactly two encodings of [0..63] (one word = 8
        # bytes each): inserting a third evicts the least recently used.
        kernel = BitsetKernel(budget_bytes=16)
        a, b, c = [1], [2], [3]
        wa = kernel.encode_cached(a)
        kernel.encode_cached(b)
        assert kernel.encode_cached(a) is wa  # touch a: b becomes LRU
        kernel.encode_cached(c)  # evicts b
        info = kernel.cache_info()
        assert info["entries"] == 2
        assert info["bytes"] <= 16
        assert kernel.encode_cached(a) is wa  # a survived

    def test_oversized_encoding_bypasses_cache(self):
        kernel = BitsetKernel(budget_bytes=8)
        big = [0, 64, 128]  # three words = 24 bytes > budget
        first = kernel.encode_cached(big)
        assert kernel.encode_cached(big) is not first
        assert kernel.cache_info()["entries"] == 0

    def test_clear_resets_byte_accounting(self):
        kernel = BitsetKernel(budget_bytes=1024)
        kernel.encode_cached([1, 2, 3])
        assert kernel.cache_info()["bytes"] > 0
        kernel.clear()
        info = kernel.cache_info()
        assert info == {"entries": 0, "bytes": 0, "budget_bytes": 1024}

    def test_pickle_preserves_budget_drops_cache(self):
        import pickle

        kernel = BitsetKernel(budget_bytes=4096)
        values = [1, 2, 3]
        kernel.encode_cached(values)
        clone = pickle.loads(pickle.dumps(kernel))
        assert clone.cache_info()["entries"] == 0
        assert clone.cache_info()["budget_bytes"] == 4096
        # And the clone still works.
        assert clone.intersect([1, 2], [2, 3]).tolist() == [2]
