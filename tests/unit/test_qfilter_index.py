"""Unit tests for the base-and-state (BSR) QFilter model."""

import pytest

from repro.utils.kernels import QFilterKernel, intersect_hybrid


class TestEncoding:
    def test_clustered_values_share_blocks(self):
        idx = QFilterKernel(block_bits=64)
        bases, states = idx.encode([0, 1, 5, 63])
        assert bases == [0]
        assert states == [(1 << 0) | (1 << 1) | (1 << 5) | (1 << 63)]

    def test_scattered_values_one_block_each(self):
        idx = QFilterKernel(block_bits=64)
        bases, states = idx.encode([0, 64, 128])
        assert bases == [0, 1, 2]
        assert states == [1, 1, 1]

    def test_block_bits_validation(self):
        with pytest.raises(ValueError):
            QFilterKernel(block_bits=3)
        with pytest.raises(ValueError):
            QFilterKernel(block_bits=1)

    def test_cache_by_identity(self):
        idx = QFilterKernel()
        lst = [1, 2, 3]
        idx.intersect(lst, [2])
        assert id(lst) in idx._cache

    def test_clear(self):
        idx = QFilterKernel()
        idx.intersect([1], [1])
        idx.clear()
        assert not idx._cache


class TestIntersection:
    def test_basic(self):
        assert QFilterKernel().intersect([1, 3, 5, 200], [3, 5, 6, 200]) == [3, 5, 200]

    def test_empty(self):
        idx = QFilterKernel()
        assert idx.intersect([], [1, 2]) == []
        assert idx.intersect([1, 2], []) == []

    def test_disjoint_blocks(self):
        assert QFilterKernel().intersect([0, 1], [300, 301]) == []

    def test_agrees_with_hybrid(self):
        import numpy as np

        rng = np.random.default_rng(5)
        idx = QFilterKernel()
        for _ in range(100):
            a = sorted(set(rng.integers(0, 1000, size=40).tolist()))
            b = sorted(set(rng.integers(0, 1000, size=40).tolist()))
            assert idx.intersect(a, b) == intersect_hybrid(a, b)

    def test_multi_intersect(self):
        idx = QFilterKernel()
        assert idx.multi_intersect([[1, 2, 3], [2, 3], [3, 9]]) == [3]

    def test_multi_empty_raises(self):
        with pytest.raises(ValueError):
            QFilterKernel().multi_intersect([])

    def test_small_block_size(self):
        idx = QFilterKernel(block_bits=4)
        assert idx.intersect([0, 3, 4, 7, 8], [3, 4, 8, 9]) == [3, 4, 8]
