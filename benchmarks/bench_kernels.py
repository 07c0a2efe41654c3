"""Micro-benchmarks of the intersection kernels (pytest-benchmark proper).

These run multiple rounds (unlike the experiment modules) and give stable
relative numbers for merge vs galloping vs hybrid vs bitmap on the shapes
the enumeration actually produces: similar-size lists, skewed lists, and
dense neighborhoods.

Run directly (``python benchmarks/bench_kernels.py``) to time the
registered kernel *backends* (every registry name) on
10k-element sorted arrays and append one record per backend to
``benchmarks/results/kernels.jsonl``. The ``rows``
row times that backend's *list* interface (encode against the smaller
list, AND, decode) — the price of entering and leaving position space,
which the engine pays once per prepared query rather than per
intersection.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # standalone run: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.utils.kernels import (
    available_kernels,
    get_kernel,
    intersect_galloping,
    intersect_hybrid,
    intersect_merge,
)

import records

_RNG = np.random.default_rng(7)


def _sorted_sample(universe: int, size: int):
    return sorted(_RNG.choice(universe, size=size, replace=False).tolist())


SIMILAR_A = _sorted_sample(4000, 400)
SIMILAR_B = _sorted_sample(4000, 400)
SKEWED_SMALL = _sorted_sample(40000, 25)
SKEWED_LARGE = _sorted_sample(40000, 4000)
DENSE_A = _sorted_sample(1200, 700)
DENSE_B = _sorted_sample(1200, 700)


def bench_merge_similar(benchmark):
    benchmark(intersect_merge, SIMILAR_A, SIMILAR_B)


def bench_galloping_similar(benchmark):
    benchmark(intersect_galloping, SIMILAR_A, SIMILAR_B)


def bench_hybrid_similar(benchmark):
    benchmark(intersect_hybrid, SIMILAR_A, SIMILAR_B)


def bench_merge_skewed(benchmark):
    benchmark(intersect_merge, SKEWED_SMALL, SKEWED_LARGE)


def bench_galloping_skewed(benchmark):
    benchmark(intersect_galloping, SKEWED_SMALL, SKEWED_LARGE)


def bench_hybrid_skewed(benchmark):
    benchmark(intersect_hybrid, SKEWED_SMALL, SKEWED_LARGE)


def bench_bitmap_dense_warm(benchmark):
    """Bitmap kernel with the layout already built (QFilter's steady state)."""
    index = get_kernel("bitset")
    index.intersect(DENSE_A, DENSE_B)  # warm the cache
    benchmark(index.intersect, DENSE_A, DENSE_B)


def bench_hybrid_dense(benchmark):
    benchmark(intersect_hybrid, DENSE_A, DENSE_B)


def bench_bitmap_sparse_cold(benchmark):
    """Bitmap kernel paying the encode cost every call (sparse worst case)."""

    def cold():
        get_kernel("bitset").intersect(SKEWED_SMALL, SKEWED_LARGE)

    benchmark(cold)


def bench_bsr_dense_warm(benchmark):
    """BSR (QFilter) kernel with the layout already built, dense sets."""
    index = get_kernel("qfilter")
    index.intersect(DENSE_A, DENSE_B)  # warm the cache
    benchmark(index.intersect, DENSE_A, DENSE_B)


def bench_bsr_skewed_warm(benchmark):
    """BSR kernel on scattered values: ~1 element per block, pure overhead."""
    index = get_kernel("qfilter")
    index.intersect(SKEWED_SMALL, SKEWED_LARGE)
    benchmark(index.intersect, SKEWED_SMALL, SKEWED_LARGE)


def bench_bsr_sparse_cold(benchmark):
    """BSR kernel paying the encode cost every call."""

    def cold():
        get_kernel("qfilter").intersect(SKEWED_SMALL, SKEWED_LARGE)

    benchmark(cold)


# ----------------------------------------------------------------------
# Kernel backends (scalar vs numpy vs bitset) on array inputs
# ----------------------------------------------------------------------

SIMILAR_A_ARR = np.asarray(SIMILAR_A, dtype=np.int64)
SIMILAR_B_ARR = np.asarray(SIMILAR_B, dtype=np.int64)
SKEWED_SMALL_ARR = np.asarray(SKEWED_SMALL, dtype=np.int64)
SKEWED_LARGE_ARR = np.asarray(SKEWED_LARGE, dtype=np.int64)


def bench_backend_scalar_similar(benchmark):
    kernel = get_kernel("scalar")
    benchmark(kernel.intersect, SIMILAR_A_ARR, SIMILAR_B_ARR)


def bench_backend_numpy_similar(benchmark):
    kernel = get_kernel("numpy")
    benchmark(kernel.intersect, SIMILAR_A_ARR, SIMILAR_B_ARR)


def bench_backend_numpy_skewed(benchmark):
    """numpy galloping: batched searchsorted of the small into the large."""
    kernel = get_kernel("numpy")
    benchmark(kernel.intersect, SKEWED_SMALL_ARR, SKEWED_LARGE_ARR)


def bench_backend_bitset_similar_warm(benchmark):
    """Packed-uint64 AND with encodings already cached."""
    kernel = get_kernel("bitset")
    kernel.intersect(SIMILAR_A_ARR, SIMILAR_B_ARR)  # warm the cache
    benchmark(kernel.intersect, SIMILAR_A_ARR, SIMILAR_B_ARR)


# ----------------------------------------------------------------------
# Standalone backend shoot-out: one record per backend
# ----------------------------------------------------------------------

#: The acceptance micro-benchmark: 10k-element sorted arrays drawn from a
#: 100k universe (dense enough that merge dominates the scalar hybrid).
SHOOTOUT_UNIVERSE = 100_000
SHOOTOUT_SIZE = 10_000


def _time_per_call(fn, *args, repeat: int = 5, number: int = 10) -> float:
    """Best-of-``repeat`` mean seconds per call over ``number`` calls."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            fn(*args)
        best = min(best, (time.perf_counter() - start) / number)
    return best


def run_backend_shootout(
    universe: int = SHOOTOUT_UNIVERSE, size: int = SHOOTOUT_SIZE
) -> list:
    """Time each registered backend's hybrid intersect on the 10k arrays.

    One record per registry name; its key names the backend that ran
    (``kernel``), so a delta is attributable to a concrete backend.
    """
    rng = np.random.default_rng(7)
    a = np.sort(rng.choice(universe, size=size, replace=False)).astype(np.int64)
    b = np.sort(rng.choice(universe, size=size, replace=False)).astype(np.int64)

    timings = {}
    resolved = {}
    for name in [n for n in available_kernels() if n != "auto"]:
        kernel = get_kernel(name)
        resolved[name] = kernel.name
        kernel.intersect(a, b)  # warm caches / JIT-free sanity check
        timings[name] = _time_per_call(kernel.intersect, a, b)

    return [
        records.record(
            "kernels", name,
            {"universe": universe, "array_size": size, "kernel": resolved[name]},
            {
                "seconds_per_call": seconds,
                "speedup_vs_scalar": timings["scalar"] / seconds,
            },
        )
        for name, seconds in timings.items()
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    return records.main("kernels", run_backend_shootout, parser, argv)


if __name__ == "__main__":
    sys.exit(main())
