"""Shared low-level utilities: set-intersection kernels and timing helpers."""

from repro.utils.kernels import (
    BitsetKernel,
    KernelBackend,
    NumpyKernel,
    QFilterKernel,
    ScalarKernel,
    available_kernels,
    get_kernel,
    intersect_galloping,
    intersect_hybrid,
    intersect_merge,
    multi_intersect,
    register_kernel,
)
from repro.utils.timer import Deadline, Timer

__all__ = [
    "intersect_galloping",
    "intersect_hybrid",
    "intersect_merge",
    "multi_intersect",
    "BitsetKernel",
    "KernelBackend",
    "NumpyKernel",
    "QFilterKernel",
    "ScalarKernel",
    "available_kernels",
    "get_kernel",
    "register_kernel",
    "Deadline",
    "Timer",
]
