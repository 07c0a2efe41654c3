"""Property tests: all intersection kernels compute set intersection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import sorted_int_lists

from repro.utils.kernels import (
    BitsetKernel,
    available_kernels,
    get_kernel,
    intersect_galloping,
    intersect_hybrid,
    intersect_merge,
    multi_intersect,
)

#: Every registered backend (scalar, numpy, bitset, qfilter, plus any
#: session-registered extras) — each must agree with the merge reference.
BACKENDS = [name for name in available_kernels() if name != "auto"]


@given(sorted_int_lists(), sorted_int_lists())
def test_merge_matches_set_semantics(a, b):
    assert intersect_merge(a, b) == sorted(set(a) & set(b))


@given(sorted_int_lists(), sorted_int_lists())
def test_galloping_matches_set_semantics(a, b):
    assert intersect_galloping(a, b) == sorted(set(a) & set(b))


@given(sorted_int_lists(), sorted_int_lists())
def test_hybrid_matches_set_semantics(a, b):
    assert intersect_hybrid(a, b) == sorted(set(a) & set(b))


@given(sorted_int_lists(), sorted_int_lists())
def test_bitmap_matches_set_semantics(a, b):
    assert BitsetKernel().intersect(a, b).tolist() == sorted(set(a) & set(b))


@given(st.lists(sorted_int_lists(max_value=60, max_size=20), min_size=1, max_size=5))
def test_multi_intersect_matches_set_semantics(lists):
    expected = set(lists[0])
    for other in lists[1:]:
        expected &= set(other)
    assert multi_intersect(lists) == sorted(expected)


@given(st.lists(sorted_int_lists(max_value=60, max_size=20), min_size=1, max_size=5))
def test_bitmap_multi_agrees_with_hybrid_multi(lists):
    assert list(BitsetKernel().multi_intersect(lists)) == multi_intersect(lists)


@given(sorted_int_lists())
def test_intersection_idempotent(a):
    assert intersect_hybrid(a, a) == a


@given(sorted_int_lists(), sorted_int_lists())
def test_intersection_commutative(a, b):
    assert intersect_hybrid(a, b) == intersect_hybrid(b, a)


@given(sorted_int_lists(max_value=500))
@settings(max_examples=50)
def test_bitmap_roundtrip(a):
    idx = BitsetKernel()
    assert idx.decode(idx.encode(a)).tolist() == a


# ----------------------------------------------------------------------
# Kernel backends: every registered backend agrees with intersect_merge
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", BACKENDS)
@given(a=sorted_int_lists(), b=sorted_int_lists())
def test_backend_pairwise_agrees_with_merge(name, a, b):
    kernel = get_kernel(name)
    got = [int(v) for v in kernel.intersect(a, b)]
    assert got == intersect_merge(a, b)


@pytest.mark.parametrize("name", BACKENDS)
@given(
    lists=st.lists(
        sorted_int_lists(max_value=60, max_size=20), min_size=1, max_size=5
    )
)
def test_backend_multiway_agrees_with_merge(name, lists):
    kernel = get_kernel(name)
    expected = list(lists[0])
    for other in lists[1:]:
        expected = intersect_merge(expected, other)
    assert [int(v) for v in kernel.multi_intersect(lists)] == expected


@pytest.mark.parametrize("name", BACKENDS)
@given(a=sorted_int_lists())
@settings(max_examples=25)
def test_backend_idempotent(name, a):
    kernel = get_kernel(name)
    assert [int(v) for v in kernel.intersect(a, a)] == a
