"""Set-intersection kernels for sorted integer sets, and their registry.

Section 3.3.2 of the paper: "We implement a hybrid set intersection method:
if the cardinalities of two sets are similar, we use the merge-based method;
otherwise, we adopt the Galloping algorithm." Figure 10 compares that
hybrid against QFilter, a SIMD method with a compact bitmap-like layout
that wins on dense graphs but pays a conversion overhead on sparse ones.
Once Algorithm 5 is in place these kernels dominate enumeration time, so
every way this repository intersects two sets lives here, once, behind a
registry name:

* ``scalar`` — :class:`ScalarKernel`: the paper's hybrid on Python lists
  (:func:`intersect_hybrid` picks :func:`intersect_merge` or
  :func:`intersect_galloping`), the reference the others are checked against;
* ``numpy`` — :class:`NumpyKernel`: the same hybrid vectorized over
  contiguous sorted arrays;
* ``bitset`` — :class:`BitsetKernel`: packed-``uint64`` bitmaps over the
  data-vertex universe, the throughput side of QFilter's trade-off;
* ``qfilter`` — :class:`QFilterKernel`: QFilter's base-and-state (BSR)
  blocks, the layout-overhead side of it;
* ``rows`` — :class:`RowsKernel`: bitmaps over the universe that is
  actually intersected (bit ``j`` = the ``j``-th candidate of ``C(u)``),
  which the auxiliary structure stores and the frame machine ANDs.

A kernel is a registry name, resolved through :func:`get_kernel`;
:func:`register_kernel` is how a custom backend enters. ``"auto"`` (the
default) picks the rows whenever the caller states how many bytes the
rows it will read take and that fits the bitset byte budget
(:data:`BITSET_CACHE_BYTES`, dense rows cost ``|C(w)|·|C(u)|/8`` bytes
per directed pair), and the numpy hybrid otherwise.

All kernels expect **sorted, duplicate-free arrays (or lists) of
non-negative ints** and return sorted results: ``scalar`` and ``qfilter``
return lists, the numpy-backed kernels ``int64`` arrays.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "intersect_merge",
    "intersect_galloping",
    "intersect_hybrid",
    "multi_intersect",
    "KernelBackend",
    "ScalarKernel",
    "NumpyKernel",
    "BitsetKernel",
    "QFilterKernel",
    "RowsKernel",
    "available_kernels",
    "get_kernel",
    "register_kernel",
]

#: Cardinality ratio above which the hybrid method switches from merge to
#: galloping. 32 is the conventional crossover for scalar implementations.
GALLOP_RATIO = 32

_EMPTY_I64 = np.empty(0, dtype=np.int64)

#: Byte budget for bitmap encodings: the bitset kernel's encode cache and
#: the candidate-space rows of one prepared query (64 MB). The
#: out-of-core regime (memmap-backed graphs larger than RAM) needs both
#: to stop growing with the graph.
BITSET_CACHE_BYTES = 64 * 1024 * 1024


def _as_i64(values: Sequence[int]) -> np.ndarray:
    """View ``values`` as an int64 array without copying when possible."""
    if isinstance(values, np.ndarray):
        if values.dtype == np.int64:
            return values
        return values.astype(np.int64)
    return np.asarray(values, dtype=np.int64)


def intersect_merge(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Two-pointer merge intersection; O(|a| + |b|).

    >>> intersect_merge([1, 3, 5, 7], [3, 4, 5, 6])
    [3, 5]
    """
    result: List[int] = []
    i = j = 0
    len_a, len_b = len(a), len(b)
    while i < len_a and j < len_b:
        x, y = a[i], b[j]
        if x == y:
            result.append(x)
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return result


def _gallop(haystack: Sequence[int], needle: int, lo: int) -> int:
    """Exponential probe then binary search: first index ≥ needle from lo."""
    hi = lo + 1
    n = len(haystack)
    while hi < n and haystack[hi] < needle:
        lo = hi
        hi = min(n, hi * 2)
    return bisect_left(haystack, needle, lo, min(hi + 1, n))


def intersect_galloping(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Galloping intersection; O(|small| · log |large|).

    The smaller input drives the search regardless of argument order.

    >>> intersect_galloping([5], list(range(0, 100, 5)))
    [5]
    """
    if len(a) > len(b):
        a, b = b, a
    result: List[int] = []
    pos = 0
    len_b = len(b)
    for x in a:
        pos = _gallop(b, x, pos)
        if pos >= len_b:
            break
        if b[pos] == x:
            result.append(x)
            pos += 1
    return result


def intersect_hybrid(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """The paper's hybrid kernel: merge when sizes are similar, else gallop.

    >>> intersect_hybrid([2, 4, 6], [1, 2, 3, 4])
    [2, 4]
    """
    if len(a) == 0 or len(b) == 0:
        return []
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    if len(large) > GALLOP_RATIO * len(small):
        return intersect_galloping(small, large)
    return intersect_merge(small, large)


class KernelBackend(ABC):
    """One pairwise/multiway set-intersection implementation.

    The enumeration engine only needs ``multi_intersect``; ``intersect``
    is the pairwise primitive the property suite cross-checks. Inputs are
    sorted duplicate-free int sequences; outputs are sorted.
    """

    #: Registry name, also reported in :class:`~repro.core.result.MatchResult`.
    name: str = "?"

    @abstractmethod
    def intersect(self, a: Sequence[int], b: Sequence[int]) -> Sequence[int]:
        """Pairwise sorted-set intersection."""

    def multi_intersect(self, lists: Sequence[Sequence[int]]) -> Sequence[int]:
        """Intersect several sorted sets, smallest-first.

        Folds pairwise, and short-circuits as soon as an intermediate
        result is empty — the remaining kernel calls are skipped.
        """
        if not lists:
            raise ValueError("multi_intersect requires at least one list")
        ordered = sorted(lists, key=len)
        result: Sequence[int] = ordered[0]
        for other in ordered[1:]:
            if len(result) == 0:
                break
            result = self.intersect(result, other)
        return result

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class ScalarKernel(KernelBackend):
    """The paper's scalar hybrid kernel behind the backend interface."""

    name = "scalar"

    def intersect(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        return intersect_hybrid(a, b)


def multi_intersect(lists: Sequence[Sequence[int]]) -> List[int]:
    """Intersect several sorted lists with the scalar hybrid kernel.

    The cost is proportional to the smallest input, matching the analysis
    of Algorithm 5 in Section 3.3.2. An empty input sequence is an error —
    the intersection of zero sets is undefined here.

    >>> multi_intersect([[1, 2, 3, 4], [2, 4, 6], [0, 2, 4, 8]])
    [2, 4]
    """
    return list(ScalarKernel().multi_intersect(lists))


class NumpyKernel(KernelBackend):
    """Vectorized merge/galloping hybrid over contiguous sorted arrays.

    Similar cardinalities use ``np.intersect1d(assume_unique=True)`` (a
    vectorized sort-merge); skewed pairs probe the smaller array into the
    larger with one batched ``np.searchsorted`` — the galloping regime,
    executed as a single vectorized binary-search pass.

    >>> NumpyKernel().intersect([2, 4, 6], [1, 2, 3, 4]).tolist()
    [2, 4]
    """

    name = "numpy"

    def intersect(self, a: Sequence[int], b: Sequence[int]) -> np.ndarray:
        a = _as_i64(a)
        b = _as_i64(b)
        if a.size == 0 or b.size == 0:
            return _EMPTY_I64
        small, large = (a, b) if a.size <= b.size else (b, a)
        if large.size > GALLOP_RATIO * small.size:
            return self._gallop(small, large)
        return np.intersect1d(small, large, assume_unique=True)

    @staticmethod
    def _gallop(small: np.ndarray, large: np.ndarray) -> np.ndarray:
        """Batched binary search of ``small`` into ``large``."""
        pos = np.searchsorted(large, small)
        in_range = pos < large.size
        hit = np.zeros(small.size, dtype=bool)
        hit[in_range] = large[pos[in_range]] == small[in_range]
        return small[hit]


class BitsetKernel(KernelBackend):
    """Packed-uint64 bitset intersection over the vertex universe.

    Each input is encoded once (cached by object identity, mirroring
    QFilter's one-time layout conversion) as a ``uint64`` word array with
    bit ``v`` set for each member ``v``. Intersection ANDs the word arrays
    — 64 members per instruction — and decoding is one ``np.unpackbits``
    pass over the surviving words. Dense candidate sets amortize the
    encode/decode overhead; sparse ones do not, so ``auto`` never picks
    this backend: it is a Figure 10 series and a differential-test axis.

    >>> BitsetKernel().multi_intersect([[1, 3, 65], [3, 65, 70], [0, 3, 65]]).tolist()
    [3, 65]
    """

    name = "bitset"

    __slots__ = ("_cache", "_budget_bytes", "_cached_bytes")

    def __init__(self, budget_bytes: Optional[int] = None) -> None:
        # id -> (keyed object, words). The object reference keeps the id
        # alive; CPython recycles ids of collected objects. Ordered so
        # the byte-budgeted eviction below can drop least-recently-used
        # encodings first — without a bound this cache grows with the
        # number of distinct candidate arrays, i.e. with the graph, which
        # the out-of-core regime cannot afford.
        self._cache: "OrderedDict[int, Tuple[Sequence[int], np.ndarray]]" = (
            OrderedDict()
        )
        self._budget_bytes = (
            BITSET_CACHE_BYTES if budget_bytes is None else budget_bytes
        )
        self._cached_bytes = 0

    @staticmethod
    def encode(values: Sequence[int]) -> np.ndarray:
        """Pack a sorted set into a uint64 word array (uncached)."""
        arr = _as_i64(values)
        if arr.size == 0:
            return np.empty(0, dtype=np.uint64)
        nwords = (int(arr[-1]) >> 6) + 1
        words = np.zeros(nwords, dtype=np.uint64)
        bits = np.left_shift(np.uint64(1), (arr & 63).astype(np.uint64))
        np.bitwise_or.at(words, arr >> 6, bits)
        return words

    @staticmethod
    def decode(words: np.ndarray) -> np.ndarray:
        """Unpack a word array into a sorted int64 array."""
        if words.size == 0:
            return _EMPTY_I64
        bits = np.unpackbits(words.view(np.uint8), bitorder="little")
        return np.nonzero(bits)[0].astype(np.int64)

    def encode_cached(self, values: Sequence[int]) -> np.ndarray:
        """Pack with memoization keyed on object identity.

        Candidate adjacency arrays are immutable once built, so identity
        caching is sound; pass long-lived arrays, not temporaries. The
        cache holds at most :data:`BITSET_CACHE_BYTES` of encodings,
        evicting least-recently-used entries past the budget; an
        encoding alone larger than the whole budget is returned uncached.
        """
        key = id(values)
        entry = self._cache.get(key)
        if entry is not None:
            self._cache.move_to_end(key)
            return entry[1]
        words = self.encode(values)
        nbytes = int(words.nbytes)
        if nbytes > self._budget_bytes:
            return words
        while self._cache and self._cached_bytes + nbytes > self._budget_bytes:
            _, (_, evicted) = self._cache.popitem(last=False)
            self._cached_bytes -= int(evicted.nbytes)
        self._cache[key] = (values, words)
        self._cached_bytes += nbytes
        return words

    def intersect(self, a: Sequence[int], b: Sequence[int]) -> np.ndarray:
        return self.multi_intersect([a, b])

    def multi_intersect(self, lists: Sequence[Sequence[int]]) -> np.ndarray:
        """Fold ANDs in the packed domain; decode once at the end.

        Short-circuits (skipping the remaining word ANDs) as soon as the
        accumulator has no bits set.
        """
        if not lists:
            raise ValueError("multi_intersect requires at least one list")
        ordered = sorted(lists, key=len)
        acc = self.encode_cached(ordered[0])
        for other in ordered[1:]:
            if acc.size == 0 or not acc.any():
                return _EMPTY_I64
            words = self.encode_cached(other)
            n = min(acc.size, words.size)
            acc = acc[:n] & words[:n]
        return self.decode(acc)

    def clear(self) -> None:
        """Drop all cached encodings."""
        self._cache.clear()
        self._cached_bytes = 0

    def cache_info(self) -> dict:
        """Entries, bytes held, and the byte budget of the encode cache."""
        return {
            "entries": len(self._cache),
            "bytes": self._cached_bytes,
            "budget_bytes": self._budget_bytes,
        }

    def __getstate__(self) -> dict:
        # The cache is keyed by object identity; ids do not survive a
        # process boundary (and a recycled id in the receiving process
        # would silently alias a different array). Ship the kernel empty.
        # A falsy state would make pickle skip __setstate__ and leave the
        # slot unset, hence the marker.
        return {"cache": "dropped", "budget_bytes": self._budget_bytes}

    def __setstate__(self, state: dict) -> None:
        self._cache = OrderedDict()
        self._cached_bytes = 0
        self._budget_bytes = state.get("budget_bytes", BITSET_CACHE_BYTES)


#: A BSR encoding: parallel ``(bases, states)`` arrays.
_Packed = Tuple[List[int], List[int]]


class QFilterKernel(KernelBackend):
    """Base-and-state (BSR) intersection — the closest Python model of QFilter.

    QFilter (Han, Zou & Yu, SIGMOD'18) packs a sorted set into blocks:
    per block a *base* (the high bits) and a *state* bitmap of which of
    the next ``block_bits`` values are present; intersection merges the
    base arrays and ANDs the states of matching blocks.

    This reproduces QFilter's *trade-off*, not just its wins: when
    values cluster (dense neighborhoods), each base comparison covers
    many elements and the kernel beats element-wise merging; when values
    are scattered (sparse graphs), blocks hold ~1 element each and the
    base merge plus mask decoding is pure overhead — the crossover the
    paper's Figure 10 reports.

    >>> QFilterKernel().intersect([1, 3, 5, 200], [3, 5, 6, 200])
    [3, 5, 200]
    """

    name = "qfilter"

    def __init__(self, block_bits: int = 64) -> None:
        if block_bits < 2 or block_bits & (block_bits - 1):
            raise ValueError("block_bits must be a power of two >= 2")
        self.block_bits = block_bits
        # id -> (keyed object, encoding); see BitsetKernel for why the
        # object reference must be retained.
        self._cache: Dict[int, Tuple[Sequence[int], _Packed]] = {}

    def encode(self, values: Sequence[int]) -> _Packed:
        """Pack a sorted list into parallel (bases, states) arrays."""
        shift = self.block_bits.bit_length() - 1
        mask = self.block_bits - 1
        bases: List[int] = []
        states: List[int] = []
        for v in values:
            v = int(v)  # numpy scalars would overflow the state shifts
            base = v >> shift
            if bases and bases[-1] == base:
                states[-1] |= 1 << (v & mask)
            else:
                bases.append(base)
                states.append(1 << (v & mask))
        return bases, states

    def encode_cached(self, values: Sequence[int]) -> _Packed:
        """Pack with memoization keyed on object identity (one-time layout)."""
        entry = self._cache.get(id(values))
        if entry is None:
            packed = self.encode(values)
            self._cache[id(values)] = (values, packed)
            return packed
        return entry[1]

    @staticmethod
    def _intersect_packed(a: _Packed, b: _Packed) -> _Packed:
        """Merge two BSR encodings without decoding (the QFilter inner loop)."""
        bases_a, states_a = a
        bases_b, states_b = b
        out_bases: List[int] = []
        out_states: List[int] = []
        i = j = 0
        len_a, len_b = len(bases_a), len(bases_b)
        while i < len_a and j < len_b:
            base_a, base_b = bases_a[i], bases_b[j]
            if base_a == base_b:
                bits = states_a[i] & states_b[j]
                if bits:
                    out_bases.append(base_a)
                    out_states.append(bits)
                i += 1
                j += 1
            elif base_a < base_b:
                i += 1
            else:
                j += 1
        return out_bases, out_states

    def decode(self, packed: _Packed) -> List[int]:
        """Unpack a BSR encoding into a sorted list."""
        shift = self.block_bits.bit_length() - 1
        result: List[int] = []
        for base, bits in zip(*packed):
            prefix = base << shift
            while bits:
                low = bits & -bits
                result.append(prefix | (low.bit_length() - 1))
                bits ^= low
        return result

    def intersect(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        return self.multi_intersect([a, b])

    def multi_intersect(self, lists: Sequence[Sequence[int]]) -> List[int]:
        """Intersect several sorted lists entirely in the packed domain.

        Only the *input* lists are encode-cached; intermediates never
        leave BSR form, so nothing short-lived enters the cache. Pass
        long-lived lists (e.g. candidate adjacency arrays), not
        temporaries — those stay referenced by the cache until
        :meth:`clear`.
        """
        if not lists:
            raise ValueError("multi_intersect requires at least one list")
        ordered = sorted(lists, key=len)
        packed = self.encode_cached(ordered[0])
        for other in ordered[1:]:
            if not packed[0]:
                break
            packed = self._intersect_packed(packed, self.encode_cached(other))
        return self.decode(packed)

    def clear(self) -> None:
        """Drop all cached encodings."""
        self._cache.clear()

    def __getstate__(self) -> dict:
        # Encodings are memoized by object identity — same cross-process
        # hazard as BitsetKernel. Only the configuration crosses the
        # boundary; the receiver re-encodes lazily.
        return {"block_bits": self.block_bits}

    def __setstate__(self, state: dict) -> None:
        self.block_bits = state["block_bits"]
        self._cache = {}


class RowsKernel(KernelBackend):
    """Bitmap rows in *position space*: one Python ``int`` per set.

    A set is encoded against a reference list (its *universe*): bit ``j``
    is set iff ``universe[j]`` is a member. Intersecting sets that share
    a universe is ``&`` on two ints, emptiness is truthiness, cardinality
    is ``int.bit_count`` and the next member is ``mask & -mask`` — which
    is what lets :class:`~repro.enumeration.frames.FrameMachine` walk the
    search tree on integers. The long-lived rows are built on first read
    by :class:`~repro.filtering.auxiliary.AuxiliaryStructure`; the list
    interface below (the smallest input is the universe) exists so the
    backend is checked against the merge reference like every other one.

    >>> RowsKernel().multi_intersect([[1, 3, 65], [3, 65, 70], [0, 3, 65]]).tolist()
    [3, 65]
    """

    name = "rows"

    @staticmethod
    def pack_flags(flags: np.ndarray) -> int:
        """The mask with bit ``j`` set iff ``flags[j]`` (a bool array)."""
        return int.from_bytes(
            np.packbits(flags, bitorder="little").tobytes(), "little"
        )

    @staticmethod
    def encode(universe: np.ndarray, values: np.ndarray) -> int:
        """The mask of ``universe`` positions whose element is in ``values``."""
        if universe.size == 0 or values.size == 0:
            return 0
        at = np.minimum(np.searchsorted(values, universe), values.size - 1)
        return RowsKernel.pack_flags(values[at] == universe)

    @staticmethod
    def decode(mask: int) -> np.ndarray:
        """Positions of the set bits of ``mask``, ascending (int64)."""
        if not mask:
            return _EMPTY_I64
        raw = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        return np.flatnonzero(bits)

    def intersect(self, a: Sequence[int], b: Sequence[int]) -> np.ndarray:
        return self.multi_intersect([a, b])

    def multi_intersect(self, lists: Sequence[Sequence[int]]) -> np.ndarray:
        """AND the other lists' rows over the smallest list's positions."""
        if not lists:
            raise ValueError("multi_intersect requires at least one list")
        ordered = sorted((_as_i64(lst) for lst in lists), key=lambda arr: arr.size)
        universe = ordered[0]
        mask = (1 << universe.size) - 1
        for other in ordered[1:]:
            if not mask:
                return _EMPTY_I64
            mask &= self.encode(universe, other)
        return universe[self.decode(mask)]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

#: Factories, not instances: caching backends (bitset, qfilter) key their
#: encodings on object identity, so each match run gets a fresh cache.
_REGISTRY: Dict[str, Callable[[], KernelBackend]] = {}


def register_kernel(name: str, factory: Callable[[], KernelBackend]) -> None:
    """Register a backend factory under ``name`` (lower-cased)."""
    _REGISTRY[name.lower()] = factory


register_kernel("scalar", ScalarKernel)
register_kernel("numpy", NumpyKernel)
register_kernel("bitset", BitsetKernel)
register_kernel("qfilter", QFilterKernel)
register_kernel("rows", RowsKernel)


def available_kernels() -> List[str]:
    """All registered backend names, plus the ``"auto"`` selector."""
    return sorted(_REGISTRY) + ["auto"]


def _auto_backend(row_bytes: Optional[int]) -> KernelBackend:
    """The auto rule: the rows when they fit the byte budget, else numpy.

    ``row_bytes`` is what the rows the caller is about to read would
    occupy (``None``: the caller cannot run on rows at all).
    """
    if row_bytes is not None and row_bytes <= BITSET_CACHE_BYTES:
        return RowsKernel()
    return NumpyKernel()


def get_kernel(
    name: Optional[str] = None, *, row_bytes: Optional[int] = None
) -> KernelBackend:
    """Resolve a backend by registry name (``None`` is ``"auto"``).

    ``"auto"`` returns :class:`RowsKernel` when the caller passes the size
    of the rows it would read (``row_bytes``) and that fits
    :data:`BITSET_CACHE_BYTES`, :class:`NumpyKernel` otherwise. Unknown
    names, and values that are not names, raise
    :class:`~repro.errors.ConfigurationError`.

    >>> get_kernel("scalar").name
    'scalar'
    >>> get_kernel("numpy").multi_intersect([[1, 2, 3], [2, 3, 4]]).tolist()
    [2, 3]
    """
    if name is None:
        name = "auto"
    if not isinstance(name, str):
        raise ConfigurationError(
            f"kernel must be None or a registry name, got {name!r}"
        )
    key = name.strip().lower()
    if key == "auto":
        return _auto_backend(row_bytes)
    try:
        factory = _REGISTRY[key]
    except KeyError:
        known = ", ".join(available_kernels())
        raise ConfigurationError(
            f"unknown kernel backend {name!r}; available: {known}"
        ) from None
    return factory()
