"""The candidate-set container against its definitions.

:class:`~repro.filtering.candidates.CandidateSets` keeps each ``C(u)``
as a sorted int64 array and builds the Python list and frozenset of a
set when it is first read; a translation table is built by binary
search on the first call for its pair and kept. Whatever order views
are read in, and from however many threads, they must equal the eager
ones, and every table must equal the definition: ``None`` for disjoint
sets, else the position in ``C(b)`` of each element of ``C(a)``, -1
where it has none. The container is exact for arbitrary sets: they are
drawn without regard to the query's labels, so differently labelled
query vertices overlap too (the engine probes only same-label pairs,
which ``test_label_invariant.py`` holds the producers to), and up to 70
of them, more than one 63-bit mask could tell apart.
"""

import pickle
import sys
import threading

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.filtering import CandidateSets
from repro.graph import Graph

_SETTINGS = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def candidate_spaces(draw):
    """A query of 1–70 vertices, two labels, and one random set per vertex."""
    n = draw(st.one_of(st.integers(1, 6), st.integers(64, 70)))
    universe = draw(st.integers(1, 40))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    sets = draw(
        st.lists(
            st.lists(st.integers(0, universe - 1), max_size=universe),
            min_size=n,
            max_size=n,
        )
    )
    return Graph(labels=labels, edges=[]), sets


def definition(sets, a, b):
    """The table by definition: ``None`` when disjoint, else positions."""
    source, target = sorted(set(sets[a])), sorted(set(sets[b]))
    if frozenset(source).isdisjoint(target):
        return None
    return [target.index(v) if v in target else -1 for v in source]


@_SETTINGS
@given(candidate_spaces(), st.data())
def test_translation_is_the_definition(space, data):
    query, sets = space
    candidates = CandidateSets(query, sets)
    n = len(sets)
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    if n > 6:  # a sample of the ~5 000 ordered pairs
        pairs = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=60))
    for a, b in pairs:
        table = candidates.translation(a, b)
        want = definition(sets, a, b)
        assert (None if table is None else list(table)) == want, (a, b)
        assert candidates.translation(a, b) is table  # built once


@_SETTINGS
@given(candidate_spaces(), st.randoms(use_true_random=False))
def test_views_built_on_first_read_equal_eager_ones(space, rng):
    query, sets = space
    candidates = CandidateSets(query, sets)
    reads = [(u, view) for u in range(len(sets)) for view in ("list", "set", "size")]
    rng.shuffle(reads)
    for u, view in reads:
        eager = sorted(set(sets[u]))
        if view == "list":
            assert candidates[u] == eager
            assert all(type(v) is int for v in candidates[u])
        elif view == "set":
            assert candidates.membership(u) == frozenset(eager)
            assert all(candidates.contains(u, v) for v in eager)
        else:
            assert candidates.size(u) == len(eager)
        assert candidates.array(u).tolist() == eager
    assert candidates.as_dict() == {u: sorted(set(s)) for u, s in enumerate(sets)}
    assert candidates.total_size == sum(len(set(s)) for s in sets)
    assert candidates.has_empty_set == any(not s for s in sets)


@_SETTINGS
@given(candidate_spaces())
def test_pickle_round_trip_with_no_view_built(space):
    query, sets = space
    candidates = CandidateSets(query, sets)
    copy = pickle.loads(pickle.dumps(candidates))
    assert copy.as_dict() == candidates.as_dict()
    for u in range(len(sets)):
        assert copy.array(u).dtype == np.int64
        assert copy[u] == candidates[u]
        assert copy.membership(u) == candidates.membership(u)
    for a in range(min(len(sets), 6)):
        for b in range(min(len(sets), 6)):
            if a != b:
                want = candidates.translation(a, b)
                got = copy.translation(a, b)
                assert (None if got is None else list(got)) == (
                    None if want is None else list(want)
                )


def test_threads_racing_on_a_first_read_get_equal_lists():
    """Lazy views are built without a lock: a race builds a view twice,
    and every reader still sees the same values."""
    query = Graph(labels=[0] * 4, edges=[])
    sets = [range(k, 5_000, k + 1) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            candidates = CandidateSets(query, sets)
            barrier = threading.Barrier(4)
            seen = [None] * 4

            def read(slot):
                barrier.wait()
                seen[slot] = [
                    (candidates[u], candidates.membership(u), candidates.translation(0, u))
                    for u in (1, 2, 3)
                ]

            threads = [threading.Thread(target=read, args=(slot,)) for slot in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            views = [[(lst, members, list(table)) for lst, members, table in row] for row in seen]
            assert all(row == views[0] for row in views)
            assert [lst for lst, _, _ in views[0]] == [list(s) for s in sets[1:]]
    finally:
        sys.setswitchinterval(interval)
