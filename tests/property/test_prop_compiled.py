"""Compiled-search parity: a compiled ``run()`` IS the interpreted machine.

The frame machine runs a static bitmap-row order as a generated search
(``repro.enumeration.compiled``): a first sighting the generic search of
its size, a reused order its specialised search. The interpreted loop,
driven here through ``start``/``advance``, stays the definition. Over
random graphs and queries, failing sets on and off, every
``match_limit`` and ``store_limit`` shape, covering root windows and a
``cancel`` that fires after k polls, both compiled runs must report the
same matches, the same embeddings in the same order and all five
counters. The rest pins the policy around them: the first run is
generic and the second specialised, one generic search serves every
order of a size, a 10 ms budget stops a multi-second search, an order
past the nesting limit stays interpreted, threads racing either compile
agree, and the ``enumerate`` span
and counters say which run paid a compile.
"""

import sys
import threading
import time
from dataclasses import astuple

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.plan import compile_plan, prepare_query, run_plan
from repro.enumeration import FrameMachine, compiled
from repro.enumeration.compiled import MAX_COMPILED_VERTICES, search_for
from repro.errors import InvalidQueryError
from repro.graph import Graph, extract_query, rmat_graph
from repro.obs import Metrics, Tracer, tracing

#: Static-order Algorithm 5 presets, with and without failing sets.
STATIC_ALG5 = ["GQL-opt", "GQLfs", "CECI", "CFL-opt", "RIfs", "QSI-opt"]

#: A probe past this many matches drops an unlimited example.
UNLIMITED_CAP = 20_000

_SETTINGS = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def _prepared(algorithm, query, data):
    plan = compile_plan(algorithm, query, data, kernel="rows")
    prepared = prepare_query(plan, query, data, Metrics())
    assert prepared.static.rows is not None
    return prepared


def _fresh(query, data):
    """The ``heavy`` query prepared again: a prepared query no run has seen."""
    return _prepared("GQL-opt", query, data)


def _machine(prepared, fs):
    return FrameMachine(prepared, use_failing_sets=fs)


def _interpreted(prepared, query, data, fs, **limits):
    """The definition: the interpreted loop, one ``advance`` to the end."""
    machine = _machine(prepared, fs).start(query, data, **limits)
    while machine.advance() is not None:
        pass
    stored = machine._store.as_tuples()
    return machine.num_matches, machine.solved, stored, astuple(machine.stats)


def _run(prepared, query, data, fs, **limits):
    """``(search, outcome)`` of one ``run()`` on a fresh machine."""
    machine = _machine(prepared, fs)
    out = machine.run(query, data, **limits)
    return machine.search, (
        out.num_matches, out.solved, out.embeddings, astuple(out.stats)
    )


def _generic(algorithm, query, data, fs, **limits):
    """A first sighting's ``run()``: the generic search, on a newly
    prepared query whose rows are still holes."""
    search, outcome = _run(_prepared(algorithm, query, data), query, data, fs, **limits)
    assert search == "generic"
    return outcome


def _compiled(prepared, query, data, fs, **limits):
    """A specialised ``run()``: the first sighting of the order runs first."""
    _run(prepared, query, data, fs, match_limit=1, store_limit=0)
    search, outcome = _run(prepared, query, data, fs, **limits)
    assert search == "specialised"
    return outcome


def _random_case(seed, num_vertices, num_labels, size):
    data = rmat_graph(num_vertices, 5.0, num_labels, seed=seed, clustering=0.2)
    try:
        query = extract_query(data, size, seed=seed)
    except InvalidQueryError:
        assume(False)  # no connected walk that large
    return query, data


@pytest.fixture(scope="module")
def heavy():
    """Millions of matches: a search that runs for seconds compiled."""
    data = rmat_graph(300, 8.0, 1, seed=5, clustering=0.2)
    query = extract_query(data, 6, seed=3)
    return query, data, _prepared("GQL-opt", query, data)


@_SETTINGS
@given(
    seed=st.integers(0, 2**16),
    num_vertices=st.integers(20, 120),
    num_labels=st.integers(1, 3),
    size=st.integers(3, 9),
    algorithm=st.sampled_from(STATIC_ALG5),
    fs=st.booleans(),
    match_limit=st.sampled_from([None, 0, 1, 7, 5000]),
    store_limit=st.sampled_from([0, 3, 10**6]),
)
def test_compiled_run_equals_the_interpreted_machine(
    seed, num_vertices, num_labels, size, algorithm, fs, match_limit, store_limit
):
    query, data = _random_case(seed, num_vertices, num_labels, size)
    prepared = _prepared(algorithm, query, data)
    if match_limit is None:
        probe = _interpreted(
            prepared, query, data, fs, match_limit=UNLIMITED_CAP + 1, store_limit=0
        )
        assume(probe[0] <= UNLIMITED_CAP)
    limits = dict(match_limit=match_limit, store_limit=store_limit)
    expected = _interpreted(prepared, query, data, fs, **limits)
    assert _generic(algorithm, query, data, fs, **limits) == expected
    assert _compiled(prepared, query, data, fs, **limits) == expected


@pytest.mark.parametrize(
    "query",
    [
        Graph(labels=[0], edges=[]),  # the root is the leaf
        Graph(labels=[0, 1], edges=[(0, 1)]),
        Graph(labels=[0, 0], edges=[(0, 1)]),
        Graph(labels=[0, 0, 0], edges=[(0, 1), (1, 2)]),  # conflicts at the leaf
    ],
)
@pytest.mark.parametrize("fs", [False, True])
@pytest.mark.parametrize("match_limit", [None, 0, 1, 5])
def test_queries_of_one_to_three_vertices(query, fs, match_limit):
    data = rmat_graph(60, 5.0, 2, seed=3, clustering=0.2)
    prepared = _prepared("GQL-opt", query, data)
    limits = dict(match_limit=match_limit, store_limit=3)
    expected = _interpreted(prepared, query, data, fs, **limits)
    assert _generic("GQL-opt", query, data, fs, **limits) == expected
    assert _compiled(prepared, query, data, fs, **limits) == expected


@_SETTINGS
@given(
    seed=st.integers(0, 2**16),
    num_labels=st.integers(1, 3),
    size=st.integers(3, 7),
    algorithm=st.sampled_from(STATIC_ALG5),
    fs=st.booleans(),
    cuts=st.lists(st.floats(0.0, 1.0), max_size=3),
)
def test_covering_root_windows_equal_the_interpreted_machine(
    seed, num_labels, size, algorithm, fs, cuts
):
    query, data = _random_case(seed, 60, num_labels, size)
    prepared = _prepared(algorithm, query, data)
    roots = prepared.candidates.size(prepared.order[0])
    bounds = sorted({0, roots, *(int(c * roots) for c in cuts)})
    limits = dict(match_limit=2000, store_limit=10**6)
    _run(prepared, query, data, fs, match_limit=1, store_limit=0)  # first sighting
    for window in zip(bounds, bounds[1:]):
        expected = _interpreted(prepared, query, data, fs, root_window=window, **limits)
        # A parallel worker's first run of its window is generic.
        generic = _generic(algorithm, query, data, fs, root_window=window, **limits)
        assert generic == expected, window
        search, outcome = _run(prepared, query, data, fs, root_window=window, **limits)
        assert search == "specialised" and outcome == expected, window


@settings(max_examples=12, deadline=None)
@given(polls=st.integers(1, 4), fs=st.booleans(), store_limit=st.sampled_from([0, 100]))
def test_a_cancel_after_k_polls_stops_at_the_same_node(heavy, polls, fs, store_limit):
    query, data, prepared = heavy

    def limits():
        seen = iter(range(polls, 0, -1))
        return dict(
            match_limit=None,
            store_limit=store_limit,
            cancel=lambda: next(seen, 0) <= 1,  # True at the k-th poll
        )

    expected = _interpreted(prepared, query, data, fs, **limits())
    assert expected[1] is False  # the search was cut, not finished
    assert _generic("GQL-opt", query, data, fs, **limits()) == expected
    assert _compiled(prepared, query, data, fs, **limits()) == expected


def test_the_second_run_compiles(heavy):
    query, data, prepared = heavy
    prepared = _fresh(query, data)
    limits = dict(match_limit=3000, store_limit=40)
    first = _run(prepared, query, data, False, **limits)
    second = _run(prepared, query, data, False, **limits)
    third = _run(prepared, query, data, False, **limits)
    assert (first[0], second[0], third[0]) == ("generic", "specialised", "specialised")
    assert first[1] == second[1] == third[1]
    # Failing sets on is another specialised search, with its own sighting.
    assert _run(prepared, query, data, True, **limits)[0] == "generic"
    assert _run(prepared, query, data, True, **limits)[0] == "specialised"


@pytest.mark.parametrize("fs", [False, True])
def test_one_generic_search_serves_every_order_of_a_size(fs):
    data = rmat_graph(200, 6.0, 2, seed=3, clustering=0.2)
    queries = [extract_query(data, 5, seed=seed) for seed in (1, 2)]
    assert queries[0] != queries[1]
    found = []
    for query in queries:
        search, kind, _ = search_for(_prepared("GQL-opt", query, data).static, fs)
        assert kind == "generic"
        found.append(search.func)  # the search with this query's tables bound
    # One compiled source per (n, failing_sets): the same function object.
    assert found[0] is found[1]
    assert found[0].__code__ is found[1].__code__


def test_a_10ms_budget_stops_a_multisecond_search(heavy):
    query, data, prepared = heavy
    _run(prepared, query, data, False, match_limit=1, store_limit=0)
    machine = _machine(prepared, False)
    started = time.perf_counter()
    outcome = machine.run(
        query, data, match_limit=None, store_limit=0,
        time_limit=0.01,
    )
    elapsed = time.perf_counter() - started
    assert machine.search == "specialised"
    assert not outcome.solved
    assert elapsed < 50 * 0.01, elapsed
    # A first sighting stops as soon, on the generic search.
    fresh = _prepared("GQL-opt", query, data)
    machine = _machine(fresh, False)
    started = time.perf_counter()
    outcome = machine.run(
        query, data, match_limit=None, store_limit=0, time_limit=0.01
    )
    elapsed = time.perf_counter() - started
    assert machine.search == "generic"
    assert not outcome.solved
    assert elapsed < 50 * 0.01, elapsed


@pytest.mark.parametrize(
    "size", [MAX_COMPILED_VERTICES, MAX_COMPILED_VERTICES + 1]
)
def test_an_order_past_the_nesting_limit_runs_interpreted(size):
    data = rmat_graph(300, 6.0, 3, seed=9, clustering=0.2)
    query = extract_query(data, size, seed=4)
    prepared = _prepared("GQLfs", query, data)
    limits = dict(match_limit=50, store_limit=50)
    expected = _interpreted(prepared, query, data, True, **limits)
    runs = [_run(prepared, query, data, True, **limits) for _ in range(2)]
    assert [search for search, _ in runs] == (
        ["generic", "specialised"]
        if size <= MAX_COMPILED_VERTICES
        else ["interpreted", "interpreted"]
    )
    assert [outcome for _, outcome in runs] == [expected, expected]


def test_threads_racing_the_compile_agree(heavy):
    query, data, prepared = heavy
    prepared = _fresh(query, data)
    limits = dict(match_limit=2000, store_limit=100)
    expected = _interpreted(prepared, query, data, True, **limits)
    _run(prepared, query, data, True, **limits)  # the first sighting
    barrier = threading.Barrier(4)
    results = [None] * 4

    def worker(i):
        barrier.wait()
        results[i] = _run(prepared, query, data, True, **limits)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [("specialised", expected)] * 4


def test_threads_racing_the_first_generic_compile_agree(heavy, monkeypatch):
    query, data, prepared = heavy
    monkeypatch.setattr(compiled, "_GENERIC", {})  # nothing compiled yet
    limits = dict(match_limit=2000, store_limit=100)
    expected = _interpreted(prepared, query, data, True, **limits)
    copies = [_prepared("GQL-opt", query, data) for _ in range(4)]
    barrier = threading.Barrier(4)
    results = [None] * 4

    def worker(i):
        barrier.wait()
        machine = _machine(copies[i], True)
        out = machine.run(query, data, **limits)
        results[i] = (
            machine.search,
            machine.compile_seconds > 0,
            (out.num_matches, out.solved, out.embeddings, astuple(out.stats)),
        )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [(search, outcome) for search, _, outcome in results] == [
        ("generic", expected)
    ] * 4
    # The process compiles the generic search once, and one run pays it.
    assert sum(paid for _, paid, _ in results) == 1
    assert list(compiled._GENERIC) == [(query.num_vertices, True)]


def test_the_enumerate_span_says_which_run_compiled(monkeypatch):
    monkeypatch.setattr(compiled, "_GENERIC", {})  # nothing compiled yet
    data = rmat_graph(200, 6.0, 2, seed=3, clustering=0.2)
    query = extract_query(data, 6, seed=2)
    plan = compile_plan("GQL-opt", query, data, kernel="rows")
    prepared = None
    seen = []
    for reuse in (False, True, True, False):
        with tracing(Tracer()) as tracer:
            result, prepared = run_plan(
                plan,
                query,
                data,
                prepared=prepared if reuse else None,
                match_limit=100,
                store_limit=0,
            )
        (enum,) = [s for s in tracer.spans if s.name == "enumerate"]
        seen.append(
            (enum.attrs["search"], "search.compile_us" in result.metrics.counters)
        )
    # Only a run that paid a compile carries its counter: the process's
    # first generic search of the size, then the query's specialised one.
    # A new prepared query of the same size runs the generic search free.
    assert seen == [
        ("generic", True),
        ("specialised", True),
        ("specialised", False),
        ("generic", False),
    ]
