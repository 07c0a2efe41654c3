"""Property tests: session caching is invisible except in its counters.

Two families of invariants:

* **Fingerprint** — invariant under any permutation of vertex ids,
  and two graphs with different fingerprints are never isomorphic
  renumberings of each other.
* **Session accounting** — for any workload, every query is exactly one
  prep hit or one prep miss; misses equal the number of distinct exact
  queries (unbounded cache); and every result equals a fresh one-shot
  ``match()``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import connected_graphs, graphs, query_data_pairs

from repro import MatchSession, match, query_fingerprint
from repro.graph import Graph

SETTINGS = settings(max_examples=40, deadline=None)


def _permuted(graph: Graph, perm):
    labels = [0] * graph.num_vertices
    for v in range(graph.num_vertices):
        labels[perm[v]] = graph.label(v)
    edges = [(perm[u], perm[v]) for u, v in graph.edges()]
    return Graph(labels=labels, edges=edges)


@st.composite
def graph_and_permutation(draw):
    graph = draw(connected_graphs(min_vertices=3, max_vertices=7))
    perm = draw(st.permutations(range(graph.num_vertices)))
    return graph, list(perm)


@given(graph_and_permutation())
@SETTINGS
def test_fingerprint_invariant_under_relabeling(case):
    graph, perm = case
    assert query_fingerprint(_permuted(graph, perm)) == query_fingerprint(graph)


@given(graphs(min_vertices=1, max_vertices=8, max_labels=3))
@SETTINGS
def test_fingerprint_prefix_counts(graph):
    fingerprint = query_fingerprint(graph)
    assert fingerprint.startswith(
        f"q{graph.num_vertices}e{graph.num_edges}-"
    )


@st.composite
def session_workloads(draw):
    """A data graph plus a workload mixing repeats and renumberings."""
    query, data = draw(query_data_pairs(max_query_vertices=5))
    extra = draw(
        st.lists(
            connected_graphs(min_vertices=3, max_vertices=5, max_labels=2),
            max_size=2,
        )
    )
    pool = [query] + extra
    picks = draw(
        st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8)
    )
    workload = []
    for index in picks:
        graph = pool[index]
        if draw(st.booleans()):
            perm = draw(st.permutations(range(graph.num_vertices)))
            graph = _permuted(graph, list(perm))
        workload.append(graph)
    return data, workload


@given(session_workloads())
@SETTINGS
def test_session_cache_accounting(case):
    data, workload = case
    session = MatchSession(data, algorithm="GQLfs", prep_cache_size=None)
    results = session.match_many(workload, validate=False)

    # Per-query: exactly one of hit/miss, reported under both names.
    for result in results:
        counters = result.metrics.counters
        assert counters["plan.cache_hit"] + counters["plan.cache_miss"] == 1
        assert counters["plan.prep_hit"] + counters["plan.prep_miss"] == 1

    info = session.cache_info()
    total = len(workload)
    assert info["prep"]["hits"] + info["prep"]["misses"] == total

    # Unbounded cache: misses are exactly the distinct exact queries.
    distinct_graphs = len(set(workload))
    assert info["prep"]["misses"] == distinct_graphs
    assert info["prep"]["size"] == distinct_graphs

    # Session-wide counters agree with cache introspection.
    counters = session.metrics.counters
    assert counters["session.queries"] == total
    assert counters["session.prep_cache_hits"] == info["prep"]["hits"]


@given(session_workloads())
@SETTINGS
def test_session_results_equal_one_shot(case):
    data, workload = case
    session = MatchSession(data, algorithm="GQLfs")
    results = session.match_many(workload, validate=False)
    for query, result in zip(workload, results):
        one_shot = match(query, data, algorithm="GQLfs", validate=False)
        assert result.num_matches == one_shot.num_matches
        assert sorted(map(tuple, (sorted(m.items()) for m in result.mappings))) \
            == sorted(map(tuple, (sorted(m.items()) for m in one_shot.mappings)))
