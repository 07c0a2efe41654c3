"""Property tests: candidate-set completeness (Definition 2.2) and monotonicity.

The load-bearing invariant of the whole study: *every* filter must keep
every data vertex that participates in any match. A filter that violates
this silently loses answers.

The second half tests the substrate the filters are sweeps over —
``nlf_keep``, ``neighbor_union``, ``refine_keep`` — against the scalar
definitions (``nlf_check``, ``has_candidate_neighbor``) and under random
schedules, so a new sweep is covered before anyone writes a test for it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import PAPER_DATA
from strategies import graphs, query_data_pairs

from repro.baselines import brute_force_matches
from repro.filtering import (
    CECIFilter,
    CFLFilter,
    DPisoFilter,
    GraphQLFilter,
    LDFFilter,
    NLFFilter,
    SteadyFilter,
    nlf_check,
)
from repro.filtering._common import (
    has_candidate_neighbor,
    neighbor_union,
    nlf_keep,
    refine_keep,
)
from repro.filtering.base import nlf_candidates_for
from repro.graph import Graph

ALL_FILTERS = [
    LDFFilter(),
    NLFFilter(),
    GraphQLFilter(),
    GraphQLFilter(refinement_rounds=3),
    CFLFilter(),
    CECIFilter(),
    DPisoFilter(),
    DPisoFilter(refinement_phases=1),
    SteadyFilter(),
]

SETTINGS = settings(max_examples=60, deadline=None)


@given(query_data_pairs())
@SETTINGS
def test_completeness(pair):
    query, data = pair
    oracle = brute_force_matches(query, data)
    for filt in ALL_FILTERS:
        candidates = filt.run(query, data)
        for embedding in oracle:
            for u, v in enumerate(embedding):
                assert candidates.contains(u, v), (filt.name, u, v)


@given(query_data_pairs())
@SETTINGS
def test_refined_filters_subset_of_ldf(pair):
    query, data = pair
    ldf = LDFFilter().run(query, data)
    for filt in ALL_FILTERS[1:]:
        refined = filt.run(query, data)
        for u in query.vertices():
            assert set(refined[u]) <= set(ldf[u]), filt.name


@given(query_data_pairs())
@SETTINGS
def test_steady_state_is_strongest_rule31_filter(pair):
    """STEADY is the Rule 3.1 fixpoint: no Rule 3.1-based filter can be
    smaller (GraphQL can be, via its stronger Observation 3.2 rule)."""
    query, data = pair
    steady = SteadyFilter().run(query, data)
    for filt in [
        CFLFilter(),
        CECIFilter(),
        DPisoFilter(),
        DPisoFilter(refinement_phases=1),
        NLFFilter(),
    ]:
        refined = filt.run(query, data)
        for u in query.vertices():
            assert set(steady[u]) <= set(refined[u]), (filt, u)
    # The fixpoint, by the scalar definition: every survivor has a
    # neighbor in the set of every neighbor of its query vertex.
    for u in query.vertices():
        for w in query.neighbors(u).tolist():
            anchor = list(steady[w])
            for v in steady[u]:
                assert has_candidate_neighbor(data, v, anchor, set(anchor)), (u, w, v)


@given(query_data_pairs())
@SETTINGS
def test_candidates_always_pass_ldf(pair):
    query, data = pair
    for filt in ALL_FILTERS:
        candidates = filt.run(query, data)
        for u in query.vertices():
            for v in candidates[u]:
                assert data.label(v) == query.label(u)
                assert data.degree(v) >= query.degree(u)


def assert_nlf_parity(query, data):
    """Batched ``nlf_keep`` ≡ the scalar ``nlf_check``, vertex by vertex."""
    everyone = np.arange(data.num_vertices, dtype=np.int64)
    for u in query.vertices():
        want = [v for v in data.vertices() if nlf_check(query, u, data, v)]
        assert nlf_keep(data, everyone, query.nlf(u)).tolist() == want


# Every data vertex is tested, not just the LDF pool, and both graphs may
# be disconnected: isolated data vertices and neighbourless query vertices
# (whose requirement is empty, so everything passes) both occur.
@given(
    query=graphs(max_vertices=5, max_labels=3),
    data=graphs(max_vertices=12, max_labels=3, edge_probability=0.3),
)
@SETTINGS
def test_nlf_keep_matches_nlf_check(query, data):
    assert_nlf_parity(query, data)
    want = [
        [v for v in LDFFilter().run(query, data)[u] if nlf_check(query, u, data, v)]
        for u in query.vertices()
    ]
    assert NLFFilter().run(query, data).as_dict() == dict(enumerate(want))


def test_nlf_keep_on_isolated_vertices_and_a_neighbourless_query_vertex():
    query = Graph(labels=[0, 1, 0], edges=[(0, 1)])  # u2 has no neighbours
    data = Graph(labels=[0, 1, 0, 1, 0], edges=[(0, 1), (1, 2)])  # 3, 4 isolated
    assert_nlf_parity(query, data)
    everyone = np.arange(5, dtype=np.int64)
    assert nlf_keep(data, everyone, query.nlf(2)).tolist() == [0, 1, 2, 3, 4]
    assert nlf_keep(data, everyone, query.nlf(0)).tolist() == [0, 2]
    assert NLFFilter().run(query, data).as_dict() == {0: [0, 2], 1: [1], 2: [0, 2, 4]}


@given(
    data=graphs(max_vertices=12, max_labels=3, edge_probability=0.3),
    anchor=st.lists(st.integers(0, 11), max_size=6, unique=True),
)
@SETTINGS
def test_refine_keep_matches_has_candidate_neighbor(data, anchor):
    """Batched Rule 3.1 ≡ the scalar definition, vertex by vertex."""
    anchor = sorted(v for v in anchor if v < data.num_vertices)
    everyone = np.arange(data.num_vertices, dtype=np.int64)
    scratch = np.zeros(data.num_vertices, dtype=bool)
    want = [
        v for v in data.vertices() if has_candidate_neighbor(data, v, anchor, set(anchor))
    ]
    assert refine_keep(data, everyone, [anchor], scratch).tolist() == want
    assert not scratch.any()


def assert_neighbor_union_parity(data, parents, label, min_degree):
    """``neighbor_union`` ≡ the sorted set it is defined as."""
    want = sorted(
        {
            w
            for v in parents
            for w in data.neighbors(v).tolist()
            if data.label(w) == label and data.degree(w) >= min_degree
        }
    )
    assert neighbor_union(data, parents, label, min_degree).tolist() == want


@given(
    data=graphs(max_vertices=12, max_labels=3, edge_probability=0.3),
    parents=st.lists(st.integers(0, 11), max_size=6, unique=True),
    label=st.integers(0, 3),
    min_degree=st.integers(0, 4),
)
@SETTINGS
def test_neighbor_union_matches_its_set_definition(data, parents, label, min_degree):
    parents = [v for v in parents if v < data.num_vertices]
    assert_neighbor_union_parity(data, parents, label, min_degree)


# The inputs of ``test_filter_internals.py``'s ``TestNeighborExpansion``
# (one seed, two seeds with overlapping neighborhoods, no seed), here with
# the label and degree bounds those cases leave open.
@pytest.mark.parametrize("parents", [[0], [10, 12], []], ids=["one", "two", "none"])
def test_neighbor_union_on_the_paper_graph(parents):
    for label in sorted(PAPER_DATA.label_set):
        for min_degree in (0, 3):
            assert_neighbor_union_parity(PAPER_DATA, parents, label, min_degree)


@st.composite
def schedules(draw):
    """A query/data pair and ≤ 12 refinement steps ``(u, X ⊆ N(u))``."""
    query, data = draw(query_data_pairs())
    steps = []
    for _ in range(draw(st.integers(0, 12))):
        u = draw(st.integers(0, query.num_vertices - 1))
        neighbors = query.neighbors(u).tolist()
        steps.append((u, draw(st.lists(st.sampled_from(neighbors), unique=True))))
    return query, data, steps


@given(schedules())
@SETTINGS
def test_any_schedule_of_refine_keep_is_complete_and_above_steady(schedule):
    """Whatever the sweep, the substrate only removes what Rule 3.1 allows:
    every ``C(u)`` keeps the image of every embedding and contains the
    Rule 3.1 fixpoint, and the scratch comes back clean."""
    query, data, steps = schedule
    lists = [nlf_candidates_for(query, u, data) for u in query.vertices()]
    scratch = np.zeros(data.num_vertices, dtype=bool)
    for u, anchors in steps:
        lists[u] = refine_keep(data, lists[u], [lists[w] for w in anchors], scratch)
    assert not scratch.any()
    steady = SteadyFilter().run(query, data)
    for u in query.vertices():
        assert set(steady[u]) <= set(lists[u].tolist()), (u, steps)
    for embedding in brute_force_matches(query, data):
        for u, v in enumerate(embedding):
            assert v in lists[u], (u, v, steps)
