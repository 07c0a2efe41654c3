"""GraphQL's array-level filter against the scalar definition.

:class:`~repro.filtering.graphql.GraphQLFilter` runs its ``r = 1``
profile test as batched NLF containment and pre-checks the
pseudo-isomorphism refinement with one batched Rule 3.1 pass per query
vertex. The per-candidate loop it replaced is kept here, built only from
the exported scalar pieces (:func:`profile`, :func:`is_subsequence`,
:func:`has_semi_perfect_matching`), and the two must agree on the
candidate lists *and* on everything the run records: the
``ldf+profile``/``pseudo_iso`` stage totals,
``filter.refinement_iterations`` and ``filter.neighbors_gathered``, the
work twin of Figure 7's time: every neighbor slice of ``C(u)`` read at
``u``'s turn, however the array filter schedules its gathers. Orders and
embeddings downstream are functions of those sets, so parity here is
what keeps them byte-identical. Pinned corpus seeds from historical fuzz
findings ride along.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from strategies import corpus_seeds, graphs

from repro.filtering import graphql
from repro.filtering.base import ldf_candidates_for
from repro.filtering.candidates import CandidateSets
from repro.filtering._common import MASK_BITS
from repro.filtering.graphql import (
    HALL_MAX_DEGREE,
    GraphQLFilter,
    has_semi_perfect_matching,
    is_subsequence,
    profile,
)
from repro.graph.graph import Graph
from repro.obs import (
    Metrics,
    add_counter,
    collecting,
    record_stage,
    total_candidates,
)
from repro.qa import plant_case

_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SEEDS = st.integers(0, 2**16)
ROUNDS = st.sampled_from([0, 1, 2, 3])


def _pin_corpus_seeds(test):
    for seed in corpus_seeds():
        test = example(seed=seed, rounds=1)(test)
    return test


def scalar_graphql(
    query: Graph, data: Graph, refinement_rounds: int = 1
) -> CandidateSets:
    """The definition, one candidate at a time (Section 3.1.1)."""
    profiles = {}
    lists = []
    for u in query.vertices():
        u_profile = profile(query, u)
        survivors = []
        for v in ldf_candidates_for(query, u, data).tolist():
            if v not in profiles:
                profiles[v] = profile(data, v)
            if is_subsequence(u_profile, profiles[v]):
                survivors.append(v)
        lists.append(survivors)
    record_stage("ldf+profile", total_candidates(lists))

    membership = [set(lst) for lst in lists]
    for _ in range(refinement_rounds):
        changed = False
        for u in query.vertices():
            u_neighbors = query.neighbors(u).tolist()
            if not u_neighbors:
                continue
            if all(membership[x] for x in u_neighbors):
                charge_neighbor_reads(data, lists[u], u_neighbors, membership)
            kept = []
            for v in lists[u]:
                v_neighbors = data.neighbors(v).tolist()
                adjacency = [
                    [j for j, w in enumerate(v_neighbors) if w in membership[x]]
                    for x in u_neighbors
                ]
                if all(adjacency) and has_semi_perfect_matching(
                    len(u_neighbors), adjacency, len(v_neighbors)
                ):
                    kept.append(v)
                else:
                    membership[u].discard(v)
                    changed = True
            lists[u] = kept
        add_counter("filter.refinement_iterations")
        record_stage("pseudo_iso", total_candidates(lists))
        if not changed:
            break
    return CandidateSets(query, lists)


def charge_neighbor_reads(data, target, u_neighbors, membership):
    """``filter.neighbors_gathered`` for one refinement of ``u`` whose
    anchor sets are all non-empty: every neighbor slice of ``C(u)`` is
    read once; above :data:`MASK_BITS` anchors, once per anchor for the
    candidates Rule 3.1 has kept so far."""
    if len(u_neighbors) <= MASK_BITS:
        read = sum(data.degree(v) for v in target)
    else:
        read, survivors = 0, list(target)
        for x in u_neighbors:
            if not survivors:
                break
            read += sum(data.degree(v) for v in survivors)
            survivors = [
                v for v in survivors if membership[x] & set(data.neighbors(v).tolist())
            ]
    if read:
        add_counter("filter.neighbors_gathered", read)


def assert_parity(query, data, rounds=1):
    got_metrics, want_metrics = Metrics(), Metrics()
    with collecting(got_metrics):
        got = GraphQLFilter(rounds).run(query, data)
    with collecting(want_metrics):
        want = scalar_graphql(query, data, rounds)
    assert got.as_dict() == want.as_dict()
    assert got_metrics.filter_stages == want_metrics.filter_stages
    assert got_metrics.counters == want_metrics.counters


# Queries from one vertex up, possibly disconnected, so isolated and
# degree-1 query vertices occur; data graphs with isolated vertices and
# labels the query lacks, so empty candidate (anchor) sets occur.
@_SETTINGS
@given(
    query=graphs(min_vertices=1, max_vertices=5, max_labels=2),
    data=graphs(max_vertices=12, max_labels=3, edge_probability=0.3),
    rounds=ROUNDS,
)
def test_array_filter_matches_the_scalar_definition(query, data, rounds):
    assert_parity(query, data, rounds)


@st.composite
def hub_queries(draw, min_degree, max_degree):
    """A hub with ``min_degree..max_degree`` spokes and random rim edges."""
    spokes = draw(st.integers(min_degree, max_degree))
    labels = draw(st.lists(st.integers(0, 1), min_size=spokes + 1, max_size=spokes + 1))
    rim = [(a, b) for a in range(1, spokes + 1) for b in range(a + 1, spokes + 1)]
    chosen = draw(st.lists(st.sampled_from(rim), max_size=spokes, unique=True))
    return Graph(labels=labels, edges=[(0, leaf) for leaf in range(1, spokes + 1)] + chosen)


# A query vertex above HALL_MAX_DEGREE: the residue of the batched tests
# goes to the scalar matching test. Few labels and a dense data graph, so
# some data vertices have the degree to be the hub's candidates.
@_SETTINGS
@given(
    query=hub_queries(HALL_MAX_DEGREE + 1, HALL_MAX_DEGREE + 3),
    data=graphs(min_vertices=10, max_vertices=16, max_labels=2, edge_probability=0.8),
    rounds=ROUNDS,
)
def test_parity_with_a_query_vertex_above_the_subset_bound(query, data, rounds):
    assert_parity(query, data, rounds=rounds)


@_pin_corpus_seeds
@_SETTINGS
@given(seed=SEEDS, rounds=ROUNDS)
def test_parity_on_planted_cases(seed, rounds):
    case = plant_case(seed, max_data=30)
    assert_parity(case.query, case.data, rounds=rounds)


def test_single_vertex_query_and_isolated_data_vertices():
    query = Graph(labels=[1], edges=[])
    data = Graph(labels=[1, 0, 1, 1], edges=[(0, 1)])  # 2 and 3 isolated
    assert_parity(query, data)
    assert GraphQLFilter().run(query, data)[0] == [0, 2, 3]


def test_empty_anchor_set_empties_its_neighbors():
    # Nothing carries label 2, so C(u1) is empty and u0 loses everything.
    query = Graph(labels=[0, 2], edges=[(0, 1)])
    data = Graph(labels=[0, 1, 0], edges=[(0, 1), (1, 2)])
    for rounds in (0, 1, 2):
        assert_parity(query, data, rounds=rounds)
    assert GraphQLFilter().run(query, data).as_dict() == {0: [], 1: []}


def test_degree_one_query_vertices_skip_the_matching_test(monkeypatch):
    """With ``d(u) = 1`` the batched pre-check is the whole test."""
    query = Graph(labels=[0, 1], edges=[(0, 1)])
    data = Graph(
        labels=[0, 1, 0, 1, 0], edges=[(0, 1), (1, 2), (2, 3), (0, 4)]
    )
    want = scalar_graphql(query, data).as_dict()

    def unreachable(*args, **kwargs):
        raise AssertionError("matching test ran for a degree-1 query vertex")

    monkeypatch.setattr(graphql, "has_semi_perfect_matching", unreachable)
    assert GraphQLFilter().run(query, data).as_dict() == want


@_SETTINGS
@given(
    query=hub_queries(3, HALL_MAX_DEGREE),
    data=graphs(min_vertices=8, max_vertices=16, max_labels=2, edge_probability=0.75),
    rounds=ROUNDS,
)
def test_the_scalar_matching_test_is_unreachable_up_to_the_subset_bound(
    query, data, rounds
):
    """Every ``d(u) ≤ HALL_MAX_DEGREE``: Hall's condition decides it all."""
    want = scalar_graphql(query, data, refinement_rounds=rounds).as_dict()

    def unreachable(*args, **kwargs):
        raise AssertionError("matching test ran at or under the subset bound")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graphql, "has_semi_perfect_matching", unreachable)
        got = GraphQLFilter(refinement_rounds=rounds).run(query, data).as_dict()
    assert got == want


def test_star_query_wider_than_the_anchor_mask():
    """``d(u) > 63``: Rule 3.1 in batch, then the scalar matching test."""
    spokes = MASK_BITS + 1

    def star(hub, first_leaf, tagged):
        """A hub, its leaves, and a label-2 pendant on ``tagged`` of them."""
        leaves = range(first_leaf, first_leaf + spokes)
        pendants = range(first_leaf + spokes, first_leaf + spokes + tagged)
        edges = [(hub, leaf) for leaf in leaves]
        edges += [(leaf, pendant) for leaf, pendant in zip(leaves, pendants)]
        return [0] + [1] * spokes + [2] * tagged, edges

    query = Graph(*star(0, 1, tagged=2))
    # The second hub passes LDF, NLF and Rule 3.1, but both tagged spokes
    # of the query can only go to its one tagged leaf.
    labels, edges = star(0, 1, tagged=2)
    more_labels, more_edges = star(len(labels), len(labels) + 1, tagged=1)
    data = Graph(labels + more_labels, edges + more_edges)
    assert_parity(query, data)
    assert GraphQLFilter().run(query, data)[0] == [0]
    assert GraphQLFilter(refinement_rounds=0).run(query, data)[0] == [0, len(labels)]


def test_a_set_emptied_earlier_in_the_sweep_is_not_charged():
    """u0 loses its only candidate at its own turn: u1 and u2 anchor on
    it and u3 on u1, so only u0's slice (two entries) is read."""
    query = Graph(labels=[0, 1, 3, 2], edges=[(0, 1), (0, 2), (1, 3)])
    # v0 fits u0 but reaches no candidate of u1 (v1 has no label-2
    # neighbor); v2 fits u1 but its label-0 neighbor v4 fits no u0.
    data = Graph(labels=[0, 1, 1, 2, 0, 3], edges=[(0, 1), (0, 5), (2, 3), (2, 4)])
    assert GraphQLFilter(refinement_rounds=0).run(query, data).as_dict() == {
        0: [0], 1: [2], 2: [5], 3: [3]
    }
    for rounds in (1, 2, 3):
        assert_parity(query, data, rounds=rounds)
        metrics = Metrics()
        with collecting(metrics):
            assert GraphQLFilter(refinement_rounds=rounds).run(query, data).has_empty_set
        assert metrics.counters["filter.neighbors_gathered"] == 2
