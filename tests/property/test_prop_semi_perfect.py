"""The batched semi-perfect-matching decision against Kuhn's algorithm.

:func:`~repro.filtering.graphql.semi_perfect_keep` decides, for all
candidates of one query vertex at once, whether the bipartite graph
between the query vertex's neighbours (the *anchors*) and the candidate's
neighbours has a matching covering every anchor: Hall's condition read
off one gathered array of anchor bitmasks. The reference is the exported
definition, :func:`~repro.filtering.graphql.has_semi_perfect_matching`,
run candidate by candidate. Degrees run from 1 to 9 so every regime is
hit: ``d ≤ 2`` (the up-front tests are the whole answer), ``3 ≤ d ≤``
:data:`~repro.filtering.graphql.HALL_MAX_DEGREE` (sufficient test, then
Hall's condition on anchor subsets) and above it (sufficient test, then
the scalar residue).
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from strategies import graphs

from repro.filtering import graphql
from repro.filtering._common import MASK_BITS, _gather_neighbors, refine_keep
from repro.filtering.graphql import (
    HALL_MAX_DEGREE,
    has_semi_perfect_matching,
    semi_perfect_keep,
)
from repro.graph.graph import Graph

_SETTINGS = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def scalar_keep(data, target, anchor_lists):
    """The definition: build ``B_v^u`` for each ``v`` and run Kuhn."""
    membership = [set(anchor) for anchor in anchor_lists]
    kept = []
    for v in target:
        v_neighbors = data.neighbors(v).tolist()
        adjacency = [
            [j for j, w in enumerate(v_neighbors) if w in allowed]
            for allowed in membership
        ]
        if has_semi_perfect_matching(
            len(anchor_lists), adjacency, len(v_neighbors)
        ):
            kept.append(v)
    return kept


def batch_keep(data, target, anchor_lists):
    scratch = np.zeros(data.num_vertices, dtype=np.int64)
    target = np.asarray(target, dtype=np.int64)
    kept = semi_perfect_keep(
        data,
        target,
        [np.asarray(anchor, dtype=np.int64) for anchor in anchor_lists],
        scratch,
        _gather_neighbors(data, target),
    )
    assert not scratch.any(), "scratch not restored"
    assert kept.dtype == np.int64
    return kept.tolist()


@st.composite
def anchor_instances(draw):
    """A data graph, a target list and 1–9 anchor lists over its vertices.

    Dense graphs with large anchors exercise the sufficient test; small
    overlapping anchors leave it undecided and produce Hall violations on
    proper subsets. The graph always has more vertices than anchors, so
    at every degree some candidates can survive.
    """
    degree = draw(st.integers(1, 9))
    data = draw(
        st.one_of(
            graphs(
                min_vertices=degree + 1,
                max_vertices=degree + 8,
                max_labels=1,
                edge_probability=p,
            )
            for p in (0.4, 0.7, 0.95)
        )
    )
    vertices = st.integers(0, data.num_vertices - 1)
    largest = draw(st.integers(1, data.num_vertices))
    anchors = draw(
        st.lists(
            st.sets(vertices, min_size=1, max_size=largest).map(sorted),
            min_size=degree,
            max_size=degree,
        )
    )
    target = draw(st.sets(vertices).map(sorted))
    return data, target, anchors


@_SETTINGS
@given(anchor_instances())
def test_batch_decision_matches_kuhn_candidate_by_candidate(instance):
    data, target, anchors = instance
    assert batch_keep(data, target, anchors) == scalar_keep(data, target, anchors)


def test_two_anchors_hitting_the_same_single_vertex():
    """The (1, 1) Hall violation: Rule 3.1 holds, no matching exists."""
    data = Graph(labels=[0] * 5, edges=[(0, 1), (0, 2), (4, 1), (4, 3)])
    anchors = [[1], [1, 3]]
    # From vertex 0 both anchors reach only vertex 1; from 4 they reach 1 and 3.
    scratch = np.zeros(5, dtype=bool)
    rule_31 = refine_keep(
        data, np.asarray([0, 4]), [np.asarray(a) for a in anchors], scratch
    )
    assert rule_31.tolist() == [0, 4]
    assert batch_keep(data, [0, 4], anchors) == scalar_keep(data, [0, 4], anchors) == [4]


def test_hall_violation_on_a_proper_subset():
    """|∪ hits| = d and every anchor hits, yet two anchors share one vertex."""
    data = Graph(labels=[0] * 4, edges=[(0, 1), (0, 2), (0, 3)])
    violated = [[1], [1], [2, 3]]
    tight = [[1], [1, 2], [2, 3]]
    assert scalar_keep(data, [0], violated) == []
    assert batch_keep(data, [0], violated) == []
    assert scalar_keep(data, [0], tight) == [0]
    assert batch_keep(data, [0], tight) == [0]


def test_an_empty_anchor_list_rejects_every_candidate():
    data = Graph(labels=[0] * 3, edges=[(0, 1), (1, 2)])
    for anchors in ([[]], [[0, 2], []], [[], [0, 2], [1]]):
        assert batch_keep(data, [0, 1, 2], anchors) == []
        assert scalar_keep(data, [0, 1, 2], anchors) == []


def test_a_candidate_without_neighbours_is_dropped():
    data = Graph(labels=[0] * 4, edges=[(0, 1)])  # 2 and 3 isolated
    assert batch_keep(data, [0, 2, 3], [[1, 2, 3]]) == [0]
    assert batch_keep(data, [2, 3], [[0, 1], [1]]) == []


def test_no_anchors_keeps_everything():
    data = Graph(labels=[0] * 3, edges=[(0, 1)])
    assert batch_keep(data, [0, 1, 2], []) == scalar_keep(data, [0, 1, 2], []) == [0, 1, 2]


def test_more_anchors_than_mask_bits():
    """A star with ``d(u) > 63``: the anchors do not fit one mask."""
    degree = MASK_BITS + 2
    leaves = list(range(1, degree + 1))
    data = Graph(labels=[0] * (degree + 1), edges=[(0, leaf) for leaf in leaves])
    distinct = [[leaf] for leaf in leaves]
    assert batch_keep(data, [0, 1], distinct) == scalar_keep(data, [0, 1], distinct) == [0]
    clash = distinct[:-1] + [distinct[0]]  # two anchors share their only vertex
    assert batch_keep(data, [0, 1], clash) == scalar_keep(data, [0, 1], clash) == []
    # Everything reaches everything: the widest case that still passes.
    assert batch_keep(data, [0], [leaves] * degree) == [0]


def test_subset_enumeration_stops_at_the_bound(monkeypatch):
    """Which side decides the residue depends on ``d(u)`` alone."""
    # Vertex 0 sees 1..d; anchors 0 and 1 share their only vertex and the
    # rest reach everything, so counts sort to (1, 1, d, ...): undecided.
    def instance(degree):
        leaves = list(range(1, degree + 1))
        data = Graph(labels=[0] * (degree + 1), edges=[(0, leaf) for leaf in leaves])
        return data, [[1], [1]] + [leaves] * (degree - 2)

    calls = []
    scalar = graphql.has_semi_perfect_matching

    def counting(*args):
        calls.append(args[0])
        return scalar(*args)

    monkeypatch.setattr(graphql, "has_semi_perfect_matching", counting)
    for degree in range(3, HALL_MAX_DEGREE + 1):
        data, anchors = instance(degree)
        assert batch_keep(data, [0], anchors) == []
    assert calls == []
    data, anchors = instance(HALL_MAX_DEGREE + 1)
    assert batch_keep(data, [0], anchors) == []
    assert calls == [HALL_MAX_DEGREE + 1]
