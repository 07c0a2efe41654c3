"""The label invariant, and the clash tables that rely on it.

Every producer of candidate sets keeps in ``C(u)`` only data vertices of
``u``'s own label, so two sets can share a vertex only when their query
vertices share a label. The frame machine therefore asks for translation
tables (the "clash" of an earlier query vertex's mapping in a frame)
between same-label query vertices only
(:func:`~repro.enumeration.local_candidates.clash_partners`). Here every
producer is held to the invariant; the same-label tables, static and
adaptive, are held to the all-pairs tables on planted cases; and hand-built
sets that break the invariant make every pair a partner, so no clash is
lost.
"""

import pickle
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.plan import bind_enumeration, compile_plan, prepare_query
from repro.dynamic import DynamicGraph, IncrementalCandidates, sanitize_batch
from repro.dynamic import ADD_EDGE, REMOVE_EDGE, Mutation
from repro.enumeration import FrameMachine
from repro.enumeration.local_candidates import clash_partners, universe_sets
from repro.filtering import (
    CandidateSets,
    CECIFilter,
    CFLFilter,
    DPisoFilter,
    GraphQLFilter,
    LDFFilter,
    NLFFilter,
    SteadyFilter,
)
from repro.graph import Graph
from repro.obs import Metrics
from repro.ordering import DPisoOrdering
from repro.qa import plant_case

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SEEDS = st.integers(0, 2**20)

FILTERS = [
    LDFFilter(),
    NLFFilter(),
    GraphQLFilter(),
    CFLFilter(),
    CECIFilter(),
    DPisoFilter(),
    SteadyFilter(),
]


def _assert_homogeneous(query: Graph, data: Graph, sets: CandidateSets, who: str):
    for u in query.vertices():
        held = set(data.labels[sets.array(u)].tolist())
        assert held <= {query.label(u)}, (who, u, held)


def _all_pairs(universes: CandidateSets, u: int, earlier):
    """``(w, table)`` for every earlier ``w`` whose universe meets ``U(u)``,
    whatever its label: what the same-label tables must equal."""
    return [
        (w, list(table))
        for w in earlier
        if w != u
        for table in (universes.translation(w, u),)
        if table is not None
    ]


@_SETTINGS
@given(seed=SEEDS)
def test_every_candidate_producer_is_label_homogeneous(seed):
    rng = random.Random(seed)
    case = plant_case(seed)
    query, data = case.query, case.data
    for filt in FILTERS:
        sets = filt.run(query, data)
        _assert_homogeneous(query, data, sets, filt.name)
        keep = [
            [v for v in range(data.num_vertices) if rng.random() < 0.5]
            for _ in query.vertices()
        ]
        _assert_homogeneous(query, data, sets.restricted(keep), filt.name + ".restricted")
    _assert_homogeneous(query, data, universe_sets(query, data, None), "LDF universes")

    dyn = DynamicGraph(data)
    state = IncrementalCandidates(query, dyn)
    n = dyn.num_vertices
    for step in range(3):
        u, v = rng.randrange(n), rng.randrange(n)
        kind = REMOVE_EDGE if u != v and dyn.has_edge(u, v) else ADD_EDGE
        kept, n = sanitize_batch((Mutation(kind, u, v),), n)
        state.apply_delta(dyn.apply(kept))
        _assert_homogeneous(
            query, dyn.snapshot(), state.candidate_sets(), "IncrementalCandidates"
        )

    for algorithm in ("GQL", "DP", "QSI"):
        plan = compile_plan(algorithm, query, data)
        prepared = pickle.loads(pickle.dumps(prepare_query(plan, query, data, Metrics())))
        if prepared.candidates is not None:
            _assert_homogeneous(query, data, prepared.candidates, algorithm + " pickled")
        if prepared.static is not None:
            _assert_homogeneous(
                query, data, prepared.static.universes, algorithm + " pickled universes"
            )


@_SETTINGS
@given(seed=SEEDS)
def test_same_label_clash_tables_equal_all_pairs_tables(seed):
    case = plant_case(seed)
    query, data = case.query, case.data
    for algorithm in ("GQL", "CECI", "QSI", "CFL"):
        plan = compile_plan(algorithm, query, data)
        static = prepare_query(plan, query, data, Metrics()).static
        order = static.order
        for depth, u in enumerate(order):
            got = [(w, list(table)) for w, table in static.clash[depth]]
            assert got == _all_pairs(static.universes, u, order[:depth]), algorithm
    plan = compile_plan("DP", query, data)
    machine = FrameMachine(prepare_query(plan, query, data, Metrics()))
    machine.start(query, data)
    for u, overlaps in enumerate(machine._overlaps):
        got = [(w, list(table)) for w, table in overlaps]
        assert got == _all_pairs(machine._universes, u, query.vertices())


def _mixed_case():
    """A path ``u0 - u2 - u1`` whose end vertices carry different labels,
    with hand-built sets that both hold data vertices 0 and 1: only
    injectivity keeps ``u0`` and ``u1`` apart."""
    query = Graph(labels=[0, 1, 2], edges=[(0, 2), (2, 1)])
    data = Graph(labels=[0, 1, 2], edges=[(0, 2), (2, 1)])
    candidates = CandidateSets(query, [[0, 1], [0, 1], [2]])
    return query, data, candidates


def test_mixed_label_sets_make_every_pair_a_partner():
    query, data, candidates = _mixed_case()
    assert clash_partners(query, data, candidates) == [[1, 2], [0, 2], [0, 1]]
    homogeneous = CandidateSets(query, [[0], [1], [2]])
    assert clash_partners(query, data, homogeneous) == [[], [], []]


def test_a_mixed_label_candidate_set_loses_no_clash():
    """Static (bitmap rows and arrays) and adaptive machines over sets
    that break the label invariant still enumerate injective embeddings
    only: the two matches, not the four a lost clash would let through."""
    query, data, candidates = _mixed_case()
    want = sorted([(0, 1, 2), (1, 0, 2)])
    for kernel in ("rows", "numpy"):
        plan = compile_plan("GQL", query, data, kernel=kernel)
        prepared = bind_enumeration(
            plan.algorithm.lc, "all", kernel, query, data, candidates, order=[0, 2, 1]
        )
        assert [w for w, _ in prepared.static.clash[2]] == [0]
        outcome = FrameMachine(prepared).run(query, data)
        assert sorted(map(tuple, outcome.embeddings)) == want, kernel
    plan = compile_plan("DP", query, data)
    state = DPisoOrdering().adaptive_state(query, data, candidates)
    prepared = bind_enumeration(
        plan.algorithm.lc,
        plan.algorithm.aux_scope,
        plan.kernel_policy,
        query,
        data,
        candidates,
        adaptive_state=state,
    )
    outcome = FrameMachine(prepared).run(query, data)
    assert sorted(map(tuple, outcome.embeddings)) == want
