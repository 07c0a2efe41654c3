"""Label-pair neighbour slices: what a graph keeps for the row fills.

:meth:`~repro.graph.graph.Graph.labelled_neighbors` answers a vertex's
neighbours of one label from a slice per ``(label, target)`` pair read,
with offsets over the ``label`` group found by the vertex's rank in it.
A splice hands the slices on; the dynamic graph's rewrite stamps say
which vertices went stale, and a group rewritten past
``STALE_SHARE`` has its slice built again. ``AuxiliaryStructure``
reads them when the candidate sets keep the label invariant and reads
whole runs otherwise, with the same rows either way.
"""

import pickle
from dataclasses import replace

import pytest

from repro.core.plan import compile_plan, prepare_query, race_orders
from repro.core.registry import FILTERS
from repro.dynamic import ADD_EDGE, ADD_VERTEX, DynamicGraph, Mutation
from repro.filtering import CandidateSets
from repro.filtering.auxiliary import AuxiliaryStructure
from repro.graph import Graph, erdos_renyi_graph, extract_query, rmat_graph
from repro.graph.graph import STALE_SHARE
from repro.obs import Metrics


def filtered(graph, v, target):
    return [w for w in graph.neighbors(v).tolist() if graph.label(w) == target]


@pytest.fixture
def graph():
    return erdos_renyi_graph(120, 6.0, 4, seed=3)


def test_every_answer_is_the_filtered_run(graph):
    for v in graph.vertices():
        for target in range(4):
            got = graph.labelled_neighbors(v, graph.label(v), target)
            assert list(got) == filtered(graph, v, target)
    assert len(graph._slices) == 16


def test_ranks_count_inside_each_label_group(graph):
    graph.labelled_neighbors(0, graph.label(0), 1)
    for label in graph.label_set:
        for rank, v in enumerate(graph.vertices_with_label(label).tolist()):
            assert graph._ranks[v] == rank


def test_a_target_no_vertex_carries_is_answered_empty_and_not_kept(graph):
    assert list(graph.labelled_neighbors(0, graph.label(0), 99)) == []
    assert (graph.label(0), 99) not in graph._slices


def test_a_pickle_carries_no_slice_and_the_ranks_come_back(graph):
    graph.labelled_neighbors(0, graph.label(0), 1)
    copy = pickle.loads(pickle.dumps(graph))
    assert copy._slices == {} and copy._inherited == {} and copy._ranks is None
    assert list(copy.labelled_neighbors(0, graph.label(0), 1)) == filtered(graph, 0, 1)
    assert list(copy._ranks) == list(graph._ranks)


def test_a_query_graph_holds_no_ranks_until_a_slice_is_read():
    """Only an attached data graph builds its ranks with its label index."""
    query = Graph(labels=[2, 0, 2, 1, 0], edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert query._ranks is None and query._slices == {}
    attached = Graph.from_csr(query.labels, *query.csr, query.num_edges)
    assert list(attached._ranks) == [0, 0, 1, 0, 1]
    for v in query.vertices():
        for target in range(3):
            got = query.labelled_neighbors(v, query.label(v), target)
            assert list(got) == filtered(query, v, target)
    assert list(query._ranks) == [0, 0, 1, 0, 1]


def test_a_splice_shares_the_ranks_and_hands_slices_on_uncopied():
    base = Graph(labels=[0, 1, 1, 1, 0, 0, 0, 0], edges=[(0, 1), (4, 2), (5, 3)])
    entry = base._slice(0, 1)
    dyn = DynamicGraph(base)
    dyn.apply([Mutation(ADD_EDGE, 0, 2)])
    snap = dyn.snapshot()
    assert snap._ranks is base._ranks
    assert snap._inherited[(0, 1)] is entry
    assert list(snap.labelled_neighbors(0, 0, 1)) == [1, 2]  # rewritten: whole run
    assert list(snap.labelled_neighbors(4, 0, 1)) == [2]
    assert snap._slices[(0, 1)] is entry  # adopted, not built
    dyn.apply([Mutation(ADD_VERTEX, 0), Mutation(ADD_EDGE, 8, 3)])
    grown = dyn.snapshot()
    assert grown._ranks is None  # appended: built again on the first read
    assert grown._inherited[(0, 1)] is entry
    assert list(grown.labelled_neighbors(8, 0, 1)) == [3]
    assert grown._ranks is not base._ranks and grown._ranks[8] == 5


def test_a_group_rewritten_past_the_share_builds_its_slice_again():
    n = 8
    base = Graph(labels=[0] * n + [1] * n, edges=[(v, n + v) for v in range(n)])
    entry = base._slice(0, 1)
    dyn = DynamicGraph(base)
    rewritten = 0
    while rewritten <= STALE_SHARE * n:
        dyn.apply([Mutation(ADD_EDGE, rewritten, n + (rewritten + 1) % n)])
        rewritten += 1
        snap = dyn.snapshot()
        fresh = snap._slice(0, 1)
        assert (fresh is entry) == (rewritten <= STALE_SHARE * n)
        for v in range(n):
            assert sorted(snap.labelled_neighbors(v, 0, 1)) == filtered(snap, v, 1)
    assert fresh[2] == snap._generation


def test_a_base_taken_from_another_dynamic_graph_keeps_only_exact_slices():
    """A second dynamic graph over a snapshot of the first has its own
    stamps, which know nothing of the first's rewrites: a slice the
    snapshot inherited (exact before them) must not reach the second's
    snapshots, or a vertex the first rewrote would read a stale run."""
    base = Graph(labels=[0, 0, 0, 0, 1, 1, 1], edges=[(0, 4)])
    base._slice(0, 1)
    first = DynamicGraph(base)
    first.apply([Mutation(ADD_EDGE, 0, 5)])
    middle = first.snapshot()  # inherits the slice; vertex 0 is stamped
    second = DynamicGraph(middle)
    second.apply([Mutation(ADD_EDGE, 4, 6)])
    snap = second.snapshot()
    assert list(snap.labelled_neighbors(0, 0, 1)) == [4, 5]


def test_mixed_label_sets_read_whole_runs_for_the_same_rows():
    data = erdos_renyi_graph(60, 5.0, 3, seed=8)
    query = Graph(labels=[0, 1, 2], edges=[(0, 1), (1, 2)])
    homogeneous = CandidateSets(
        query, [data.vertices_with_label(label) for label in (0, 1, 2)]
    )
    mixed = CandidateSets(query, [range(0, 40), range(20, 60), range(10, 50)])

    def rows(candidates):
        auxiliary = AuxiliaryStructure.build(query, data, candidates, "all")
        return auxiliary, {pair: auxiliary.rows(*pair) for pair in auxiliary.pairs()}

    for candidates, reads_slices in ((homogeneous, True), (mixed, False)):
        auxiliary, got = rows(candidates)
        assert (auxiliary._labels is not None) == reads_slices
        for (u_from, u_to), table in got.items():
            universe = candidates[u_to]
            for i, v in enumerate(candidates[u_from]):
                run = set(data.neighbors(v).tolist())
                want = sum(1 << j for j, x in enumerate(universe) if x in run)
                assert table[i] == want


def test_a_prepare_and_its_race_check_the_label_invariant_once(monkeypatch):
    """The clash partners, the row tables and every racer bound onto the
    prepared query's sets ask whether they keep the label invariant; the
    sets check once per data graph. GraphQL's filter, so the race runs
    over the prepared query's own sets."""
    data = rmat_graph(num_vertices=400, average_degree=12.0, num_labels=6, seed=3)
    query = extract_query(data, 9, seed=2)
    plan = compile_plan("recommended", query, data)
    plan = replace(plan, algorithm=replace(plan.algorithm, filter=FILTERS.create("GQL")))
    checks = []
    check = CandidateSets._label_check

    def counting(sets, graph):
        checks.append(sets)
        return check(sets, graph)

    monkeypatch.setattr(CandidateSets, "_label_check", counting)
    prepared = prepare_query(plan, query, data, Metrics())
    assert prepared.auxiliary.form(*next(iter(prepared.auxiliary.pairs()))) == "rows"
    assert checks == [prepared.candidates]
    winner = race_orders(plan, query, data, prepared, 500)
    assert winner is not None and winner.race_calls > winner.calls  # several ran
    assert checks == [prepared.candidates]
