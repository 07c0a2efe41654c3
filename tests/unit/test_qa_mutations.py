"""Unit tests for the QA harness's mutation axis.

Script serialization, batch sanitization, the planted mutation-script
generator and its plain edge-set replay, the mutate-then-match
differential, and the shrinker's mutation pass.
"""

import re

import pytest

from repro.dynamic import (
    ADD_EDGE,
    ADD_VERTEX,
    REMOVE_EDGE,
    DynamicGraph,
    Mutation,
    sanitize_batch,
)
from repro.dynamic.mutations import op_error, script_from_json, script_to_json
from repro.errors import InvalidGraphError
from repro.graph.graph import Graph
from repro.qa import (
    DIVERGENCE_KINDS,
    MUTATION_KINDS,
    Config,
    plant_case,
    plant_mutation_script,
    replay_script,
    run_case,
    run_mutation_config,
)
from repro.qa import shrink as shrink_module
from repro.qa.shrink import shrink_case


# ----------------------------------------------------------------------
# Vocabulary and serialization
# ----------------------------------------------------------------------


def test_mutation_rejects_unknown_ops():
    with pytest.raises(ValueError, match="unknown mutation op"):
        Mutation("drop_vertex", 1)


def test_script_json_round_trip():
    script = (
        (Mutation(ADD_EDGE, 0, 1), Mutation(ADD_VERTEX, 3)),
        (Mutation(REMOVE_EDGE, 2, 0),),
    )
    payload = script_to_json(script)
    assert payload == [[["add_edge", 0, 1], ["add_vertex", 3]], [["remove_edge", 2, 0]]]
    assert script_from_json(payload) == script
    assert script_from_json(None) == ()


def test_sanitize_batch_drops_invalid_ops_and_tracks_growth():
    batch = (
        Mutation(ADD_EDGE, 0, 5),      # out of range for n=4: dropped
        Mutation(ADD_VERTEX, 2),       # id 4 exists from here on
        Mutation(ADD_EDGE, 0, 4),      # now in range: kept
        Mutation(ADD_EDGE, 3, 3),      # self loop: dropped
        Mutation(REMOVE_EDGE, -1, 2),  # negative endpoint: dropped
        Mutation(ADD_VERTEX, -1),      # negative label: dropped, no growth
        Mutation(ADD_EDGE, 1, 5),      # 5 never materialized: dropped
    )
    kept, n = sanitize_batch(batch, 4)
    assert kept == (Mutation(ADD_VERTEX, 2), Mutation(ADD_EDGE, 0, 4))
    assert n == 5
    # Sanitized batches always apply cleanly.
    dyn = DynamicGraph(Graph(labels=[0, 1, 0, 1], edges=[(0, 1), (1, 2), (2, 3)]))
    dyn.apply(kept)
    assert dyn.num_vertices == 5 and dyn.has_edge(0, 4)


def test_apply_refuses_exactly_the_ops_sanitize_drops():
    """One validity rule: an op alone in a batch applies iff the
    sanitizer keeps it, and the error names op_error's reason."""
    base = Graph(labels=[0, 1, 0, 1], edges=[(0, 1), (1, 2), (2, 3)])
    for op in (ADD_EDGE, REMOVE_EDGE):
        for u in range(-1, 6):
            for v in range(-1, 6):
                mutation = Mutation(op, u, v)
                kept, _ = sanitize_batch((mutation,), 4)
                reason = op_error(mutation, 4)
                assert (kept == (mutation,)) == (reason is None)
                if reason is None:
                    DynamicGraph(base).apply([mutation])
                else:
                    with pytest.raises(InvalidGraphError, match=re.escape(reason)):
                        DynamicGraph(base).apply([mutation])
    for label in (-2, -1, 0, 3):
        kept, n = sanitize_batch((Mutation(ADD_VERTEX, label),), 4)
        assert (n == 5) == (label >= 0) == (kept != ())


def test_config_mutations_round_trip_and_label():
    script = ((Mutation(ADD_EDGE, 0, 1),), (Mutation(ADD_VERTEX, 2), Mutation(ADD_EDGE, 2, 3)))
    config = Config(mode="session", mutations=script)
    assert Config.from_dict(config.to_dict()) == config
    assert "+mut3" in config.label()
    # Legacy payloads (pre-mutation corpus records) parse to the static axis.
    payload = config.to_dict()
    del payload["mutations"]
    legacy = Config.from_dict(payload)
    assert legacy.mutations is None
    assert "+mut" not in legacy.label()


def test_mutation_kinds_are_divergence_kinds():
    assert set(MUTATION_KINDS) <= set(DIVERGENCE_KINDS)


# ----------------------------------------------------------------------
# The planted script generator
# ----------------------------------------------------------------------


def test_plant_mutation_script_is_deterministic():
    case = plant_case(11, max_data=20)
    assert plant_mutation_script(case) == plant_mutation_script(case)
    assert plant_mutation_script(case, seed=1) != plant_mutation_script(case, seed=2)


def test_plant_mutation_script_final_batch_plants_the_query():
    case = plant_case(23, max_data=20)
    script = plant_mutation_script(case, num_batches=3)
    assert len(script) == 3
    final = script[-1]
    spawns = [m for m in final if m.op == ADD_VERTEX]
    wires = [m for m in final if m.op == ADD_EDGE]
    assert len(spawns) == case.query.num_vertices
    assert len(wires) == case.query.num_edges

    # Apply the whole script; the fresh vertices must host an exact copy
    # of the query (labels and adjacency).
    dyn = DynamicGraph(case.data)
    n = dyn.num_vertices
    for batch in script:
        kept, n = sanitize_batch(batch, n)
        dyn.apply(kept)
    first_new = dyn.num_vertices - case.query.num_vertices
    hosts = list(range(first_new, dyn.num_vertices))
    for u in range(case.query.num_vertices):
        assert dyn.label(hosts[u]) == case.query.label(u)
    for u, w in case.query.edges():
        assert dyn.has_edge(hosts[u], hosts[w])


def test_replay_script_folds_ops_on_plain_sets():
    base = Graph(labels=[0, 1, 0, 1], edges=[(0, 1), (1, 2), (2, 3)])
    script = (
        (Mutation(ADD_EDGE, 3, 0), Mutation(ADD_EDGE, 1, 0)),  # new / present
        (Mutation(REMOVE_EDGE, 2, 1), Mutation(REMOVE_EDGE, 0, 2)),  # live / absent
        (Mutation(ADD_VERTEX, 5), Mutation(ADD_EDGE, 4, 2), Mutation(REMOVE_EDGE, 4, 2)),
    )
    assert list(replay_script(base, script)) == [
        ([0, 1, 0, 1], [(0, 1), (0, 3), (1, 2), (2, 3)]),
        ([0, 1, 0, 1], [(0, 1), (0, 3), (2, 3)]),
        ([0, 1, 0, 1, 5], [(0, 1), (0, 3), (2, 3)]),
    ]
    assert list(replay_script(base, ())) == []


# ----------------------------------------------------------------------
# The differential and its shrinker pass
# ----------------------------------------------------------------------


def test_run_mutation_config_is_clean_on_a_planted_case():
    case = plant_case(7, max_data=18)
    script = plant_mutation_script(case, num_batches=2)
    config = Config(mode="session", algorithm="GQL", mutations=script)
    assert run_mutation_config(case.query, case.data, config) is None


def test_an_apply_bookkeeping_fault_is_a_mutation_mismatch(monkeypatch):
    """Removing an edge the same batch inserted must cancel its overlay
    insertion. A fault that records a removal instead leaves the edge in
    neighbors() and in every snapshot. The differential's oracle replays
    the script on plain sets, so it sees the edge gone; an oracle read
    back from the overlay would agree with the faulty snapshot."""
    case = plant_case(7, max_data=18)
    u, v = next(
        (u, v)
        for u in range(case.data.num_vertices)
        for v in range(u + 1, case.data.num_vertices)
        if not case.data.has_edge(u, v)
    )
    script = ((Mutation(ADD_EDGE, u, v), Mutation(REMOVE_EDGE, u, v)),)
    config = Config(mode="session", algorithm="GQL", mutations=script)
    assert run_mutation_config(case.query, case.data, config) is None

    discard = DynamicGraph._discard

    def faulty(self, adj, a, b):
        if adj is self._added_adj:
            self._record(self._removed_adj, a, b)
        else:
            discard(self, adj, a, b)

    monkeypatch.setattr(DynamicGraph, "_discard", faulty)
    dyn = DynamicGraph(case.data)
    dyn.apply(script[0])
    assert dyn.has_edge(u, v) and v in dyn.neighbors(u)  # the fault stands
    finding = run_mutation_config(case.query, case.data, config)
    assert finding is not None
    kind, detail = finding
    assert kind == "mutation_mismatch"
    assert "overlay snapshot differs" in detail


def test_run_case_with_mutations_is_clean():
    case = plant_case(3, max_data=16)
    script = plant_mutation_script(case, num_batches=2)
    divergences = run_case(case, mutations=script)
    assert divergences == []


def test_shrinker_minimizes_the_mutation_script(monkeypatch):
    case = plant_case(5, max_data=14)
    needle = ["add_edge", 0, 1]
    script = [
        [["add_vertex", 0], ["add_edge", 2, 3]],
        [needle, ["remove_edge", 1, 2]],
        [["add_vertex", 1]],
    ]
    record = {
        "kind": "mutation_mismatch",
        "config_a": Config(mode="session").to_dict() | {"mutations": script},
    }

    def fake_reproduces(rec, query, data):
        mutations = rec["config_a"]["mutations"]
        return any(needle in batch for batch in mutations)

    monkeypatch.setattr(shrink_module, "divergence_reproduces", fake_reproduces)
    query, data, moves = shrink_case(record, case.query, case.data, max_seconds=None)
    assert moves > 0
    # The script shrank in place to (at most) the needle's batch — batch
    # deletion keeps at least one batch, op deletion strips the rest.
    final = record["config_a"]["mutations"]
    assert final == [[needle]]
    # Graph moves ran under the fake predicate too; both stay valid graphs.
    assert query.num_vertices >= 3 and data.num_vertices >= 1


def test_shrinker_leaves_static_records_untouched(monkeypatch):
    case = plant_case(5, max_data=14)
    record = {"kind": "count_mismatch", "config_a": Config().to_dict()}
    monkeypatch.setattr(
        shrink_module, "divergence_reproduces", lambda rec, q, d: False
    )
    query, data, moves = shrink_case(record, case.query, case.data)
    assert moves == 0
    assert record["config_a"]["mutations"] is None
