"""Candidate-space bitmap rows and the mask frames that run on them."""

import itertools
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import match
from repro.core.plan import compile_plan, prepare_query, run_plan
from repro.enumeration import BacktrackingEngine, FrameMachine, IntersectionLC
from repro.filtering import AuxiliaryStructure, CandidateSets, GraphQLFilter
from repro.graph import Graph, extract_query, rmat_graph
from repro.obs import Metrics
from repro.ordering import GraphQLOrdering
from repro.utils.kernels import RowsKernel

PATH3 = Graph(labels=[0, 0, 0], edges=[(0, 1), (1, 2)])


def _definition(data, candidates, u_to, v):
    return sorted(set(data.neighbors(v).tolist()) & set(candidates[u_to]))


# ----------------------------------------------------------------------
# (i) Rows decode to N(v) ∩ C(u)
# ----------------------------------------------------------------------


class TestRows:
    @pytest.fixture(scope="class")
    def data(self):
        # Vertex 199 is isolated: its row is empty whatever the target.
        graph = rmat_graph(199, 12.0, 1, seed=5, clustering=0.2)
        return Graph(labels=[0] * 200, edges=list(graph.edges()))

    @pytest.mark.parametrize("width", [1, 63, 64, 65, 128, 129])
    def test_rows_decode_to_the_definition(self, data, width):
        source = list(range(0, 200, 3)) + [199]
        candidates = CandidateSets(PATH3, [source, range(width), range(200)])
        aux = AuxiliaryStructure.build(PATH3, data, candidates, scope="all")
        rows = aux.rows(0, 1)
        assert len(rows) == candidates.size(0)
        target = candidates.array(1)
        for i, v in enumerate(candidates[0]):
            assert rows[i] < 1 << width
            decoded = target[RowsKernel.decode(rows[i])].tolist()
            assert decoded == _definition(data, candidates, 1, v)
            assert aux.neighbors(0, 1, v).tolist() == decoded
        assert rows[candidates[0].index(199)] == 0  # the empty row

    def test_absent_candidate_and_unread_pair(self, data):
        candidates = CandidateSets(PATH3, [range(0, 50), range(40, 140), range(200)])
        aux = AuxiliaryStructure.build(PATH3, data, candidates, scope="all")
        aux.build_rows([(0, 1)])
        assert aux.form(0, 1) == "rows"
        assert aux.neighbors(0, 1, 77).tolist() == []  # 77 ∉ C(u0)
        # Reading through the array API decodes; it does not add a second form.
        assert aux.neighbors(0, 1, 3).tolist() == _definition(data, candidates, 1, 3)
        assert aux.form(0, 1) == "rows"
        # Pairs nobody read are in scope but not built, in either form.
        for pair in [(1, 0), (1, 2), (2, 1)]:
            assert aux.has_pair(*pair) and aux.form(*pair) is None
        with pytest.raises(KeyError):
            aux.rows(0, 2)  # not a query edge

    def test_one_form_per_pair(self, data):
        candidates = CandidateSets(PATH3, [range(60), range(30, 130), range(200)])
        aux = AuxiliaryStructure.build(PATH3, data, candidates, scope="all")
        aux.build_arrays([(0, 1)])
        assert aux.form(0, 1) == "arrays"
        aux.build_rows([(0, 1)])
        assert aux.form(0, 1) == "rows"
        aux.build_arrays([(0, 1)])
        assert aux.form(0, 1) == "arrays"

    def test_translation_tables(self, data):
        candidates = CandidateSets(PATH3, [range(0, 70), range(65, 140), range(150, 200)])
        aux = AuxiliaryStructure.build(PATH3, data, candidates, scope="all")
        table = aux.translation(0, 1)
        assert len(table) == 70
        for i, v in enumerate(candidates[0]):
            expected = 1 << candidates[1].index(v) if v in candidates[1] else 0
            assert table[i] == expected
        assert aux.translation(0, 2) is None  # disjoint sets never collide

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_rows_equal_arrays_on_random_candidate_spaces(self, data_strategy):
        draw = data_strategy.draw
        n = draw(st.integers(2, 90))
        edges = draw(
            st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] < e[1]
                ),
                max_size=4 * n,
            )
        )
        graph = Graph(labels=[0] * n, edges=sorted(edges))
        subsets = st.sets(st.integers(0, n - 1), max_size=n)
        candidates = CandidateSets(PATH3, [draw(subsets) for _ in range(3)])
        as_rows = AuxiliaryStructure.build(PATH3, graph, candidates, scope="all")
        as_arrays = AuxiliaryStructure.build(PATH3, graph, candidates, scope="all")
        as_rows.build_rows(as_rows.pairs())
        as_arrays.build_arrays(as_arrays.pairs())
        for u_from, u_to in as_rows.pairs():
            for v in range(n):
                expected = (
                    _definition(graph, candidates, u_to, v)
                    if v in candidates.membership(u_from)
                    else []
                )
                assert as_rows.neighbors(u_from, u_to, v).tolist() == expected
                assert as_arrays.neighbors(u_from, u_to, v).tolist() == expected
        assert as_rows.num_entries == as_arrays.num_entries


# ----------------------------------------------------------------------
# (ii)–(iv) Mask frames
# ----------------------------------------------------------------------


def _pipeline(data, query):
    candidates = GraphQLFilter().run(query, data)
    auxiliary = AuxiliaryStructure.build(query, data, candidates, scope="all")
    order = GraphQLOrdering().order(query, data, candidates)
    return candidates, auxiliary, order


@pytest.fixture(scope="module")
def heavy():
    # Single label: injectivity conflicts (and failing-set conflict
    # classes) are common.
    data = rmat_graph(300, 8.0, 1, seed=3, clustering=0.2)
    query = extract_query(data, 6, seed=2)
    return (query, data) + _pipeline(data, query)


@pytest.fixture(scope="module")
def hub():
    # A hub with 150 leaves and a 3-path query: leaf frames hold 149 valid
    # candidates plus one conflict — wider than two machine words.
    data = Graph(labels=[0] * 151, edges=[(0, v) for v in range(1, 151)])
    return (PATH3, data) + _pipeline(data, PATH3)


def _drain(machine):
    rows = []
    while True:
        batch = machine.advance()
        if batch is None:
            return rows
        assert type(batch) is list and batch
        rows.extend(batch)


class TestMaskFrames:
    def test_rows_kernel_runs_on_mask_frames(self, heavy):
        query, data, candidates, auxiliary, order = heavy
        machine = FrameMachine(IntersectionLC(kernel="rows")).start(
            query, data, candidates, auxiliary, order, match_limit=10
        )
        assert machine._on_rows and machine._visited is None
        lists = FrameMachine(IntersectionLC(kernel="numpy")).start(
            query, data, candidates, auxiliary, order, match_limit=10
        )
        assert not lists._on_rows

    @pytest.mark.parametrize("fs", [False, True])
    def test_save_restore_replays_the_remainder(self, heavy, fs):
        query, data, candidates, auxiliary, order = heavy
        machine = FrameMachine(
            IntersectionLC(kernel="rows"), use_failing_sets=fs
        ).start(
            query, data, candidates, auxiliary, order,
            match_limit=400, store_limit=50, emit_rows=True,
        )
        for _ in range(7):
            assert machine.advance() is not None
        snapshot = machine.save_state()
        assert snapshot.visited is None  # ints only: no |V(G)| copies
        first = _drain(machine)
        first_stats = (machine.num_matches, machine.stats, len(machine._store))
        machine.restore_state(snapshot)
        assert not machine.done
        assert _drain(machine) == first
        assert (machine.num_matches, machine.stats, len(machine._store)) == first_stats

    def test_snapshot_before_the_first_advance(self, heavy):
        query, data, candidates, auxiliary, order = heavy
        machine = FrameMachine(IntersectionLC(kernel="rows")).start(
            query, data, candidates, auxiliary, order, match_limit=60, emit_rows=True
        )
        snapshot = machine.save_state()
        first = _drain(machine)
        machine.restore_state(snapshot)
        assert _drain(machine) == first
        assert machine.stats.recursion_calls > 0

    @pytest.mark.parametrize("kernel", ["rows", "numpy"])
    def test_root_windows_concatenate_and_sum(self, heavy, kernel):
        query, data, candidates, auxiliary, order = heavy
        roots = candidates.size(order[0])
        assert roots > 20

        def run(window):
            return FrameMachine(IntersectionLC(kernel=kernel)).run(
                query, data, candidates, auxiliary, order,
                match_limit=None, store_limit=10**6, root_window=window,
            )

        whole = run(None)
        cuts = [0, 3, 11, roots - 5, roots]  # not byte aligned
        parts = [run((lo, hi)) for lo, hi in zip(cuts, cuts[1:])]
        assert sum((p.embeddings for p in parts), []) == whole.embeddings
        assert sum(p.num_matches for p in parts) == whole.num_matches
        for name in ("candidates_scanned", "conflicts"):
            assert sum(getattr(p.stats, name) for p in parts) == getattr(
                whole.stats, name
            )
        # Every window pays its own root node.
        assert (
            sum(p.stats.recursion_calls for p in parts) - (len(parts) - 1)
            == whole.stats.recursion_calls
        )
        assert run((7, 7)).num_matches == 0

    @pytest.mark.parametrize("match_limit", [None, 149 + 60, 149, 1])
    def test_wide_leaf_masks_count_store_emit_agree(self, hub, heavy, match_limit):
        # hub: leaf batches of ~149 (the bulk decode); heavy: mostly a few
        # matches per batch (the bit walk). Store limits 7 and 100 cut a
        # hub batch on either side of WIDE_LEAF_BATCH.
        cases = [
            (hub, match_limit, match_limit or 150 * 149),
            (heavy, match_limit or 3000, None),
        ]
        for (query, data, candidates, auxiliary, order), limit, total in cases:
            for kernel, fs in itertools.product(["rows", "numpy"], [False, True]):

                def machine(**kwargs):
                    return FrameMachine(
                        IntersectionLC(kernel=kernel), use_failing_sets=fs
                    ).start(
                        query, data, candidates, auxiliary, order,
                        match_limit=limit, **kwargs,
                    )

                reference = BacktrackingEngine(
                    IntersectionLC(kernel="numpy"), use_failing_sets=fs
                ).run(
                    query, data, candidates, auxiliary, order,
                    match_limit=limit, store_limit=10**6,
                )
                assert reference.num_matches == (total or limit)
                counted = machine(store_limit=0)
                assert counted.advance() is None
                assert counted._store.as_tuples() == []
                runs = [counted]
                for store_limit in (7, 100, 10**6):
                    stored = machine(store_limit=store_limit)
                    assert stored.advance() is None
                    assert stored._store.as_tuples() == (
                        reference.embeddings[:store_limit]
                    )
                    runs.append(stored)
                emitted = machine(store_limit=0, emit_rows=True)
                assert _drain(emitted) == reference.embeddings
                for m in runs + [emitted]:
                    assert m.num_matches == reference.num_matches
                    assert m.stats == reference.stats


# ----------------------------------------------------------------------
# (v) Budget fallback, (vi) shared prepared queries
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def case():
    data = rmat_graph(400, 8.0, 2, seed=21, clustering=0.2)
    return extract_query(data, 6, seed=4), data


def _fields(result):
    return (result.num_matches, result.solved, result.embeddings, result.stats)


class TestAutoResolution:
    def test_auto_runs_on_rows(self, case, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        query, data = case
        assert match(query, data, algorithm="GQL-opt").kernel == "rows"
        # Adaptive selection consumes lists: auto stays on arrays there.
        assert match(query, data, algorithm="DP").kernel == "numpy"

    def test_tiny_budget_falls_back_to_numpy(self, case, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        query, data = case
        on_rows = match(query, data, algorithm="GQLfs", match_limit=2000)
        monkeypatch.setenv("REPRO_BITSET_CACHE_MB", "0.00001")  # ~10 bytes
        fallback = match(query, data, algorithm="GQLfs", match_limit=2000)
        assert (on_rows.kernel, fallback.kernel) == ("rows", "numpy")
        assert _fields(fallback) == _fields(on_rows)
        assert fallback.memory_bytes == on_rows.memory_bytes

    def test_prepared_query_holds_read_pairs_in_one_form(self, case):
        query, data = case
        for kernel, form in ((None, "rows"), ("numpy", "arrays")):
            plan = compile_plan("GQL-opt", query, data, kernel=kernel)
            prepared = prepare_query(plan, query, data, Metrics())
            aux, order = prepared.auxiliary, prepared.order
            position = {u: i for i, u in enumerate(order)}
            for w, u in aux.pairs():
                backward = position[w] < position[u]
                assert aux.form(w, u) == (form if backward else None)
            run_plan(plan, query, data, prepared=prepared)
            # Enumeration built nothing further.
            assert sum(aux.form(*p) is not None for p in aux.pairs()) == query.num_edges


def test_threads_share_one_prepared_query(case):
    query, data = case
    plan = compile_plan("GQLfs", query, data)
    prepared = prepare_query(plan, query, data, Metrics())
    assert prepared.kernel_used == "rows"
    expected = _fields(
        run_plan(plan, query, data, prepared=prepared, match_limit=3000)[0]
    )
    results, errors = [], []

    def worker():
        try:
            for _ in range(3):
                result, _ = run_plan(
                    plan, query, data, prepared=prepared, match_limit=3000
                )
                results.append(_fields(result))
        except BaseException as exc:  # surfaced by the assertion below
            errors.append(exc)
            raise

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert len(results) == 18 and all(r == expected for r in results)
