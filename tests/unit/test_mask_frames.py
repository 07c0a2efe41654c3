"""Candidate-space bitmap rows and the mask frames that run on them."""

import gc
import itertools
import pickle
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engine_parity import bind
from repro.core.api import match
from repro.core.plan import compile_plan, prepare_query, run_plan
from repro.core.session import MatchSession
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
        table = aux.table(0, 1)
        assert aux.form(0, 1) == "rows" and set(table) == {None}
        assert aux.neighbors(0, 1, 77).tolist() == []  # 77 ∉ C(u0)
        # Reading through the array API fills the one row it reads and
        # decodes it; it does not add a second form.
        assert aux.neighbors(0, 1, 3).tolist() == _definition(data, candidates, 1, 3)
        assert aux.form(0, 1) == "rows"
        assert [i for i, row in enumerate(table) if row is not None] == [3]
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
        aux.table(0, 1)
        assert aux.form(0, 1) == "rows"
        aux.build_arrays([(0, 1)])
        assert aux.form(0, 1) == "arrays"

    def test_translation_tables(self):
        candidates = CandidateSets(PATH3, [range(0, 70), range(65, 140), range(150, 200)])
        table = candidates.translation(0, 1)
        assert len(table) == 70
        for i, v in enumerate(candidates[0]):
            expected = candidates[1].index(v) if v in candidates[1] else -1
            assert table[i] == expected
        assert candidates.translation(0, 2) is None  # disjoint sets never collide
        assert candidates.translation(0, 1) is table  # built once

    def test_translation_tables_take_four_bytes_an_entry(self):
        """QSI frames are over LDF universes: on a single-label graph every
        pair of a same-label query overlaps in nearly all of ``V(G)``, so
        binding builds ``|V(q)|·(|V(q)|-1)/2`` tables of ``~|V(G)|``
        entries each. They are C ``int`` arrays, not lists of Python
        ints (~36 bytes an entry above 256)."""
        n = 20_000
        ring = [(v, (v + 1) % n) for v in range(n)] + [(v, (v + 7) % n) for v in range(n)]
        data = Graph(labels=[0] * n, edges=ring)
        query = Graph(labels=[0] * 6, edges=[(u, (u + 1) % 6) for u in range(6)])
        plan = compile_plan("QSI", query, data)
        prepare_query(plan, query, data, Metrics())  # label index, warm
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            prepared = prepare_query(plan, query, data, Metrics())
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        static = prepared.static
        entries = sum(len(table) for clash in static.clash for _, table in clash)
        assert entries == 15 * n
        universes = sum(static.universes.array(u).nbytes for u in range(6))
        assert (after - before - universes) / entries <= 5

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
        for pair in as_rows.pairs():
            as_rows.table(*pair)  # all holes: each read below fills one
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


#: One preset per way a frame's ``full`` is resolved: Algorithm 2 over LDF
#: universes (QSI, 2PP), Algorithms 3 and 4 (GQL, CFL), Algorithm 5 under
#: an array kernel (CECI on numpy) and on bitmap rows (CECI on rows), and
#: the adaptive selector (DP).
FRAME_PRESETS = [
    ("QSI", None), ("2PP", None), ("GQL", None), ("CFL", None),
    ("CECI", "numpy"), ("CECI", "rows"), ("DP", None),
]


def _machine(query, data, algorithm, kernel=None, fs=None, **kwargs):
    """A started frame machine over a freshly prepared ``algorithm``."""
    plan = compile_plan(algorithm, query, data, kernel=kernel)
    prepared = prepare_query(plan, query, data, Metrics())
    return FrameMachine(
        prepared, use_failing_sets=plan.algorithm.failing_sets if fs is None else fs
    ).start(query, data, **kwargs)


class TestMaskFrames:
    def test_rows_kernel_runs_on_mask_frames(self, heavy):
        """Frames have one form: the rows kernel and an array kernel give
        the same outcome, embeddings and counters alike."""
        query, data, candidates, auxiliary, order = heavy
        outcomes = [
            FrameMachine(
                bind(IntersectionLC(kernel=kernel), query, data, candidates, auxiliary, order),
                use_failing_sets=fs,
            ).run(query, data, match_limit=500)
            for fs in (False, True)
            for kernel in ("rows", "numpy")
        ]
        for rows, numpy in (outcomes[:2], outcomes[2:]):
            assert rows.num_matches == numpy.num_matches == 500
            assert rows.embeddings == numpy.embeddings
            assert rows.stats == numpy.stats

    @pytest.mark.parametrize("kernel", ["rows", "numpy"])
    def test_root_windows_concatenate_and_sum(self, heavy, kernel):
        query, data, candidates, auxiliary, order = heavy
        roots = candidates.size(order[0])
        assert roots > 20

        def run(window):
            prepared = bind(
                IntersectionLC(kernel=kernel), query, data, candidates, auxiliary, order
            )
            return FrameMachine(prepared).run(
                query, data, match_limit=None, store_limit=10**6, root_window=window
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
                    prepared = bind(
                        IntersectionLC(kernel=kernel), query, data, candidates,
                        auxiliary, order,
                    )
                    return FrameMachine(prepared, use_failing_sets=fs).start(
                        query, data, match_limit=limit, **kwargs
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


class _BadProbe(list):
    """``f_bad`` of a machine, checking every frame as it opens: its
    ``bad`` must be the positions in ``full`` of the data vertices the
    vertices above it hold, whatever translation tables produced it."""

    def __init__(self, machine):
        super().__init__(machine._f_bad)
        self.machine = machine
        self.checked = 0

    def __setitem__(self, depth, value):
        machine = self.machine
        if isinstance(depth, int) and machine.opened is not None:
            assert machine.opened[0] == depth
            full = machine.opened[1]
            machine.opened = None
            held = {v for v in machine._mapping if v >= 0}
            universe = machine._lists[machine._f_u[depth]]
            assert value == sum(
                1 << i for i, v in enumerate(universe) if full >> i & 1 and v in held
            )
            self.checked += 1
        super().__setitem__(depth, value)


class _OpeningMachine(FrameMachine):
    opened = None

    def _open_lists(self, depth):
        full = super()._open_lists(depth)
        if full or not self.use_failing_sets:  # else: no frame, no bad
            self.opened = (depth, full)
        return full


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**16),
    st.sampled_from(["QSI", "2PP", "GQL", "CFL", "DP"]),
    st.booleans(),
)
def test_bad_is_what_the_mapping_holds(seed, algorithm, fs):
    """Static and adaptive orders alike: at every opened frame, ``bad``
    is exactly the members of ``full`` some earlier query vertex holds."""
    data = rmat_graph(120, 6.0, 2, seed=seed, clustering=0.3)
    query = extract_query(data, 5, seed=seed)
    plan = compile_plan(algorithm, query, data)
    prepared = prepare_query(plan, query, data, Metrics())
    machine = _OpeningMachine(prepared, use_failing_sets=fs).start(
        query, data, match_limit=300
    )
    machine._f_bad = probe = _BadProbe(machine)
    machine.advance()
    if machine.stats.recursion_calls:
        assert 0 < probe.checked <= machine.stats.recursion_calls


def test_an_empty_ldf_universe_still_costs_the_root_its_node(heavy):
    """Only the plan's candidate sets may end a run before its root: a
    no-filter preset whose LDF universe is empty opens and exhausts the
    root frame, as the recursive reference does."""
    data = heavy[1]
    query = Graph(labels=[5, 5, 5], edges=[(0, 1), (1, 2)])  # label absent
    for algorithm in ("QSI", "RI", "2PP"):
        result = match(query, data, algorithm=algorithm)
        assert result.num_matches == 0 and result.stats.recursion_calls == 1


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
        monkeypatch.setattr("repro.utils.kernels.BITSET_CACHE_BYTES", 10)
        fallback = match(query, data, algorithm="GQLfs", match_limit=2000)
        assert (on_rows.kernel, fallback.kernel) == ("rows", "numpy")
        assert _fields(fallback) == _fields(on_rows)
        assert fallback.memory_bytes == on_rows.memory_bytes

    def test_prepared_query_holds_read_pairs_in_one_form(self, case):
        """``form()`` names how a pair is bound, not how much of it is
        built: ``"rows"`` is a row table that may still have holes,
        ``"arrays"`` a complete array table. Binding puts each query edge,
        in its backward direction, in the form its engine path reads; a
        run fills rows of those tables and binds nothing else."""
        query, data = case
        for kernel, form in ((None, "rows"), ("numpy", "arrays")):
            plan = compile_plan("GQL-opt", query, data, kernel=kernel)
            prepared = prepare_query(plan, query, data, Metrics())
            aux, order = prepared.auxiliary, prepared.order
            position = {u: i for i, u in enumerate(order)}
            backward = [p for p in aux.pairs() if position[p[0]] < position[p[1]]]
            for pair in aux.pairs():
                assert aux.form(*pair) == (form if pair in backward else None)
            if form == "rows":
                assert all(set(aux.table(*p)) == {None} for p in backward)
            run_plan(plan, query, data, prepared=prepared, match_limit=50)
            assert [p for p in aux.pairs() if aux.form(*p)] == backward
            if form == "rows":
                filled = [sum(r is not None for r in aux.table(*p)) for p in backward]
                assert 0 < sum(filled) < sum(len(aux.table(*p)) for p in backward)

    def test_memory_bytes_is_the_definition_when_read(self, case):
        query, data = case
        session = MatchSession(data, algorithm="GQL-opt")
        first = session.match(query, match_limit=20)
        hit = session.match(query, match_limit=20)
        assert session.cache_info()["prep"]["hits"] == 1
        candidates = GraphQLFilter().run(query, data)
        entries = sum(
            len(set(data.neighbors(v).tolist()) & candidates.membership(b))
            for x, y in query.edges()
            for a, b in ((x, y), (y, x))
            for v in candidates[a]
        )
        assert first.memory_bytes == hit.memory_bytes == (
            candidates.memory_bytes + 8 * entries
        )


def test_a_pickle_ships_complete_tables(case):
    """Row tables fill from a graph held weakly: a pickle cannot carry
    it, so it fills every hole while the graph is alive."""
    query, data = case
    plan = compile_plan("GQLfs", query, data)
    prepared = prepare_query(plan, query, data, Metrics())
    aux = prepared.auxiliary
    tables = {p: aux.table(*p) for p in aux.pairs() if aux.form(*p) == "rows"}
    assert all(set(t) == {None} for t in tables.values())
    clone = pickle.loads(pickle.dumps(aux))
    for pair, table in tables.items():
        assert None not in table  # filled in place, before it was copied
        assert clone.table(*pair) == aux.rows(*pair)
    assert clone.num_entries == aux.num_entries
    with pytest.raises(ReferenceError):
        clone.fill(*next(iter(tables)), [None])  # the graph stayed behind
    # The bound tables travel the same way inside a prepared query.
    fresh = prepare_query(plan, query, data, Metrics())
    shipped = pickle.loads(pickle.dumps(fresh))
    assert all(
        None not in table for bound in shipped.static.rows for _, table in bound
    )


def test_a_cached_prepared_query_fills_from_the_graph_it_runs_on(case):
    """A prepared query may outlive the graph object it was bound on (a
    pool worker re-attaches an evicted graph and hits its prepared
    cache): holes fill from the graph the search runs on."""
    query, data = case
    bound_on = Graph.from_csr(data.labels, *data.csr, num_edges=data.num_edges)
    plan = compile_plan("GQLfs", query, bound_on)
    prepared = prepare_query(plan, query, bound_on, Metrics())
    del bound_on
    gc.collect()
    assert prepared.auxiliary._data() is None
    result, _ = run_plan(plan, query, data, prepared=prepared, match_limit=60)
    assert _fields(result) == _fields(run_plan(plan, query, data, match_limit=60)[0])


def test_threads_share_one_prepared_query(case):
    """Threads running one cached prepared query whose tables start as
    holes, at different match limits, each get the sequential answer."""
    query, data = case
    plan = compile_plan("GQLfs", query, data)
    limits = [1, 7, 60, 3000, None]
    expected = {
        limit: _fields(run_plan(plan, query, data, match_limit=limit)[0])
        for limit in limits
    }
    prepared = prepare_query(plan, query, data, Metrics())
    assert prepared.kernel_used == "rows"
    assert all(
        set(table) == {None} for bound in prepared.static.rows for _, table in bound
    )
    results, errors = [], []

    def worker(offset):
        try:
            for k in range(len(limits)):
                limit = limits[(offset + k) % len(limits)]
                result, _ = run_plan(
                    plan, query, data, prepared=prepared, match_limit=limit
                )
                results.append((limit, _fields(result)))
        except BaseException as exc:  # surfaced by the assertion below
            errors.append(exc)
            raise

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert len(results) == 6 * len(limits)
    assert all(fields == expected[limit] for limit, fields in results)
