"""Dynamic-graph properties: mutation, compaction, epoch invalidation.

Three invariants Hypothesis explores over random graphs, mutation
batches, and compaction points:

* **candidate equality** — after any interleaving of mutation batches
  and ``compact()`` calls, the incrementally maintained
  :class:`~repro.dynamic.IncrementalCandidates` state equals a
  ground-up rebuild on the same graph (seed, d1, d2 *and* the support
  counters — the internal state, not just the visible sets);
* **fingerprint-invalidation exactness** — a session's prepared-query
  cache hits iff the graph epoch is unchanged: a repeated query hits, a
  query after a non-empty batch misses, a query after an *empty* batch
  (all-no-op mutations bump nothing) hits again;
* **overlay ↔ compacted byte parity** — the overlay's snapshot, a
  from-scratch :class:`~repro.graph.graph.Graph` on the same
  labels/edges, and the post-``compact()`` base all carry byte-identical
  CSR arrays (construction is canonical, so parity is exact, not just
  set-equal).

:class:`TestSnapshotSplice` holds the spliced ``snapshot()`` to the same
oracle array by array, over scripts built to hit the splice's corners,
and pins snapshot isolation: a snapshot captured earlier never changes.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.session import MatchSession
from repro.dynamic import (
    ADD_EDGE,
    ADD_VERTEX,
    REMOVE_EDGE,
    DynamicGraph,
    IncrementalCandidates,
    Mutation,
    sanitize_batch,
)
from repro.graph.graph import Graph
from repro.graph.store import MmapStore, write_rgf
from repro.qa import plant_case

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SEEDS = st.integers(0, 2**16)


@st.composite
def programs(draw):
    """A planted case plus an interleaving of batches and compactions.

    Ops are drawn raw (endpoints may be out of range or self-loops) and
    sanitized at apply time against the graph's current vertex count —
    the same tolerance the QA shrinker relies on.
    """
    case = plant_case(draw(SEEDS), max_data=20)
    raw_op = st.one_of(
        st.tuples(
            st.just(ADD_EDGE),
            st.integers(0, case.data.num_vertices + 4),
            st.integers(0, case.data.num_vertices + 4),
        ),
        st.tuples(
            st.just(REMOVE_EDGE),
            st.integers(0, case.data.num_vertices + 4),
            st.integers(0, case.data.num_vertices + 4),
        ),
        st.tuples(st.just(ADD_VERTEX), st.integers(0, 3)),
    )
    steps = draw(
        st.lists(
            st.one_of(
                st.just("compact"),
                st.lists(raw_op, min_size=0, max_size=5),
            ),
            min_size=1,
            max_size=6,
        )
    )
    return case, steps


def _as_batch(raw):
    return tuple(Mutation(*op) for op in raw)


def _assert_byte_parity(left: Graph, right: Graph) -> None:
    assert left.store.labels.tobytes() == right.store.labels.tobytes()
    assert left.store.offsets.tobytes() == right.store.offsets.tobytes()
    assert (
        left.store.neighbors.tobytes() == right.store.neighbors.tobytes()
    )


@_SETTINGS
@given(program=programs())
def test_candidates_track_any_mutate_compact_interleaving(program):
    case, steps = program
    dyn = DynamicGraph(case.data, compact_threshold=0.5)
    incremental = IncrementalCandidates(case.query, dyn)
    n = dyn.num_vertices
    for step in steps:
        if step == "compact":
            epoch = dyn.epoch
            dyn.compact()
            assert dyn.epoch == epoch, "compaction must not bump the epoch"
        else:
            kept, n = sanitize_batch(_as_batch(step), n)
            delta = dyn.apply(kept)
            incremental.apply_delta(delta)
        assert incremental.equal_state(incremental.rebuild())
    # The visible candidate sets agree with a cold build as well.
    cold = IncrementalCandidates(case.query, dyn)
    assert incremental.as_dict() == cold.as_dict()


@_SETTINGS
@given(program=programs())
def test_overlay_snapshot_and_compacted_base_byte_parity(program):
    case, steps = program
    dyn = DynamicGraph(case.data, compact_threshold=0.5)
    n = dyn.num_vertices
    for step in steps:
        if step == "compact":
            dyn.compact()
        else:
            kept, n = sanitize_batch(_as_batch(step), n)
            dyn.apply(kept)
    rebuilt = Graph(labels=dyn.labels_list(), edges=list(dyn.edges()))
    _assert_byte_parity(dyn.snapshot(), rebuilt)
    dyn.compact()
    assert dyn.overlay_size == 0
    _assert_byte_parity(dyn.base, rebuilt)
    _assert_byte_parity(dyn.snapshot(), rebuilt)


@_SETTINGS
@given(seed=SEEDS, raw=st.lists(
    st.tuples(st.just(ADD_EDGE), st.integers(0, 24), st.integers(0, 24)),
    min_size=1, max_size=4,
))
def test_prep_cache_hit_iff_epoch_unchanged(seed, raw):
    case = plant_case(seed, max_data=20)
    dyn = DynamicGraph(case.data)
    session = MatchSession(dyn, algorithm="GQL")
    try:
        def prep_hit():
            result = session.match(case.query)
            counters = result.metrics.counters
            assert counters["plan.prep_hit"] + counters["plan.prep_miss"] == 1
            return bool(counters["plan.prep_hit"])

        assert not prep_hit()          # cold: miss
        assert prep_hit()              # unchanged epoch: hit

        kept, _ = sanitize_batch(_as_batch(raw), dyn.num_vertices)
        # Drop ops that are no-ops against the current graph (edge
        # already present), so a non-empty application really mutates.
        effective = tuple(
            m for m in kept if not dyn.has_edge(m.a, m.b)
        )
        epoch = dyn.epoch
        session.mutate(effective)
        if effective:
            assert dyn.epoch == epoch + 1
            assert not prep_hit()      # epoch bumped: exactly one miss
        else:
            assert dyn.epoch == epoch
            assert prep_hit()          # empty batch: still a hit
        assert prep_hit()              # and hits again at the new epoch
    finally:
        session.close()


# ----------------------------------------------------------------------
# Snapshot splice
# ----------------------------------------------------------------------

VERTEX = st.integers(0, 40)  # reduced modulo the live vertex count

# Steps of a splice script. Batches are lists of *macro* ops expanded
# against the graph as it stands when the batch is applied, so every
# corner the splice has to get right is drawn often, not by luck.
MACRO_OP = st.one_of(
    st.tuples(st.just("add"), VERTEX, VERTEX),
    st.tuples(st.just("remove"), VERTEX, VERTEX),
    st.tuples(st.just("vertex"), st.integers(0, 3)),
    # add_vertex then an edge onto the id it just created.
    st.tuples(st.just("vertex+edge"), st.integers(0, 3), VERTEX),
    # an op followed by its inverse: the overlay records cancel.
    st.tuples(st.just("cancel"), VERTEX, VERTEX),
    # remove every edge of one vertex, its last one included.
    st.tuples(st.just("isolate"), VERTEX),
)
SPLICE_STEP = st.one_of(
    st.just("snapshot"),
    st.just("compact"),
    st.lists(MACRO_OP, min_size=1, max_size=4),
)


def _expand(dyn: DynamicGraph, macros) -> list:
    """Concrete mutations for one batch of macro ops."""
    batch = []
    n = dyn.num_vertices
    for macro in macros:
        kind = macro[0]
        if kind == "vertex":
            batch.append(Mutation(ADD_VERTEX, macro[1]))
            n += 1
        elif kind == "vertex+edge":
            batch.append(Mutation(ADD_VERTEX, macro[1]))
            if n:
                batch.append(Mutation(ADD_EDGE, n, macro[2] % n))
            n += 1
        elif kind == "isolate":
            v = macro[1] % n
            if v < dyn.num_vertices:
                batch.extend(
                    Mutation(REMOVE_EDGE, v, w) for w in dyn.neighbors(v)
                )
        else:
            u, v = macro[1] % n, macro[2] % n
            if u == v:
                continue
            if kind == "add":
                batch.append(Mutation(ADD_EDGE, u, v))
            elif kind == "remove":
                batch.append(Mutation(REMOVE_EDGE, u, v))
            else:  # cancel
                live = u < dyn.num_vertices and v < dyn.num_vertices
                first = REMOVE_EDGE if live and dyn.has_edge(u, v) else ADD_EDGE
                second = ADD_EDGE if first == REMOVE_EDGE else REMOVE_EDGE
                batch += [Mutation(first, u, v), Mutation(second, u, v)]
    return batch


def _assert_is_constructor_rebuild(dyn: DynamicGraph, snap: Graph) -> None:
    """``snap`` equals the from-scratch oracle, array by array."""
    oracle = Graph(labels=dyn.labels_list(), edges=list(dyn.edges()))
    offsets, neighbors = snap.csr
    oracle_offsets, oracle_neighbors = oracle.csr
    for got, want in (
        (snap.labels, oracle.labels),
        (offsets, oracle_offsets),
        (neighbors, oracle_neighbors),
        (snap.degrees, oracle.degrees),
    ):
        assert got.dtype == want.dtype == np.int64
        assert got.tobytes() == want.tobytes()
    assert snap.num_edges == oracle.num_edges == dyn.num_edges
    assert snap.label_set == oracle.label_set
    for label in oracle.label_set:
        assert (
            snap.vertices_with_label(label).tobytes()
            == oracle.vertices_with_label(label).tobytes()
        )


def _frozen(snap: Graph) -> tuple:
    offsets, neighbors = snap.csr
    return (snap.labels.tobytes(), offsets.tobytes(), neighbors.tobytes())


class TestSnapshotSplice:
    @staticmethod
    def _run_script(dyn: DynamicGraph, steps) -> None:
        captured = []  # (snapshot, its bytes when it was taken)
        for step in steps:
            if step == "compact":
                dyn.compact()
            elif step == "snapshot":
                snap = dyn.snapshot()
                _assert_is_constructor_rebuild(dyn, snap)
                captured.append((snap, _frozen(snap)))
            else:
                dyn.apply(_expand(dyn, step))
        _assert_is_constructor_rebuild(dyn, dyn.snapshot())
        # Snapshot isolation: no buffer an earlier snapshot holds was
        # written by a later splice or compaction.
        for snap, frozen in captured:
            assert _frozen(snap) == frozen

    @_SETTINGS
    @given(seed=SEEDS, steps=st.lists(SPLICE_STEP, min_size=2, max_size=10))
    def test_spliced_snapshot_is_the_constructor_rebuild(self, seed, steps):
        case = plant_case(seed, max_data=20)
        self._run_script(
            DynamicGraph(case.data, compact_threshold=None), steps
        )

    @_SETTINGS
    @given(seed=SEEDS, steps=st.lists(SPLICE_STEP, min_size=2, max_size=10))
    def test_splice_over_an_mmap_backed_base(
        self, seed, steps, tmp_path_factory
    ):
        case = plant_case(seed, max_data=20)
        path = tmp_path_factory.mktemp("splice") / "base.rgf"
        write_rgf(case.data, path)
        with MmapStore(path) as store:
            self._run_script(
                DynamicGraph(store.graph(), compact_threshold=None), steps
            )

    @_SETTINGS
    @given(seed=SEEDS, steps=st.lists(SPLICE_STEP, min_size=2, max_size=10))
    def test_spliced_snapshots_carry_exact_neighbor_label_columns(
        self, seed, steps
    ):
        """Columns built once on the base ride every splice, patched at
        the touched vertices when first read, and equal a from-scratch
        graph's — after several epochs in which nobody read them, too.
        Half of each captured snapshot's columns are read when it is
        taken, the rest only at the end: neither later splices nor late
        patches may disturb what an earlier snapshot holds."""
        case = plant_case(seed, max_data=20)
        dyn = DynamicGraph(case.data, compact_threshold=None)
        labels = sorted(case.data.label_set | {0, 1, 2, 3, 99})  # 99 never occurs
        for label in labels:
            dyn.snapshot().neighbor_label_counts(label)

        def oracle():
            return Graph(labels=dyn.labels_list(), edges=list(dyn.edges()))

        captured = []
        for step in steps:
            if step == "compact":
                dyn.compact()
            elif step == "snapshot":
                snap = dyn.snapshot()
                for label in labels[::2]:
                    snap.neighbor_label_counts(label)
                captured.append((snap, oracle()))
            else:
                dyn.apply(_expand(dyn, step))
        captured.append((dyn.snapshot(), oracle()))
        for snap, want in captured:
            for label in labels:
                assert (
                    snap.neighbor_label_counts(label).tobytes()
                    == want.neighbor_label_counts(label).tobytes()
                )

    def test_splice_never_reaches_the_graph_constructor(self, monkeypatch):
        """An accidental fallback to the rebuild must not pass silently."""
        base = Graph(labels=[0, 1, 0, 1], edges=[(0, 1), (1, 2), (2, 3)])
        dyn = DynamicGraph(base, compact_threshold=None)

        def rebuilt(*args, **kwargs):
            raise AssertionError("snapshot() fell back to Graph.__init__")

        monkeypatch.setattr(Graph, "__init__", rebuilt)
        dyn.apply([Mutation(ADD_EDGE, 0, 2), Mutation(REMOVE_EDGE, 2, 3)])
        dyn.apply([Mutation(ADD_VERTEX, 2), Mutation(ADD_EDGE, 4, 3)])
        first = dyn.snapshot()
        dyn.compact()
        dyn.apply([Mutation(REMOVE_EDGE, 4, 3)])
        second = dyn.snapshot()
        monkeypatch.undo()
        assert first == Graph(
            labels=[0, 1, 0, 1, 2], edges=[(0, 1), (1, 2), (0, 2), (3, 4)]
        )
        assert second == Graph(
            labels=[0, 1, 0, 1, 2], edges=[(0, 1), (1, 2), (0, 2)]
        )
