"""Dynamic-graph properties: mutation, rebasing, epoch invalidation.

The oracle of every snapshot here is a from-scratch
:class:`~repro.graph.graph.Graph` built from
:func:`repro.qa.replay_script`'s plain edge-set replay of the mutation
script — it reads nothing ``DynamicGraph`` writes. Three invariants
Hypothesis explores over random graphs, mutation batches, and snapshot
points (an ``apply`` after a snapshot rebases onto it):

* **candidate equality** — after any interleaving of mutation batches
  and snapshots, the incrementally maintained
  :class:`~repro.dynamic.IncrementalCandidates` state equals a
  ground-up rebuild on the same graph (seed, d1, d2 *and* the support
  counters — the internal state, not just the visible sets);
* **fingerprint-invalidation exactness** — a session's prepared-query
  cache hits iff the graph epoch is unchanged: a repeated query hits, a
  query after a non-empty batch misses, a query after an *empty* batch
  (all-no-op mutations bump nothing) hits again;
* **overlay ↔ rebased byte parity** — the overlay's snapshot, the
  replay oracle, and the base an ``apply`` rebases onto all carry
  byte-identical CSR arrays (construction is canonical, so parity is
  exact, not just set-equal).

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
from repro.filtering import LDFFilter
from repro.filtering.auxiliary import AuxiliaryStructure
from repro.graph.graph import STALE_SHARE, Graph
from repro.graph.store import MmapStore, write_rgf
from repro.qa import plant_case, replay_script

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SEEDS = st.integers(0, 2**16)


@st.composite
def programs(draw):
    """A planted case plus an interleaving of batches and snapshots.

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
                st.just("snapshot"),
                st.lists(raw_op, min_size=0, max_size=5),
            ),
            min_size=1,
            max_size=6,
        )
    )
    return case, steps


def _as_batch(raw):
    return tuple(Mutation(*op) for op in raw)


def _replayed(base: Graph, script) -> Graph:
    """The from-scratch graph after ``script``: the replay oracle."""
    labels, edges = base.labels.tolist(), sorted(base.edges())
    for labels, edges in replay_script(base, script):
        pass
    return Graph(labels=labels, edges=edges)


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
    dyn = DynamicGraph(case.data)
    incremental = IncrementalCandidates(case.query, dyn)
    n = dyn.num_vertices
    for step in steps:
        if step == "snapshot":
            epoch = dyn.epoch
            dyn.snapshot()
            assert dyn.epoch == epoch, "a snapshot must not bump the epoch"
        else:
            kept, n = sanitize_batch(_as_batch(step), n)
            delta = dyn.apply(kept)
            incremental.apply_delta(delta)
        assert incremental.equal_state(incremental.rebuild())
    # The visible candidate sets agree with a cold build as well.
    cold = IncrementalCandidates(case.query, dyn)
    assert (
        incremental.candidate_sets().as_dict() == cold.candidate_sets().as_dict()
    )


@_SETTINGS
@given(program=programs())
def test_overlay_snapshot_and_compacted_base_byte_parity(program):
    case, steps = program
    dyn = DynamicGraph(case.data)
    script = []
    n = dyn.num_vertices
    for step in steps:
        if step == "snapshot":
            _assert_byte_parity(dyn.snapshot(), _replayed(case.data, script))
        else:
            kept, n = sanitize_batch(_as_batch(step), n)
            script.append(kept)
            dyn.apply(kept)
    rebuilt = _replayed(case.data, script)
    _assert_byte_parity(dyn.snapshot(), rebuilt)
    epoch = dyn.epoch
    dyn.apply([])  # finds the snapshot current: rebases onto it
    assert dyn.epoch == epoch and dyn.overlay_size == 0
    _assert_byte_parity(dyn._base, rebuilt)
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


def _assert_is_constructor_rebuild(
    dyn: DynamicGraph, snap: Graph, oracle: Graph
) -> None:
    """``snap`` equals the from-scratch replay oracle, array by array."""
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


def _rows(query: Graph, data: Graph) -> dict:
    """Every bitmap row of every in-scope pair, built on ``data``."""
    candidates = LDFFilter().run(query, data)
    auxiliary = AuxiliaryStructure.build(query, data, candidates, "all")
    return {pair: auxiliary.rows(*pair) for pair in auxiliary.pairs()}


def _assert_slices_match(snap: Graph, want: Graph) -> None:
    """Each label-pair slice ``snap`` holds answers like ``want``'s CSR."""
    for (label, target), (offsets, targets, exact, _) in list(snap._slices.items()):
        for rank, v in enumerate(snap.vertices_with_label(label).tolist()):
            run = [w for w in want.neighbors(v).tolist() if want.label(w) == target]
            answer = snap.labelled_neighbors(v, label, target)
            assert [w for w in answer if snap.label(w) == target] == run
            if exact == snap._generation or snap._stamps[v] <= exact:
                assert list(targets[offsets[rank]:offsets[rank + 1]]) == run


def _frozen(snap: Graph) -> tuple:
    offsets, neighbors = snap.csr
    return (snap.labels.tobytes(), offsets.tobytes(), neighbors.tobytes())


class TestSnapshotSplice:
    @staticmethod
    def _run_script(dyn: DynamicGraph, steps) -> None:
        base = dyn.snapshot()
        script = []
        captured = []  # (snapshot, its bytes when it was taken)
        for step in steps:
            if step == "snapshot":
                snap = dyn.snapshot()
                _assert_is_constructor_rebuild(dyn, snap, _replayed(base, script))
                captured.append((snap, _frozen(snap)))
            else:
                script.append(_expand(dyn, step))
                dyn.apply(script[-1])
        _assert_is_constructor_rebuild(dyn, dyn.snapshot(), _replayed(base, script))
        # Snapshot isolation: no buffer an earlier snapshot holds was
        # written by a later splice or rebase.
        for snap, frozen in captured:
            assert _frozen(snap) == frozen

    @_SETTINGS
    @given(seed=SEEDS, steps=st.lists(SPLICE_STEP, min_size=2, max_size=10))
    def test_spliced_snapshot_is_the_constructor_rebuild(self, seed, steps):
        case = plant_case(seed, max_data=20)
        self._run_script(DynamicGraph(case.data), steps)

    @_SETTINGS
    @given(seed=SEEDS, steps=st.lists(SPLICE_STEP, min_size=2, max_size=10))
    def test_splice_over_an_mmap_backed_base(
        self, seed, steps, tmp_path_factory
    ):
        case = plant_case(seed, max_data=20)
        path = tmp_path_factory.mktemp("splice") / "base.rgf"
        write_rgf(case.data, path)
        with MmapStore(path) as store:
            self._run_script(DynamicGraph(store.graph()), steps)

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
        dyn = DynamicGraph(case.data)
        labels = sorted(case.data.label_set | {0, 1, 2, 3, 99})  # 99 never occurs
        for label in labels:
            dyn.snapshot().neighbor_label_counts(label)
        script = []

        def oracle():
            return _replayed(case.data, script)

        captured = []
        for step in steps:
            if step == "snapshot":
                snap = dyn.snapshot()
                for label in labels[::2]:
                    snap.neighbor_label_counts(label)
                captured.append((snap, oracle()))
            else:
                script.append(_expand(dyn, step))
                dyn.apply(script[-1])
        captured.append((dyn.snapshot(), oracle()))
        for snap, want in captured:
            for label in labels:
                assert (
                    snap.neighbor_label_counts(label).tobytes()
                    == want.neighbor_label_counts(label).tobytes()
                )

    @_SETTINGS
    @given(
        seed=SEEDS,
        batches=st.lists(
            st.lists(MACRO_OP, min_size=1, max_size=4), min_size=1, max_size=12
        ),
        reads=st.lists(st.sets(st.integers(0, 7)), min_size=12, max_size=12),
    )
    def test_columns_read_in_any_pattern_equal_a_rebuild(
        self, seed, batches, reads
    ):
        """Every epoch reads a random subset of labels on its snapshot;
        one label is read on the base and then not again until the end,
        vertices are appended, and on these small graphs the rewrites
        since a column was exact often pass ``STALE_SHARE`` of ``|V|``,
        which builds it again. Every column read equals a from-scratch
        graph's, no block counts more than that share of ``|V|``, and a
        snapshot whose stale columns were all read holds no block."""
        case = plant_case(seed, max_data=12)
        dyn = DynamicGraph(case.data)
        labels = sorted(case.data.label_set | {0, 1, 2, 3})
        unread = labels[seed % len(labels)]
        for label in labels:
            dyn.snapshot().neighbor_label_counts(label)
        script = []
        for batch, chosen in zip(batches, reads):
            script.append(_expand(dyn, batch))
            dyn.apply(script[-1])
            snap = dyn.snapshot()
            want = _replayed(case.data, script)
            for label in sorted({labels[i % len(labels)] for i in chosen} - {unread}):
                assert (
                    snap.neighbor_label_counts(label).tobytes()
                    == want.neighbor_label_counts(label).tobytes()
                )
            patch = snap._patch
            assert patch is None or patch[0].size <= STALE_SHARE * snap.num_vertices
            if not snap._stale_counts:
                assert patch is None
        snap, want = dyn.snapshot(), _replayed(case.data, script)
        for label in [unread] + labels:
            assert (
                snap.neighbor_label_counts(label).tobytes()
                == want.neighbor_label_counts(label).tobytes()
            )
        assert snap._stale_counts == {} and snap._patch is None

    @_SETTINGS
    @given(
        seed=SEEDS,
        batches=st.lists(
            st.lists(MACRO_OP, min_size=1, max_size=4), min_size=2, max_size=10
        ),
        cut=st.integers(0, 8),
        reads=st.lists(st.sets(st.integers(0, 7)), min_size=10, max_size=10),
    )
    def test_columns_across_two_dynamic_graphs_equal_a_rebuild(
        self, seed, batches, cut, reads
    ):
        """A dynamic graph built over another one's snapshot has rewrite
        stamps of its own, which know nothing of the first one's rewrites.
        The first line reads every column on its base and a random subset
        per epoch, so the snapshot the second starts from holds some
        columns exact and inherited others unread; the second reads random
        subsets on. Every column read on either line equals a from-scratch
        graph's."""
        case = plant_case(seed, max_data=12)
        labels = sorted(case.data.label_set | {0, 1, 2, 3})
        dyn = DynamicGraph(case.data)
        for label in labels:
            dyn.snapshot().neighbor_label_counts(label)
        script = []
        cut = 1 + cut % (len(batches) - 1)
        for epoch, (batch, chosen) in enumerate(zip(batches, reads)):
            if epoch == cut:
                dyn = DynamicGraph(dyn.snapshot())
            script.append(_expand(dyn, batch))
            dyn.apply(script[-1])
            snap, want = dyn.snapshot(), _replayed(case.data, script)
            for label in sorted({labels[i % len(labels)] for i in chosen}):
                assert (
                    snap.neighbor_label_counts(label).tobytes()
                    == want.neighbor_label_counts(label).tobytes()
                )
        snap, want = dyn.snapshot(), _replayed(case.data, script)
        for label in labels:
            assert (
                snap.neighbor_label_counts(label).tobytes()
                == want.neighbor_label_counts(label).tobytes()
            )

    @_SETTINGS
    @given(
        seed=SEEDS,
        batches=st.lists(
            st.lists(MACRO_OP, min_size=1, max_size=4), min_size=1, max_size=12
        ),
        reads=st.lists(st.booleans(), min_size=12, max_size=12),
    )
    def test_rows_on_spliced_snapshots_equal_a_rebuilds(self, seed, batches, reads):
        """Bitmap rows read label-pair neighbour slices, which a splice
        hands on. The base builds every row of a planted query; each epoch
        whose draw says so builds them again on its snapshot, and each
        equals the row built on a from-scratch graph. Every slice the
        snapshot then holds, inherited or built there, answers each
        vertex with exactly the rebuild's target neighbours, and holds the
        rebuild's run for every vertex not rewritten since it was exact.
        Vertices are appended, and on these small graphs a group's
        rewrites often pass the share that makes a read build the slice
        again."""
        case = plant_case(seed, max_data=12)
        dyn = DynamicGraph(case.data)
        assert _rows(case.query, dyn.snapshot()) == _rows(case.query, Graph(
            labels=case.data.labels.tolist(), edges=sorted(case.data.edges())
        ))
        script = []
        for batch, read in zip(batches, reads):
            script.append(_expand(dyn, batch))
            dyn.apply(script[-1])
            if read:
                snap, want = dyn.snapshot(), _replayed(case.data, script)
                assert _rows(case.query, snap) == _rows(case.query, want)
                _assert_slices_match(snap, want)
        snap, want = dyn.snapshot(), _replayed(case.data, script)
        assert _rows(case.query, snap) == _rows(case.query, want)
        _assert_slices_match(snap, want)

    def test_splice_never_reaches_the_graph_constructor(self, monkeypatch):
        """An accidental fallback to the rebuild must not pass silently."""
        base = Graph(labels=[0, 1, 0, 1], edges=[(0, 1), (1, 2), (2, 3)])
        dyn = DynamicGraph(base)

        def rebuilt(*args, **kwargs):
            raise AssertionError("snapshot() fell back to Graph.__init__")

        monkeypatch.setattr(Graph, "__init__", rebuilt)
        dyn.apply([Mutation(ADD_EDGE, 0, 2), Mutation(REMOVE_EDGE, 2, 3)])
        dyn.apply([Mutation(ADD_VERTEX, 2), Mutation(ADD_EDGE, 4, 3)])
        first = dyn.snapshot()
        dyn.apply([Mutation(REMOVE_EDGE, 4, 3)])  # rebases onto first
        second = dyn.snapshot()
        monkeypatch.undo()
        assert first == Graph(
            labels=[0, 1, 0, 1, 2], edges=[(0, 1), (1, 2), (0, 2), (3, 4)]
        )
        assert second == Graph(
            labels=[0, 1, 0, 1, 2], edges=[(0, 1), (1, 2), (0, 2)]
        )
