"""Unit tests for the ComputeLC methods (Algorithms 2-5)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import PAPER_DATA, PAPER_QUERY

from repro.core.plan import MatchRequest
from repro.enumeration.local_candidates import (
    CandidateScanLC,
    IntersectionLC,
    LCContext,
    NeighborScanLC,
    TreeAdjacencyLC,
    VF2ppLC,
    prepare_static_order,
    universe_sets,
)
from repro.errors import ConfigurationError, GraphFormatError
from repro.filtering import AuxiliaryStructure, GraphQLFilter
from repro.filtering.base import ldf_candidates_for, ldf_check
from repro.graph import extract_query, rmat_graph
from repro.graph.ops import bfs_tree
from repro.utils.kernels import (
    KernelBackend,
    available_kernels,
    get_kernel,
    intersect_merge,
)


@pytest.fixture(scope="module")
def candidates():
    return GraphQLFilter().run(PAPER_QUERY, PAPER_DATA)


@pytest.fixture(scope="module")
def auxiliary(candidates):
    return AuxiliaryStructure.build(PAPER_QUERY, PAPER_DATA, candidates, scope="all")


def make_ctx(candidates=None, auxiliary=None, mapping=None, kernel="scalar"):
    """The context a method computes in: the engines substitute the
    universes (``C(u)``, or LDF(u) with no filter) for the plan's sets,
    and Algorithm 5 intersects on the backend ``kernel`` names."""
    return LCContext(
        query=PAPER_QUERY,
        data=PAPER_DATA,
        candidates=universe_sets(PAPER_QUERY, PAPER_DATA, candidates),
        auxiliary=auxiliary,
        mapping=mapping if mapping is not None else [-1] * 4,
        kernel=get_kernel(kernel),
    )


class TestNeighborScan:
    def test_start_position_uses_ldf(self):
        ctx = make_ctx()
        lc = NeighborScanLC().compute(ctx, 1, [], -1)
        assert sorted(lc) == [2, 4, 6]

    def test_start_position_prefers_candidates(self, candidates):
        ctx = make_ctx(candidates=candidates)
        lc = NeighborScanLC().compute(ctx, 1, [], -1)
        assert sorted(lc) == [2, 4]

    def test_scans_parent_neighbors(self):
        # u0 -> v0 mapped; LC(u1) = B-labeled neighbors of v0 with d >= 3.
        ctx = make_ctx(mapping=[0, -1, -1, -1])
        lc = NeighborScanLC().compute(ctx, 1, [0], 0)
        assert sorted(lc) == [2, 4, 6]

    def test_checks_other_backward_edges(self):
        # u0 -> v0, u1 -> v4; LC(u2) needs adjacency to both.
        ctx = make_ctx(mapping=[0, 4, -1, -1])
        lc = NeighborScanLC().compute(ctx, 2, [0, 1], 0)
        assert sorted(lc) == [3, 5]


class TestVF2ppExtraRules:
    def test_lookahead_prunes(self):
        # u1's forward neighbors (beyond backward {u0}) are u2 (C) and
        # u3 (D): v6's C/D neighbors v9/v11 are unmapped, so v6 stays;
        # but map v12 already and v2 loses its only free D neighbor.
        ctx = make_ctx(mapping=[0, -1, -1, 12])
        lc = VF2ppLC().compute(ctx, 1, [0], 0)
        assert 2 not in lc  # v2's D-neighbor v12 is taken.
        assert 4 in lc  # v4 still has v10 free.

    def test_matches_alg2_when_no_forward_neighbors(self):
        # Last query vertex: no forward neighbors, rules are vacuous.
        ctx = make_ctx(mapping=[0, 4, 3, -1])
        base = NeighborScanLC().compute(ctx, 3, [1, 2], 1)
        extra = VF2ppLC().compute(ctx, 3, [1, 2], 1)
        assert list(base) == list(extra)


class TestCandidateScan:
    def test_scans_whole_candidate_set(self, candidates):
        ctx = make_ctx(candidates=candidates, mapping=[0, -1, -1, -1])
        lc = CandidateScanLC().compute(ctx, 1, [0], 0)
        assert sorted(lc) == [2, 4]

    def test_start_returns_candidates(self, candidates):
        ctx = make_ctx(candidates=candidates)
        assert CandidateScanLC().compute(ctx, 0, [], -1) == candidates[0]

    def test_requires_candidates(self):
        ctx = LCContext(PAPER_QUERY, PAPER_DATA, None, None, [-1] * 4)
        with pytest.raises(ConfigurationError, match="requires candidate"):
            CandidateScanLC().prepare(ctx)


class TestTreeAdjacency:
    def test_single_backward_reads_aux(self, candidates):
        tree = bfs_tree(PAPER_QUERY, 0)
        aux = AuxiliaryStructure.build(
            PAPER_QUERY, PAPER_DATA, candidates, scope="tree", tree=tree
        )
        ctx = make_ctx(candidates=candidates, auxiliary=aux, mapping=[0, -1, -1, -1])
        lc = TreeAdjacencyLC().compute(ctx, 1, [0], 0)
        assert sorted(lc) == [2, 4]

    def test_residual_backward_edges_checked(self, candidates):
        tree = bfs_tree(PAPER_QUERY, 0)
        aux = AuxiliaryStructure.build(
            PAPER_QUERY, PAPER_DATA, candidates, scope="tree", tree=tree
        )
        # u3's backward = {u1, u2}, tree parent u1 (mapped v2): base list
        # from aux is v2's D candidates {v12}; v12 must also touch M[u2].
        ctx = make_ctx(candidates=candidates, auxiliary=aux, mapping=[0, 2, 3, -1])
        lc = TreeAdjacencyLC().compute(ctx, 3, [1, 2], 1)
        assert lc == []  # v12 is not adjacent to v3.

    def test_requires_auxiliary(self, candidates):
        ctx = make_ctx(candidates=candidates)
        with pytest.raises(ConfigurationError, match="auxiliary"):
            TreeAdjacencyLC().prepare(ctx)


class TestIntersection:
    def test_single_backward_reads_aux(self, candidates, auxiliary):
        ctx = make_ctx(candidates=candidates, auxiliary=auxiliary, mapping=[0, -1, -1, -1])
        lc = IntersectionLC().compute(ctx, 1, [0], 0)
        assert sorted(lc) == [2, 4]

    def test_intersects_multiple_backward(self, candidates, auxiliary):
        # u3 backward {u1: v4, u2: v3} -> N(v4) ∩ C(u3) = {10,12},
        # N(v3) ∩ C(u3) = {10} -> LC = {10}.
        ctx = make_ctx(candidates=candidates, auxiliary=auxiliary, mapping=[0, 4, 3, -1])
        lc = IntersectionLC().compute(ctx, 3, [1, 2], 1)
        assert lc == [10]

    def test_custom_kernel(self, candidates, auxiliary):
        class MergeKernel(KernelBackend):
            def intersect(self, a, b):
                return intersect_merge(a, b)

        ctx = make_ctx(candidates=candidates, auxiliary=auxiliary, mapping=[0, 4, 3, -1])
        ctx.kernel = MergeKernel()
        assert IntersectionLC().compute(ctx, 3, [1, 2], 1) == [10]

    @pytest.mark.parametrize(
        "name", [n for n in available_kernels() if n != "auto"]
    )
    def test_every_registered_kernel_matches_scalar(self, name, candidates, auxiliary):
        # One contract for the whole registry: on every multi-backward
        # state of the paper example, element for element the scalar answer.
        for u, backward, mapping in [
            (3, [1, 2], [0, 4, 3, -1]),
            (3, [1, 2], [0, 4, 5, -1]),
            (2, [0, 1], [0, 4, -1, -1]),
        ]:
            ctx = make_ctx(candidates, auxiliary, list(mapping))
            expected = IntersectionLC().compute(ctx, u, backward, backward[0])
            ctx = make_ctx(candidates, auxiliary, list(mapping), kernel=name)
            got = IntersectionLC().compute(ctx, u, backward, backward[0])
            assert [int(v) for v in got] == [int(v) for v in expected]

    def test_rejects_a_pairwise_callable(self):
        # Algorithm 5's backend is named on the request, by registry name.
        with pytest.raises(GraphFormatError, match="registry name"):
            MatchRequest("CECI", intersect_merge)

    def test_prepare_validates_scope(self, candidates):
        none_aux = AuxiliaryStructure.build(
            PAPER_QUERY, PAPER_DATA, candidates, scope="none"
        )
        ctx = make_ctx(candidates=candidates, auxiliary=none_aux)
        with pytest.raises(ConfigurationError):
            IntersectionLC().prepare(ctx)


class TestAgreementAcrossMethods:
    def test_all_methods_agree_on_valid_states(self, candidates, auxiliary):
        """Given identical candidates, every LC method must return the same
        set at any reachable search state (Algorithms 2-5 compute the same
        LC(u, M), only at different cost)."""
        tree = bfs_tree(PAPER_QUERY, 0)
        tree_aux = AuxiliaryStructure.build(
            PAPER_QUERY, PAPER_DATA, candidates, scope="tree", tree=tree
        )
        states = [
            (1, [0], 0, [0, -1, -1, -1]),
            (2, [0, 1], 0, [0, 4, -1, -1]),
            (3, [1, 2], 1, [0, 4, 3, -1]),
            (3, [1, 2], 1, [0, 4, 5, -1]),
        ]
        for u, backward, parent, mapping in states:
            ctx_full = make_ctx(candidates, auxiliary, list(mapping))
            ctx_tree = make_ctx(candidates, tree_aux, list(mapping))
            results = {
                "alg2": list(NeighborScanLC().compute(ctx_full, u, backward, parent)),
                "alg4": list(TreeAdjacencyLC().compute(ctx_tree, u, backward, parent)),
                "alg5": list(IntersectionLC().compute(ctx_full, u, backward, parent)),
            }
            # Alg 2 scans within U(u) = C(u): the same set, in the same order.
            reference = list(CandidateScanLC().compute(ctx_full, u, backward, parent))
            for name, lc in results.items():
                assert [int(v) for v in lc] == reference, (name, u, mapping)


def ldf_scan(ctx, u, backward, parent):
    """Algorithm 2 by its LDF definition: ``N(M[u.p])`` under the label and
    degree check plus the other backward edges (LDF(u) at the root)."""
    query, data, mapping = ctx.query, ctx.data, ctx.mapping
    if parent < 0:
        return ldf_candidates_for(query, u, data).tolist()
    return [
        v
        for v in data.neighbors(mapping[parent]).tolist()
        if ldf_check(query, u, data, v)
        and all(data.has_edge(mapping[w], v) for w in backward if w != parent)
    ]


def lookahead(ctx, u, backward, base):
    """VF2++'s forward label-count rule over the unmapped data vertices."""
    query, data = ctx.query, ctx.data
    used = {v for v in ctx.mapping if v >= 0}
    needed = {}
    for w in query.neighbors(u).tolist():
        if w not in backward:
            needed[query.label(w)] = needed.get(query.label(w), 0) + 1
    kept = []
    for v in base:
        free = {}
        for x in data.neighbors(v).tolist():
            if x not in used:
                free[data.label(x)] = free.get(data.label(x), 0) + 1
        if all(free.get(label, 0) >= k for label, k in needed.items()):
            kept.append(v)
    return kept


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**16))
def test_without_a_filter_algorithm_2_is_the_ldf_scan(seed):
    """With no filter ``U(u)`` is LDF(u), so ALG2 and 2PP answer exactly
    what the label-and-degree scan (plus 2PP's lookahead) answers, in the
    same order, at every position of a static order and under any
    partial embedding of the earlier vertices."""
    rng = random.Random(seed)
    data = rmat_graph(80, 5.0, 3, seed=seed, clustering=0.3)
    query = extract_query(data, rng.randint(3, 6), seed=seed)
    order = bfs_tree(query, rng.randrange(query.num_vertices)).order
    static = prepare_static_order(query, list(order), None)
    universes = universe_sets(query, data, None)
    for depth, u in enumerate(static.order):
        backward, parent = static.backward[depth], static.parent[depth]
        mapping = [-1] * query.num_vertices
        for w in static.order[:depth]:
            pool = data.vertices_with_label(query.label(w)).tolist()
            mapping[w] = rng.choice(pool)
        ctx = LCContext(query, data, universes, None, mapping)
        expected = ldf_scan(ctx, u, backward, parent)
        assert list(NeighborScanLC().compute(ctx, u, backward, parent)) == expected
        assert list(VF2ppLC().compute(ctx, u, backward, parent)) == lookahead(
            ctx, u, backward, expected
        )
