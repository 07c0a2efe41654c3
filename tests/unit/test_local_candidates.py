"""Unit tests for the ComputeLC methods (Algorithms 2-5)."""

import pytest

from fixtures import PAPER_DATA, PAPER_QUERY

from repro.enumeration.local_candidates import (
    CandidateScanLC,
    IntersectionLC,
    LCContext,
    NeighborScanLC,
    TreeAdjacencyLC,
    VF2ppLC,
)
from repro.errors import ConfigurationError
from repro.filtering import AuxiliaryStructure, GraphQLFilter
from repro.graph.ops import bfs_tree
from repro.utils.kernels import KernelBackend, available_kernels, intersect_merge


@pytest.fixture(scope="module")
def candidates():
    return GraphQLFilter().run(PAPER_QUERY, PAPER_DATA)


@pytest.fixture(scope="module")
def auxiliary(candidates):
    return AuxiliaryStructure.build(PAPER_QUERY, PAPER_DATA, candidates, scope="all")


def make_ctx(candidates=None, auxiliary=None, mapping=None):
    mapping = mapping if mapping is not None else [-1] * 4
    used = {v: u for u, v in enumerate(mapping) if v != -1}
    return LCContext(
        query=PAPER_QUERY,
        data=PAPER_DATA,
        candidates=candidates,
        auxiliary=auxiliary,
        mapping=mapping,
        used=used,
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
        ctx = make_ctx()
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

        lc_method = IntersectionLC(kernel=MergeKernel())
        ctx = make_ctx(candidates=candidates, auxiliary=auxiliary, mapping=[0, 4, 3, -1])
        assert lc_method.compute(ctx, 3, [1, 2], 1) == [10]

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
            expected = IntersectionLC(kernel="scalar").compute(ctx, u, backward, backward[0])
            got = IntersectionLC(kernel=name).compute(ctx, u, backward, backward[0])
            assert [int(v) for v in got] == [int(v) for v in expected]

    def test_rejects_a_pairwise_callable(self):
        with pytest.raises(ConfigurationError, match="registry name"):
            IntersectionLC(kernel=intersect_merge)

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
                "alg3": sorted(CandidateScanLC().compute(ctx_full, u, backward, parent)),
                "alg4": sorted(TreeAdjacencyLC().compute(ctx_tree, u, backward, parent)),
                "alg5": sorted(IntersectionLC().compute(ctx_full, u, backward, parent)),
            }
            # Alg 2 works from LDF, a superset of GQL candidates.
            alg2 = set(NeighborScanLC().compute(ctx_full, u, backward, parent))
            reference = results["alg3"]
            assert results["alg4"] == reference, (u, mapping)
            assert results["alg5"] == reference, (u, mapping)
            assert set(reference) <= alg2, (u, mapping)
