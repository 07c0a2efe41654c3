"""Unit tests for every filtering method, anchored to the paper's examples."""

import gc
import tracemalloc

import pytest

from fixtures import (
    DPISO_CANDIDATES,
    GQL_LOCAL_CANDIDATES,
    PAPER_DATA,
    PAPER_MATCHES,
    PAPER_QUERY,
    REFINED_CANDIDATES,
)

from repro.filtering import (
    CECIFilter,
    CFLFilter,
    DPisoFilter,
    GraphQLFilter,
    LDFFilter,
    NLFFilter,
    SteadyFilter,
    ldf_check,
    nlf_check,
)
from repro.dynamic import IncrementalCandidates
from repro.extensions.compression import match_compressed
from repro.filtering.graphql import (
    has_semi_perfect_matching,
    is_subsequence,
    profile,
)
from repro.filtering.roots import ceci_root, cfl_root, dpiso_root
from repro.graph import Graph

ALL_FILTERS = [
    LDFFilter(),
    NLFFilter(),
    GraphQLFilter(),
    CFLFilter(),
    CECIFilter(),
    DPisoFilter(),
    SteadyFilter(),
]


class TestBasicChecks:
    def test_ldf_check(self):
        # v4 (label B, degree 5) passes for u1 (label B, degree 3).
        assert ldf_check(PAPER_QUERY, 1, PAPER_DATA, 4)
        # v8 has label B but degree 1 < 3.
        assert not ldf_check(PAPER_QUERY, 1, PAPER_DATA, 8)
        # Wrong label.
        assert not ldf_check(PAPER_QUERY, 1, PAPER_DATA, 0)

    def test_nlf_check(self):
        # u1's neighbors: labels {A:1, C:1, D:1}; v6 has exactly those.
        assert nlf_check(PAPER_QUERY, 1, PAPER_DATA, 6)
        # v8's only neighbor is C-labeled: misses A and D.
        assert not nlf_check(PAPER_QUERY, 1, PAPER_DATA, 8)

    def test_ldf_filter_on_paper_graphs(self):
        result = LDFFilter().run(PAPER_QUERY, PAPER_DATA)
        assert result.as_dict() == {0: [0], 1: [2, 4, 6], 2: [1, 3, 5], 3: [10, 12]}

    def test_nlf_subset_of_ldf(self):
        ldf = LDFFilter().run(PAPER_QUERY, PAPER_DATA)
        nlf = NLFFilter().run(PAPER_QUERY, PAPER_DATA)
        for u in PAPER_QUERY.vertices():
            assert set(nlf[u]) <= set(ldf[u])


class TestGraphQLHelpers:
    def test_profile_example(self):
        # Paper: the profile of u1 within distance 1 is ABCD.
        assert profile(PAPER_QUERY, 1) == (0, 1, 2, 3)

    def test_profile_radius_two(self):
        g = Graph(labels=[0, 1, 2], edges=[(0, 1), (1, 2)])
        assert profile(g, 0, radius=2) == (0, 1, 2)

    def test_is_subsequence(self):
        assert is_subsequence((1, 2, 2), (1, 2, 2, 3))
        assert not is_subsequence((1, 2, 2), (1, 2, 3))
        assert is_subsequence((), (1,))
        assert not is_subsequence((1,), ())

    def test_semi_perfect_matching_exists(self):
        # Two left vertices, each reaching distinct rights.
        assert has_semi_perfect_matching(2, [[0, 1], [1]], 2)

    def test_semi_perfect_matching_absent(self):
        # Both lefts compete for one right.
        assert not has_semi_perfect_matching(2, [[0], [0]], 2)

    def test_left_larger_than_right(self):
        assert not has_semi_perfect_matching(3, [[0], [1], [0]], 2)

    def test_augmenting_path_needed(self):
        # Greedy fails, augmenting succeeds: 0->a, then 1 wants a, 0 moves to b.
        assert has_semi_perfect_matching(2, [[0, 1], [0]], 2)


class TestGraphQLFilter:
    def test_local_pruning_matches_example_31(self):
        result = GraphQLFilter(refinement_rounds=0).run(PAPER_QUERY, PAPER_DATA)
        assert result.as_dict() == GQL_LOCAL_CANDIDATES

    def test_global_refinement_removes_v1_and_v6(self):
        result = GraphQLFilter().run(PAPER_QUERY, PAPER_DATA)
        assert result.as_dict() == REFINED_CANDIDATES

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GraphQLFilter(radius=0)
        with pytest.raises(ValueError):
            GraphQLFilter(refinement_rounds=-1)

    def test_more_rounds_never_grow_sets(self):
        one = GraphQLFilter(refinement_rounds=1).run(PAPER_QUERY, PAPER_DATA)
        three = GraphQLFilter(refinement_rounds=3).run(PAPER_QUERY, PAPER_DATA)
        for u in PAPER_QUERY.vertices():
            assert set(three[u]) <= set(one[u])


class TestCFLFilter:
    def test_matches_example_32(self):
        result = CFLFilter().run(PAPER_QUERY, PAPER_DATA)
        assert result.as_dict() == REFINED_CANDIDATES

    def test_tree_rooted_at_u0(self):
        tree = CFLFilter.build_tree(PAPER_QUERY, PAPER_DATA)
        assert tree.root == 0
        assert set(tree.tree_edges) == {(0, 1), (0, 2), (1, 3)}


class TestCECIFilter:
    def test_matches_example_33(self):
        result = CECIFilter().run(PAPER_QUERY, PAPER_DATA)
        assert result.as_dict() == REFINED_CANDIDATES


class TestDPisoFilter:
    def test_stronger_than_cfl_on_example(self):
        result = DPisoFilter().run(PAPER_QUERY, PAPER_DATA)
        assert result.as_dict() == DPISO_CANDIDATES

    def test_needs_at_least_one_phase(self):
        with pytest.raises(ValueError):
            DPisoFilter(refinement_phases=0)

    def test_more_phases_never_grow_sets(self):
        one = DPisoFilter(refinement_phases=1).run(PAPER_QUERY, PAPER_DATA)
        five = DPisoFilter(refinement_phases=5).run(PAPER_QUERY, PAPER_DATA)
        for u in PAPER_QUERY.vertices():
            assert set(five[u]) <= set(one[u])


class TestSteadyFilter:
    def test_fixpoint_on_example(self):
        f = SteadyFilter()
        result = f.run(PAPER_QUERY, PAPER_DATA)
        assert result.as_dict() == DPISO_CANDIDATES
        assert f.last_iterations >= 2

    def test_steady_is_subset_of_every_filter(self):
        steady = SteadyFilter().run(PAPER_QUERY, PAPER_DATA)
        for filt in ALL_FILTERS:
            other = filt.run(PAPER_QUERY, PAPER_DATA)
            for u in PAPER_QUERY.vertices():
                assert set(steady[u]) <= set(other[u]), filt.name

    def test_iteration_cap(self):
        with pytest.raises(ValueError):
            SteadyFilter(max_iterations=0)


@pytest.mark.parametrize("filt", ALL_FILTERS, ids=lambda f: f.name)
class TestCompleteness:
    def test_all_match_images_survive(self, filt):
        """Definition 2.2: filters must keep every vertex used in a match."""
        result = filt.run(PAPER_QUERY, PAPER_DATA)
        for embedding in PAPER_MATCHES:
            for u, v in enumerate(embedding):
                assert result.contains(u, v), (filt.name, u, v)

    def test_candidates_pass_ldf(self, filt):
        result = filt.run(PAPER_QUERY, PAPER_DATA)
        for u in PAPER_QUERY.vertices():
            for v in result[u]:
                assert PAPER_DATA.label(v) == PAPER_QUERY.label(u)


class TestNoDataGraphSizedPythonWork:
    """Filters read the data graph through the array substrate only: no
    per-vertex Python pass over ``V(G)``, and nothing left cached on it
    but the neighbour-label columns the seed reads."""

    def test_graph_nlf_is_never_asked_about_a_data_vertex(self, monkeypatch):
        want = [filt.run(PAPER_QUERY, PAPER_DATA).as_dict() for filt in ALL_FILTERS]
        roots = [root(PAPER_QUERY, PAPER_DATA) for root in (cfl_root, ceci_root, dpiso_root)]
        state = IncrementalCandidates(PAPER_QUERY, PAPER_DATA)
        query_nlf = Graph.nlf

        def nlf(graph, v):
            assert graph is not PAPER_DATA, "Graph.nlf called on the data graph"
            return query_nlf(graph, v)

        monkeypatch.setattr(Graph, "nlf", nlf)
        assert [filt.run(PAPER_QUERY, PAPER_DATA).as_dict() for filt in ALL_FILTERS] == want
        assert [
            root(PAPER_QUERY, PAPER_DATA) for root in (cfl_root, ceci_root, dpiso_root)
        ] == roots
        assert match_compressed(PAPER_QUERY, PAPER_DATA).num_matches == len(PAPER_MATCHES)
        assert IncrementalCandidates(PAPER_QUERY, PAPER_DATA).equal_state(state)

    def test_a_run_leaves_nothing_on_a_large_graph(self):
        """100 000 isolated vertices of a label no query uses cost a
        filter run its scratch bitmap and, once it has returned, one int32
        column per label in the query's NLF: no per-vertex Python object,
        and nothing more after a second run."""
        padding = 100_000
        data = Graph(
            labels=PAPER_DATA.labels.tolist() + [99] * padding,
            edges=list(PAPER_DATA.edges()),
        )
        want = CFLFilter().run(PAPER_QUERY, PAPER_DATA).as_dict()
        nlf_labels = {
            label for u in PAPER_QUERY.vertices() for label in PAPER_QUERY.nlf(u)
        }
        columns = len(nlf_labels) * 4 * data.num_vertices
        tracemalloc.start()
        try:
            assert CFLFilter().run(PAPER_QUERY, data).as_dict() == want
            gc.collect()
            first, _ = tracemalloc.get_traced_memory()
            assert CFLFilter().run(PAPER_QUERY, data).as_dict() == want
            gc.collect()
            second, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Slack well under one 8-byte reference per padded vertex.
        assert first < columns + 100_000, (first, columns)
        assert second - first < 10_000, (first, second)
        assert set(data._label_counts) == nlf_labels

    def test_a_neighbour_label_the_data_graph_lacks_builds_no_column(self):
        """Query labels come from clients: one the data graph lacks prunes
        its neighbours' pools to nothing and leaves no column behind."""
        data = Graph(labels=PAPER_DATA.labels.tolist(), edges=list(PAPER_DATA.edges()))
        query = Graph(labels=[PAPER_DATA.label(0), 77], edges=[(0, 1)])
        for filt in ALL_FILTERS[1:]:  # LDF reads no neighbour labels
            assert filt.run(query, data).as_dict() == {0: [], 1: []}, filt.name
        for root in (cfl_root, ceci_root, dpiso_root):
            root(query, data)
        IncrementalCandidates(query, data)
        assert data._label_counts == {}
