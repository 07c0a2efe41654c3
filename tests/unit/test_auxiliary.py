"""Unit tests for the auxiliary structure A (candidate adjacency)."""

import pytest

from fixtures import PAPER_DATA, PAPER_QUERY

from repro.errors import ConfigurationError
from repro.filtering import AuxiliaryStructure, CandidateSets, CFLFilter, GraphQLFilter
from repro.graph.ops import bfs_tree


@pytest.fixture(scope="module")
def refined():
    return GraphQLFilter().run(PAPER_QUERY, PAPER_DATA)


class TestBuildScopes:
    def test_none_scope_empty(self, refined):
        aux = AuxiliaryStructure.build(PAPER_QUERY, PAPER_DATA, refined, scope="none")
        assert aux.num_entries == 0
        assert list(aux.pairs()) == []

    def test_all_scope_covers_every_edge_both_directions(self, refined):
        aux = AuxiliaryStructure.build(PAPER_QUERY, PAPER_DATA, refined, scope="all")
        for u, v in PAPER_QUERY.edges():
            assert aux.has_pair(u, v)
            assert aux.has_pair(v, u)

    def test_tree_scope_covers_only_tree_edges(self, refined):
        tree = bfs_tree(PAPER_QUERY, 0)
        aux = AuxiliaryStructure.build(
            PAPER_QUERY, PAPER_DATA, refined, scope="tree", tree=tree
        )
        assert aux.has_pair(0, 1) and aux.has_pair(1, 0)
        assert aux.has_pair(1, 3)
        # Non-tree edge (1, 2) is not materialized.
        assert not aux.has_pair(1, 2)

    def test_tree_scope_requires_tree(self, refined):
        with pytest.raises(ConfigurationError, match="requires a BFSTree"):
            AuxiliaryStructure.build(PAPER_QUERY, PAPER_DATA, refined, scope="tree")

    def test_unknown_scope(self, refined):
        with pytest.raises(ConfigurationError, match="unknown"):
            AuxiliaryStructure.build(
                PAPER_QUERY, PAPER_DATA, refined, scope="bogus"  # type: ignore
            )


class TestLookups:
    def test_paper_example_adjacency(self):
        # A^{u1}_{u3}(v4) = {v10, v12} (end of Example 3.2).
        cand = CFLFilter().run(PAPER_QUERY, PAPER_DATA)
        aux = AuxiliaryStructure.build(PAPER_QUERY, PAPER_DATA, cand, scope="all")
        assert aux.neighbors(1, 3, 4).tolist() == [10, 12]

    def test_definition(self, refined):
        # A_{u'}^{u}(v) = N(v) ∩ C(u') for every materialized pair.
        aux = AuxiliaryStructure.build(PAPER_QUERY, PAPER_DATA, refined, scope="all")
        for (u_from, u_to) in aux.pairs():
            for v in refined[u_from]:
                expected = sorted(
                    set(PAPER_DATA.neighbors(v).tolist())
                    & set(refined[u_to])
                )
                assert aux.neighbors(u_from, u_to, v).tolist() == expected

    def test_unknown_candidate_returns_empty(self, refined):
        aux = AuxiliaryStructure.build(PAPER_QUERY, PAPER_DATA, refined, scope="all")
        assert aux.neighbors(0, 1, 999).tolist() == []

    def test_unmaterialized_pair_raises(self, refined):
        aux = AuxiliaryStructure.build(PAPER_QUERY, PAPER_DATA, refined, scope="all")
        with pytest.raises(KeyError):
            aux.neighbors(0, 3, 0)  # (u0, u3) is not a query edge.

    def test_lists_sorted(self, refined):
        aux = AuxiliaryStructure.build(PAPER_QUERY, PAPER_DATA, refined, scope="all")
        for pair in aux.pairs():
            for v in refined[pair[0]]:
                lst = aux.neighbors(pair[0], pair[1], v).tolist()
                assert lst == sorted(lst)


class TestMetrics:
    def test_memory_accounting(self, refined):
        aux = AuxiliaryStructure.build(PAPER_QUERY, PAPER_DATA, refined, scope="all")
        assert aux.memory_bytes == 8 * aux.num_entries
        assert aux.num_entries > 0

    @pytest.mark.parametrize("build", ["build_rows", "build_arrays", None])
    def test_num_entries_is_the_definition_however_pairs_are_built(
        self, refined, build
    ):
        # Candidate-edge endpoints over both directions of every query
        # edge — whichever pairs were materialized, in whichever form,
        # before or after the first read.
        definition = sum(
            len(set(PAPER_DATA.neighbors(v).tolist()) & set(refined[u2]))
            for u, u2 in list(PAPER_QUERY.edges())
            + [(b, a) for a, b in PAPER_QUERY.edges()]
            for v in refined[u]
        )
        aux = AuxiliaryStructure.build(PAPER_QUERY, PAPER_DATA, refined, scope="all")
        edges = list(PAPER_QUERY.edges())
        if build == "build_rows":  # complete row tables, and one with holes
            for pair in edges[:2]:
                aux.rows(*pair)
            aux.table(*edges[2])
        elif build == "build_arrays":
            aux.build_arrays(edges[:2])  # some pairs, one direction
        assert aux.num_entries == definition
        aux.neighbors(*edges[-1][::-1], refined[edges[-1][1]][0])  # a lazy build
        aux.rows(*edges[0][::-1])
        assert aux.num_entries == definition
        assert aux.memory_bytes == 8 * definition

    def test_num_entries_is_computed_once(self, refined, monkeypatch):
        aux = AuxiliaryStructure.build(PAPER_QUERY, PAPER_DATA, refined, scope="all")
        first = aux.num_entries
        monkeypatch.setattr(
            AuxiliaryStructure, "_scan", lambda *a, **k: pytest.fail("rescanned")
        )
        assert aux.num_entries == first
        assert aux.memory_bytes == 8 * first

    def test_repr(self, refined):
        aux = AuxiliaryStructure.build(PAPER_QUERY, PAPER_DATA, refined, scope="all")
        assert "scope='all'" in repr(aux)
