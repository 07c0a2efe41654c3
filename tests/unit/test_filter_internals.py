"""Unit tests for the internal filtering primitives."""

from fixtures import PAPER_DATA, PAPER_QUERY

from repro.filtering._common import has_candidate_neighbor, neighbor_union
from repro.graph import Graph
from repro.ordering.cfl import _path_suffix_counts
from repro.filtering import GraphQLFilter


class TestHasCandidateNeighbor:
    def test_present(self):
        # v0's neighbors include v4.
        assert has_candidate_neighbor(PAPER_DATA, 0, [4, 9], {4, 9})

    def test_absent(self):
        # v0 is not adjacent to v10.
        assert not has_candidate_neighbor(PAPER_DATA, 0, [10], {10})

    def test_iterates_smaller_side_same_result(self):
        # Tiny candidate list (iterate candidates) vs huge one (iterate
        # neighbors) must agree.
        big = list(range(PAPER_DATA.num_vertices))
        assert has_candidate_neighbor(PAPER_DATA, 0, [1], {1})
        assert has_candidate_neighbor(PAPER_DATA, 0, big, set(big))

    def test_empty_candidates(self):
        assert not has_candidate_neighbor(PAPER_DATA, 0, [], set())


class TestNeighborExpansion:
    """Generation Rule 3.1's pool ``N(C)``: ``neighbor_union`` asked one
    label at a time with no degree bound is plain neighbor expansion."""

    @staticmethod
    def expand(parents):
        return {
            w
            for label in PAPER_DATA.label_set
            for w in neighbor_union(PAPER_DATA, parents, label, 0).tolist()
        }

    def test_union_of_neighborhoods(self):
        assert self.expand([0]) == set(PAPER_DATA.neighbors(0).tolist())

    def test_multiple_seeds(self):
        expected = set(PAPER_DATA.neighbors(10).tolist()) | set(
            PAPER_DATA.neighbors(12).tolist()
        )
        assert self.expand([10, 12]) == expected

    def test_empty(self):
        assert self.expand([]) == set()


class TestCFLPathWeights:
    def test_counts_paths_exactly(self):
        # On the paper fixture, path (u0, u1, u3) has exactly the
        # embeddings v0->{v2,v4}->C(u3): v2-v12, v4-v10, v4-v12 = 3.
        candidates = GraphQLFilter().run(PAPER_QUERY, PAPER_DATA)
        counts = _path_suffix_counts(PAPER_DATA, candidates, (0, 1, 3))
        assert counts[0] == 3.0
        # Suffix from u1: v2 contributes 1, v4 contributes 2.
        assert counts[1] == 3.0
        assert counts[3] == float(len(candidates[3]))

    def test_zero_when_disconnected(self):
        g = Graph(labels=[0, 1, 2], edges=[(0, 1), (1, 2)])
        q = Graph(labels=[0, 1, 2], edges=[(0, 1), (1, 2)])
        candidates = GraphQLFilter().run(q, g)
        counts = _path_suffix_counts(g, candidates, (0, 1, 2))
        assert counts[0] == 1.0  # single path embedding
