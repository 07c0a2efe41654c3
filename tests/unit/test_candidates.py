"""Unit tests for the CandidateSets container."""

import numpy as np
import pytest

from repro.filtering import CandidateSets
from repro.graph import Graph


@pytest.fixture
def query():
    return Graph(labels=[0, 1, 2], edges=[(0, 1), (1, 2)])


class TestConstruction:
    def test_sorted_and_deduplicated(self, query):
        cs = CandidateSets(query, [[3, 1, 3], [2], []])
        assert cs[0] == [1, 3]
        assert cs[1] == [2]
        assert cs[2] == []

    @pytest.mark.parametrize(
        "make",
        [
            lambda vs: np.asarray(vs, dtype=np.int64),
            lambda vs: np.asarray(vs, dtype=np.int32),
            list,
            lambda vs: (v for v in vs),
            lambda vs: [np.int64(v) for v in vs],
            set,
        ],
        ids=["int64-array", "int32-array", "list", "generator", "numpy-scalars", "set"],
    )
    def test_every_input_form_builds_the_same_container(self, query, make):
        raw = [[7, 3, 7, 1, 3], [2], []]
        want = [[1, 3, 7], [2], []]
        cs = CandidateSets(query, [make(vs) for vs in raw])
        for u, expected in enumerate(want):
            assert cs[u] == expected
            assert all(type(v) is int for v in cs[u])
            assert cs.membership(u) == frozenset(expected)
            assert all(type(v) is int for v in cs.membership(u))
            assert cs.array(u).dtype == np.int64
            assert cs.array(u).tolist() == expected

    def test_does_not_alias_the_arrays_it_was_given(self, query):
        given = np.asarray([1, 3, 7], dtype=np.int64)
        cs = CandidateSets(query, [given, [2], []])
        given[0] = 5
        assert cs[0] == [1, 3, 7]
        assert cs.array(0).tolist() == [1, 3, 7]

    def test_wrong_length_rejected(self, query):
        with pytest.raises(ValueError, match="expected 3"):
            CandidateSets(query, [[1], [2]])

    def test_len(self, query):
        assert len(CandidateSets(query, [[], [], []])) == 3


class TestAccess:
    def test_membership(self, query):
        cs = CandidateSets(query, [[1, 3], [2], [5]])
        assert cs.membership(0) == frozenset({1, 3})
        assert cs.contains(0, 3)
        assert not cs.contains(0, 2)

    def test_size(self, query):
        cs = CandidateSets(query, [[1, 3], [2], []])
        assert cs.size(0) == 2
        assert cs.size(2) == 0


class TestMetrics:
    def test_total_and_average(self, query):
        cs = CandidateSets(query, [[1, 3], [2], [4, 5, 6]])
        assert cs.total_size == 6
        assert cs.average_size == 2.0

    def test_empty_query(self):
        q = Graph(labels=[], edges=[])
        cs = CandidateSets(q, [])
        assert cs.average_size == 0.0

    def test_has_empty_set(self, query):
        assert CandidateSets(query, [[1], [], [2]]).has_empty_set
        assert not CandidateSets(query, [[1], [9], [2]]).has_empty_set

    def test_memory_bytes(self, query):
        cs = CandidateSets(query, [[1, 3], [2], []])
        assert cs.memory_bytes == 8 * 3


class TestTransforms:
    def test_as_dict(self, query):
        cs = CandidateSets(query, [[1], [2], [3]])
        assert cs.as_dict() == {0: [1], 1: [2], 2: [3]}

    def test_restricted(self, query):
        cs = CandidateSets(query, [[1, 2, 3], [4, 5], [6]])
        r = cs.restricted([[2, 3, 9], [5], []])
        assert r.as_dict() == {0: [2, 3], 1: [5], 2: []}

    def test_restricted_wrong_length(self, query):
        cs = CandidateSets(query, [[1], [2], [3]])
        with pytest.raises(ValueError):
            cs.restricted([[1]])

    def test_repr(self, query):
        assert "sizes=[1, 1, 1]" in repr(CandidateSets(query, [[1], [2], [3]]))
