"""Every kernel backend must produce identical matching results.

The backend only changes *how* Algorithm 5 intersects candidate adjacency
lists, never *what* the intersection is — so embeddings, match counts and
solved status must be bit-identical across scalar, numpy, bitset,
qfilter and rows on any workload.
"""

import dataclasses

import pytest

from fixtures import PAPER_DATA, PAPER_QUERY

from repro.core import get_algorithm, match
from repro.enumeration import IntersectionLC
from repro.graph import extract_query, rmat_graph

KERNELS = ["scalar", "numpy", "bitset", "qfilter", "rows"]

#: Presets whose ComputeLC is Algorithm 5 (IntersectionLC) plus the
#: adaptive DP pipeline — the paths a kernel backend actually serves.
ALGORITHMS = ["CECI", "DP", "GQL-opt", "CFL-opt"]


def _embeddings(query, data, algorithm, kernel):
    result = match(
        query, data, algorithm=algorithm, kernel=kernel, match_limit=None
    )
    return result, sorted(result.embeddings)


class TestPaperFixture:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_kernels_agree(self, algorithm):
        base_result, base = _embeddings(
            PAPER_QUERY, PAPER_DATA, algorithm, "scalar"
        )
        assert base_result.num_matches == 2  # the paper's two embeddings
        for name in KERNELS[1:]:
            result, got = _embeddings(PAPER_QUERY, PAPER_DATA, algorithm, name)
            assert got == base, f"{name} differs from scalar on {algorithm}"
            assert result.num_matches == base_result.num_matches
            assert result.solved == base_result.solved

    @pytest.mark.parametrize("name", KERNELS)
    def test_kernel_recorded_on_result(self, name):
        result = match(PAPER_QUERY, PAPER_DATA, algorithm="CECI", kernel=name)
        assert result.kernel == name

    def test_auto_resolves_to_concrete_backend(self):
        result = match(PAPER_QUERY, PAPER_DATA, algorithm="CECI", kernel="auto")
        assert result.kernel in KERNELS

    def test_default_resolves_backend(self):
        result = match(PAPER_QUERY, PAPER_DATA, algorithm="CECI")
        assert result.kernel in KERNELS

    def test_spec_with_its_own_kernel_records_it(self):
        # How Figure 10 builds its series: the kernel rides in the spec,
        # no kernel= argument — the result still names what ALG5 ran on.
        spec = dataclasses.replace(
            get_algorithm("GQL-opt"), lc=IntersectionLC(kernel="qfilter")
        )
        assert match(PAPER_QUERY, PAPER_DATA, algorithm=spec).kernel == "qfilter"

    def test_non_intersection_algorithm_records_none(self):
        result = match(PAPER_QUERY, PAPER_DATA, algorithm="QSI", kernel="numpy")
        assert result.kernel is None

    def test_embeddings_are_plain_ints(self):
        result = match(PAPER_QUERY, PAPER_DATA, algorithm="CECI", kernel="numpy")
        for emb in result.embeddings:
            assert all(type(v) is int for v in emb)


class TestEdgeCaseParity:
    """All four backends on the degenerate inputs that break off-by-ones.

    ``intersect``/``multi_intersect`` must agree element-for-element on
    empty arrays, single-element arrays, and disjoint ranges — the inputs
    where galloping thresholds, word boundaries and early-exit paths are
    most likely to diverge.
    """

    CASES = [
        ("both-empty", [], []),
        ("left-empty", [], [1, 2, 3]),
        ("right-empty", [0, 5, 9], []),
        ("single-hit", [4], [4]),
        ("single-miss", [4], [5]),
        ("single-vs-many", [63], [0, 63, 64, 127, 128]),
        ("disjoint-low-high", [0, 1, 2], [100, 200, 300]),
        ("disjoint-interleaved", [0, 2, 4, 6], [1, 3, 5, 7]),
        ("identical", [1, 64, 65, 128], [1, 64, 65, 128]),
        ("word-boundary", [63, 64, 127, 128], [64, 128]),
        ("gallop-skew", [500], list(range(1000))),
    ]

    @pytest.mark.parametrize("label,a,b", CASES, ids=[c[0] for c in CASES])
    def test_intersect_agrees(self, label, a, b):
        from repro.utils.kernels import get_kernel

        expected = sorted(set(a) & set(b))
        for name in KERNELS:
            got = [int(x) for x in get_kernel(name).intersect(a, b)]
            assert got == expected, f"{name} wrong on {label}"
            # Symmetry: argument order must not matter.
            rev = [int(x) for x in get_kernel(name).intersect(b, a)]
            assert rev == expected, f"{name} asymmetric on {label}"

    MULTI_CASES = [
        ("one-list", [[3, 7, 9]]),
        ("one-empty-kills-all", [[1, 2, 3], [], [2, 3, 4]]),
        ("three-way", [[1, 2, 3, 4], [2, 3, 4, 5], [0, 3, 4]]),
        ("disjoint-pair", [[0, 2], [1, 3], [0, 1, 2, 3]]),
    ]

    @pytest.mark.parametrize(
        "label,lists", MULTI_CASES, ids=[c[0] for c in MULTI_CASES]
    )
    def test_multi_intersect_agrees(self, label, lists):
        from repro.utils.kernels import get_kernel

        common = set(lists[0])
        for other in lists[1:]:
            common &= set(other)
        expected = sorted(common)
        for name in KERNELS:
            got = [int(x) for x in get_kernel(name).multi_intersect(lists)]
            assert got == expected, f"{name} wrong on {label}"

    def test_multi_intersect_empty_input_rejected_everywhere(self):
        # The zero-list intersection is the universe — unrepresentable —
        # so every backend must refuse it the same way.
        from repro.utils.kernels import get_kernel

        for name in KERNELS:
            with pytest.raises(ValueError, match="at least one list"):
                get_kernel(name).multi_intersect([])


class TestGeneratedWorkload:
    @pytest.fixture(scope="class")
    def workload(self):
        data = rmat_graph(300, 6.0, 4, seed=3)
        queries = [
            extract_query(data, 5, seed=seed) for seed in (1, 2, 3)
        ]
        return data, queries

    @pytest.mark.parametrize("algorithm", ["CECI", "DP"])
    def test_kernels_agree(self, workload, algorithm):
        data, queries = workload
        for query in queries:
            _, base = _embeddings(query, data, algorithm, "scalar")
            for name in KERNELS[1:]:
                _, got = _embeddings(query, data, algorithm, name)
                assert got == base, f"{name} differs from scalar"

    def test_recommended_parity(self, workload):
        data, queries = workload
        for query in queries:
            _, base = _embeddings(query, data, "recommended", "scalar")
            _, got = _embeddings(query, data, "recommended", "numpy")
            assert got == base
