"""Unit tests for the component registry and preset tables."""

import pytest

from repro import available_algorithms, match
from repro.core.algorithms import (
    PRESETS,
    algorithm_components,
    get_algorithm,
    recommended_spec,
)
from repro.core.registry import (
    FILTERS,
    LOCAL_CANDIDATES,
    ORDERINGS,
    TREE_SOURCES,
    ComponentRegistry,
    PresetDef,
    build_spec,
    describe_preset,
    get_registered_algorithm,
    register_algorithm,
    registered_algorithms,
)
from repro.errors import ConfigurationError
from repro.filtering import GraphQLFilter, NLFFilter
from repro.graph import Graph, extract_query, rmat_graph


class TestComponentRegistry:
    def test_register_and_create(self):
        reg = ComponentRegistry("widget")
        reg.register("a", lambda: "made-a")
        assert reg.create("a") == "made-a"
        assert "a" in reg
        assert "b" not in reg
        assert reg.names() == ["a"]

    def test_unknown_name_raises_with_kind_and_choices(self):
        reg = ComponentRegistry("widget")
        reg.register("a", lambda: None)
        with pytest.raises(ConfigurationError, match="widget.*'nope'.*a"):
            reg.create("nope")

    def test_factories_give_fresh_instances(self):
        first = FILTERS.create("GQL")
        second = FILTERS.create("GQL")
        assert isinstance(first, GraphQLFilter)
        assert first is not second


class TestBuiltinRegistries:
    def test_filter_lineup(self):
        for name in ("LDF", "NLF", "GQL", "CFL", "CECI", "DP", "STEADY"):
            assert name in FILTERS, name

    def test_ordering_lineup(self):
        for name in ("QSI", "GQL", "CFL", "CECI", "DP", "RI", "2PP"):
            assert name in ORDERINGS, name

    def test_lc_lineup(self):
        for name in ("ALG2", "2PP-LC", "ALG3", "ALG4", "ALG5"):
            assert name in LOCAL_CANDIDATES, name

    def test_tree_sources(self):
        assert "CFL" in TREE_SOURCES


class TestBuildSpec:
    def test_wires_components_by_name(self):
        spec = build_spec(PRESETS["GQLfs"])
        assert spec.name == "GQLfs"
        assert spec.filter.name == "GQL"
        assert spec.ordering.name == "GQL"
        assert spec.lc.name == "ALG5"
        assert spec.aux_scope == "all"
        assert spec.failing_sets

    def test_filterless_preset(self):
        spec = build_spec(PRESETS["QSI"])
        assert spec.filter is None

    def test_tree_scope_requires_tree_source(self):
        row = PresetDef(name="broken", filter="CFL", ordering="CFL",
                        lc="ALG4", aux_scope="tree")
        with pytest.raises(ConfigurationError, match="tree_source"):
            build_spec(row)

    def test_every_builtin_preset_builds(self):
        for name, row in PRESETS.items():
            spec = build_spec(row)
            assert spec.name == name

    def test_with_failing_sets(self):
        row = PRESETS["GQL-opt"].with_failing_sets()
        assert row.failing_sets and row.name == "GQL-optfs"
        named = PRESETS["GQL-opt"].with_failing_sets("XYZ")
        assert named.name == "XYZ"


class TestDescribePreset:
    def test_breakdown_keys_and_values(self):
        parts = describe_preset(PRESETS["CFL"])
        assert parts == {
            "name": "CFL", "filter": "CFL", "ordering": "CFL", "lc": "ALG4",
            "aux": "tree", "adaptive": "-", "failing_sets": "-",
        }

    def test_filterless_shows_dash(self):
        assert describe_preset(PRESETS["RI"])["filter"] == "-"

    def test_algorithm_components_matches_table(self):
        for name in PRESETS:
            assert algorithm_components(name) == describe_preset(PRESETS[name])

    def test_algorithm_components_recommended_is_symbolic(self):
        parts = algorithm_components("recommended")
        assert parts["filter"] == "NLF"
        assert parts["ordering"] == "GQL|RI"
        assert parts["failing_sets"] == "auto"

    def test_algorithm_components_unknown_raises(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            algorithm_components("made-up")


class TestRegisterAlgorithm:
    @pytest.fixture(autouse=True)
    def _clean_user_presets(self):
        from repro.core import registry

        saved = dict(registry._USER_PRESETS)
        yield
        registry._USER_PRESETS.clear()
        registry._USER_PRESETS.update(saved)

    def test_registered_preset_resolves_and_runs(self):
        register_algorithm(PresetDef(
            name="MYALGO", filter="GQL", ordering="RI", lc="ALG5",
            aux_scope="all",
        ))
        assert "MYALGO" in available_algorithms()
        assert get_registered_algorithm("MYALGO") is not None
        assert "MYALGO" in registered_algorithms()
        spec = get_algorithm("MYALGO")
        assert spec.ordering.name == "RI"

        data = Graph(labels=[0, 1, 0, 1],
                     edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
        query = Graph(labels=[0, 1, 0], edges=[(0, 1), (1, 2)])
        assert match(query, data, algorithm="MYALGO").num_matches == 4

    def test_builtin_names_win_over_user_presets(self):
        register_algorithm(PresetDef(
            name="GQL", filter="LDF", ordering="RI", lc="ALG2",
        ))
        # The built-in table is consulted first.
        assert get_algorithm("GQL").filter.name == "GQL"

    def test_eager_validation_of_component_names(self):
        with pytest.raises(ConfigurationError, match="unknown filter"):
            register_algorithm(PresetDef(
                name="X", filter="nope", ordering="RI", lc="ALG2"))
        with pytest.raises(ConfigurationError, match="unknown ordering"):
            register_algorithm(PresetDef(
                name="X", filter=None, ordering="nope", lc="ALG2"))
        with pytest.raises(ConfigurationError, match="unknown ComputeLC"):
            register_algorithm(PresetDef(
                name="X", filter=None, ordering="RI", lc="nope"))
        with pytest.raises(ConfigurationError, match="unknown tree source"):
            register_algorithm(PresetDef(
                name="X", filter="CFL", ordering="CFL", lc="ALG4",
                aux_scope="tree", tree_source="nope"))
        assert get_registered_algorithm("X") is None


class TestPresetTable:
    def test_expected_names_present(self):
        expected = {
            "QSI", "GQL", "CFL", "CECI", "DP", "RI", "2PP",
            "QSI-opt", "GQL-opt", "CFL-opt", "CECI-opt", "DP-opt",
            "RI-opt", "2PP-opt", "QSI-opt-ldf", "2PP-opt-ldf",
            "GQLfs", "RIfs", "QSIfs", "CFLfs", "CECIfs", "DPfs", "2PPfs",
        }
        assert expected == set(PRESETS)

    def test_available_algorithms_ends_with_recommended(self):
        names = available_algorithms()
        assert names[-1] == "recommended"
        assert set(PRESETS) <= set(names)


class TestRecommended:
    """``recommended`` filters with NLF: GraphQL's local pruning without
    its refinement sweep, so its sets are NLF's and its counts GQLfs's."""

    @pytest.fixture(scope="class")
    def cases(self):
        cases = []
        for seed, degree in ((1, 4.0), (2, 8.0), (3, 12.0)):
            data = rmat_graph(200, degree, 4, seed=seed)
            # Both orderings (dense from degree 10), failing sets from 9.
            for size in (4, 6, 9):
                cases.append((extract_query(data, size, seed=seed + size), data))
        return cases

    def test_filter_yields_the_nlf_sets_which_are_graphqls_local_pruning(self, cases):
        for query, data in cases:
            got = recommended_spec(query, data).filter.run(query, data)
            nlf = NLFFilter().run(query, data)
            local = GraphQLFilter(refinement_rounds=0).run(query, data)
            for u in query.vertices():
                assert list(got[u]) == list(nlf[u]) == list(local[u])

    def test_uncapped_counts_equal_gqlfs(self, cases):
        for query, data in cases:
            ours = match(query, data, algorithm="recommended", match_limit=None)
            gqlfs = match(query, data, algorithm="GQLfs", match_limit=None)
            assert ours.solved and gqlfs.solved
            assert ours.num_matches == gqlfs.num_matches
