"""Property tests for the extensions: NEC compression and containment."""

from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import connected_graphs, graphs, query_data_pairs

from repro.applications import containment_search
from repro.baselines import brute_force_matches
from repro.core import verify_embedding
from repro.extensions import (
    compress_query,
    match_compressed,
    neighborhood_equivalence_classes,
)
from repro.graph import Graph

SETTINGS = settings(max_examples=40, deadline=None)


@given(connected_graphs())
@SETTINGS
def test_classes_partition_vertices(query):
    classes = neighborhood_equivalence_classes(query)
    flattened = sorted(u for members in classes for u in members)
    assert flattened == list(query.vertices())


@given(connected_graphs())
@SETTINGS
def test_class_members_are_twins(query):
    for members in neighborhood_equivalence_classes(query):
        rep = members[0]
        for u in members[1:]:
            assert query.label(u) == query.label(rep)
            if query.has_edge(u, rep):
                assert query.neighbor_set(u) | {u} == query.neighbor_set(
                    rep
                ) | {rep}
            else:
                assert query.neighbor_set(u) == query.neighbor_set(rep)


@given(connected_graphs())
@SETTINGS
def test_expansion_factor_consistent(query):
    c = compress_query(query)
    assert c.compression_ratio >= 1.0
    assert c.expansion_factor >= 1
    if all(len(members) == 1 for members in c.classes):
        assert c.expansion_factor == 1


@st.composite
def shaped_pairs(draw):
    """A (query, data) pair whose query compresses: a star, a same-label
    clique, or a path with one inner vertex doubled (the copy shares its
    neighbours, so the two are false twins)."""
    shape = draw(st.sampled_from(["star", "clique", "twin path"]))
    size = draw(st.integers(3, 5))
    label = draw(st.integers(0, 1))
    if shape == "star":
        labels = [draw(st.integers(0, 1))] + [label] * (size - 1)
        edges = [(0, i) for i in range(1, size)]
    elif shape == "clique":
        labels = [label] * size
        edges = [(a, b) for a in range(size) for b in range(a + 1, size)]
    else:
        labels = draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
        edges = [(i, i + 1) for i in range(size - 1)]
        inner = draw(st.integers(1, size - 2))
        labels.append(labels[inner])
        edges += [(inner - 1, size), (inner + 1, size)]
    data = draw(
        graphs(min_vertices=1, max_vertices=10, max_labels=2, edge_probability=0.6)
    )
    return Graph(labels=labels, edges=edges), data


@given(
    st.one_of(query_data_pairs(), shaped_pairs()),
    st.sampled_from([None, 1, 5, 50]),
    st.sampled_from(["none", "below", "above"]),
)
@settings(max_examples=120, deadline=None)
def test_compressed_matching_agrees_with_oracle(pair, match_limit, stored):
    query, data = pair
    oracle = set(brute_force_matches(query, data))
    store_limit = {"none": 0, "below": len(oracle) // 2, "above": len(oracle) + 10}[
        stored
    ]
    result = match_compressed(
        query, data, match_limit=match_limit, store_limit=store_limit
    )
    # The cap stops at the first multiple of the expansion factor at or
    # past it.
    expansion = compress_query(query).expansion_factor
    reached = len(oracle)
    if match_limit is not None:
        reached = min(reached, expansion * -(-match_limit // expansion))
    assert result.num_matches == reached
    assert len(set(result.embeddings)) == len(result.embeddings)
    assert len(result.embeddings) == min(store_limit, reached)
    assert set(result.embeddings) <= oracle
    for embedding in result.embeddings:
        assert verify_embedding(query, data, embedding)


@given(query_data_pairs())
@SETTINGS
def test_containment_agrees_with_oracle(pair):
    query, data = pair
    result = containment_search(query, [data])
    expected = [0] if brute_force_matches(query, data) else []
    assert result.containing == expected
