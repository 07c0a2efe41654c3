"""Lazy row tables equal the candidate-space definition.

A prepared Algorithm 5 query binds, per backward pair ``(w → u)`` of its
matching order, a row table of ``|C(w)|`` holes; the frame machine fills
a hole the first time it reads it. Whatever a capped run filled, and
whatever it left, row ``i`` must be the definition
``RowsKernel.encode(C(u), N(C(w)[i]) ∩ C(u))`` — computed here from the
graph with numpy, independently of the builder.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.plan import compile_plan, prepare_query, run_plan
from repro.errors import InvalidQueryError
from repro.graph import extract_query, rmat_graph
from repro.obs import Metrics
from repro.utils.kernels import RowsKernel

#: Static-order Algorithm 5 presets, with and without failing sets.
STATIC_ALG5 = ["GQL-opt", "GQLfs", "CECI", "CFL-opt", "RIfs", "QSI-opt"]


def _definition(data, candidates, w, u, i):
    target = candidates.array(u)
    adjacent = np.intersect1d(data.neighbors(candidates[w][i]), target)
    return RowsKernel.encode(target, adjacent)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    seed=st.integers(0, 2**16),
    num_vertices=st.integers(30, 160),
    num_labels=st.integers(1, 3),
    size=st.integers(3, 7),
    algorithm=st.sampled_from(STATIC_ALG5),
    kernel=st.sampled_from(["rows", None]),  # None: auto, which picks rows
    limit=st.integers(1, 40),
)
def test_filled_slots_and_completed_tables_equal_the_definition(
    seed, num_vertices, num_labels, size, algorithm, kernel, limit
):
    data = rmat_graph(num_vertices, 6.0, num_labels, seed=seed, clustering=0.2)
    try:
        query = extract_query(data, size, seed=seed)
    except InvalidQueryError:
        return  # no connected walk that large
    plan = compile_plan(algorithm, query, data, kernel=kernel)
    prepared = prepare_query(plan, query, data, Metrics())
    assert prepared.kernel_used == "rows"
    candidates, aux, static = prepared.candidates, prepared.auxiliary, prepared.static
    tables = [
        (w, u, table)
        for u, bound in zip(static.order, static.rows)
        for w, table in bound
    ]
    # Every query edge is bound once, in its backward direction, as holes.
    position = {u: d for d, u in enumerate(static.order)}
    assert sorted((w, u) for w, u, _ in tables) == sorted(
        (a, b) if position[a] < position[b] else (b, a) for a, b in query.edges()
    )
    assert all(set(table) <= {None} for _, _, table in tables)

    run_plan(plan, query, data, prepared=prepared, match_limit=limit)
    for w, u, table in tables:
        assert table is aux.table(w, u)
        for i, row in enumerate(table):
            if row is not None:
                assert row == _definition(data, candidates, w, u, i), (w, u, i)
    for w, u, table in tables:
        assert aux.rows(w, u) is table  # filled in place, no second table
        assert table == [
            _definition(data, candidates, w, u, i) for i in range(len(table))
        ]
