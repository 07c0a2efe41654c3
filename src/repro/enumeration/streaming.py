"""Streaming enumeration: matches as a lazy iterator.

``match()`` materializes results; this module yields them one at a time
so a consumer can stop after any number of matches without paying for
the rest (``itertools.islice`` composes naturally). The pipeline is the
paper's recommended one (:func:`repro.core.algorithms.recommended_spec`:
GraphQL filter, all-edges auxiliary structure, Algorithm 5, the ordering
chosen by data density as in Section 6), compiled and prepared exactly
as ``match()`` prepares it.

The walk itself is the incremental face of the
:class:`~repro.enumeration.frames.FrameMachine`: ``start(...,
emit_rows=True)`` then one ``advance()`` per leaf batch, each a list of
plain-int tuples yielded here as dicts. There is no
second hand-rolled stack walker here — pausing between batches *is* the
frame machine's pause/resume contract.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.graph.graph import Graph

__all__ = ["iter_matches"]


def iter_matches(
    query: Graph,
    data: Graph,
    dense_degree: float = 10.0,
    kernel: Optional[str] = None,
) -> Iterator[Dict[int, int]]:
    """Yield matches lazily as ``{query_vertex: data_vertex}`` dicts.

    ``kernel`` selects the intersection backend by registry name (see
    :func:`repro.utils.kernels.available_kernels`); ``None`` defers to
    ``REPRO_KERNEL`` / the auto rule.

    >>> from repro.graph import Graph
    >>> from itertools import islice
    >>> data = Graph(labels=[0, 1, 0, 1], edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
    >>> q = Graph(labels=[0, 1, 0], edges=[(0, 1), (1, 2)])
    >>> first_two = list(islice(iter_matches(q, data), 2))
    >>> len(first_two)
    2
    """
    # The plan layer sits above this package; imported here, not at module
    # level, so ``repro.enumeration`` stays importable on its own.
    from repro.core.algorithms import recommended_spec
    from repro.core.plan import (
        compile_plan,
        iter_leaf_batches,
        prepare_query,
        validate_query,
    )
    from repro.obs import Metrics

    validate_query(query)
    spec = recommended_spec(query, data, dense_degree=dense_degree)
    plan = compile_plan(spec, query, data, kernel=kernel)
    prepared = prepare_query(plan, query, data, Metrics())
    n = query.num_vertices
    for batch in iter_leaf_batches(
        prepared, query, data, failing_sets=spec.failing_sets
    ):
        for row in batch:
            yield {w: row[w] for w in range(n)}
