"""Streaming enumeration: matches as a lazy iterator.

``match()`` materializes results; this module yields them one at a time
so a consumer can stop after any number of matches without paying for
the rest (``itertools.islice`` composes naturally). The pipeline is the
paper's recommended one (:func:`repro.core.algorithms.recommended_spec`:
NLF filter, all-edges auxiliary structure, Algorithm 5, the ordering
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

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from repro.enumeration.frames import FrameMachine
from repro.graph.graph import Graph

if TYPE_CHECKING:  # the plan layer sits above this package
    from repro.core.plan import PreparedQuery

__all__ = ["iter_leaf_batches", "iter_matches"]


def iter_leaf_batches(
    prepared: "PreparedQuery",
    query: Graph,
    data: Graph,
    failing_sets: bool = False,
) -> Iterator[List[Tuple[int, ...]]]:
    """Lazily enumerate a prepared static-order query, one leaf batch (a
    list of plain-int tuples, one per match, indexed by query vertex) at a
    time — the frame machine's pause/resume protocol as a generator; a
    consumer that wants fewer matches stops drawing batches."""
    machine = FrameMachine(prepared, use_failing_sets=failing_sets)
    machine.start(query, data, store_limit=0, emit_rows=True)
    while True:
        rows = machine.advance()
        if rows is None:
            return
        yield rows


def iter_matches(
    query: Graph,
    data: Graph,
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
    from repro.core.plan import compile_plan, prepare_query, validate_query
    from repro.obs import Metrics

    validate_query(query)
    spec = recommended_spec(query, data)
    plan = compile_plan(spec, query, data, kernel=kernel)
    prepared = prepare_query(plan, query, data, Metrics())
    n = query.num_vertices
    for batch in iter_leaf_batches(
        prepared, query, data, failing_sets=spec.failing_sets
    ):
        for row in batch:
            yield {w: row[w] for w in range(n)}
