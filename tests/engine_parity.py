"""Run the frame machine and its recursive reference on one prepared query.

``FrameMachine`` is the only engine ``run_plan`` constructs, so a parity
check can no longer ask a session for the other one. It prepares the
query once (filter, order, auxiliary rows — exactly what ``run_plan``
would build) and drives both classes over those same artifacts: the
machine runs the prepared query, the reference takes its fields.
:func:`bind` prepares hand-built artifacts the same way.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, Optional, Tuple

from repro.core.plan import PreparedQuery, bind_enumeration, compile_plan, prepare_query
from repro.enumeration import BacktrackingEngine, FrameMachine
from repro.obs import Metrics


def bind(lc, query, data, candidates, auxiliary, order, kernel=None) -> PreparedQuery:
    """The prepared query of a ComputeLC method over hand-built artifacts,
    wired by ``bind_enumeration`` onto ``auxiliary`` (``None``: no
    structure); Algorithm 5 intersects on the backend the registry name
    ``kernel`` resolves to (``None``: ``auto``)."""
    return bind_enumeration(
        lc,
        "none" if auxiliary is None else auxiliary.scope,
        kernel,
        query,
        data,
        candidates,
        order=order,
        auxiliary=auxiliary,
    )


def run_both(
    algorithm: str,
    query,
    data,
    kernel: Optional[str] = None,
    **limits: Any,
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """``(reference, machine)`` outcomes of ``algorithm`` on ``query``.

    Each outcome holds ``num_matches``, ``embeddings`` (in enumeration
    order), ``solved`` and the five work counters of
    :class:`~repro.enumeration.stats.EnumerationStats`. ``limits`` are
    ``match_limit`` / ``time_limit`` / ``store_limit``.
    """
    plan = compile_plan(algorithm, query, data, kernel=kernel)
    prepared = prepare_query(plan, query, data, Metrics())
    tree = prepared.tree
    fs = plan.algorithm.failing_sets
    reference = BacktrackingEngine(
        prepared.lc,
        use_failing_sets=fs,
        adaptive=prepared.adaptive_state,
        kernel=prepared.kernel,
    ).run(
        query,
        data,
        prepared.candidates,
        prepared.auxiliary,
        prepared.order,
        tree_parent=tree.parent if tree is not None else None,
        **limits,
    )
    machine = FrameMachine(prepared, use_failing_sets=fs).run(query, data, **limits)
    outcomes = [
        {
            "num_matches": outcome.num_matches,
            "embeddings": outcome.embeddings,
            "solved": outcome.solved,
            **asdict(outcome.stats),
        }
        for outcome in (reference, machine)
    ]
    return outcomes[0], outcomes[1]
