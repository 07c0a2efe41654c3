"""Run the frame machine and its recursive reference on one prepared query.

``FrameMachine`` is the only engine ``run_plan`` constructs, so a parity
check can no longer ask a session for the other one. It prepares the
query once (filter, order, auxiliary rows — exactly what ``run_plan``
would build) and drives both classes over those same artifacts.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, Optional, Tuple

from repro.core.plan import compile_plan, prepare_query
from repro.enumeration import BacktrackingEngine, FrameMachine
from repro.obs import Metrics


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
    outcomes = []
    for engine_class in (BacktrackingEngine, FrameMachine):
        engine = engine_class(
            prepared.lc,
            use_failing_sets=plan.algorithm.failing_sets,
            adaptive=prepared.adaptive_state,
        )
        outcome = engine.run(
            query,
            data,
            prepared.candidates,
            prepared.auxiliary,
            prepared.order,
            tree_parent=tree.parent if tree is not None else None,
            **limits,
        )
        outcomes.append(
            {
                "num_matches": outcome.num_matches,
                "embeddings": outcome.embeddings,
                "solved": outcome.solved,
                **asdict(outcome.stats),
            }
        )
    return outcomes[0], outcomes[1]
