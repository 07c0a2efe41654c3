"""Dynamic graphs: mutation, incremental maintenance, continuous queries.

The study's pipeline assumes an immutable data graph; this package adds
the serving-side mutation story (ROADMAP item 4):

* :class:`DynamicGraph` — a mutable overlay over its last snapshot,
  with epoch-versioned snapshots spliced from the CSR store layer;
* :class:`IncrementalCandidates` — exact delta maintenance of candidate
  sets via support counters and a frontier worklist;
* :class:`Subscription` — continuous queries reporting the embedding
  delta after every mutation batch.
"""

from repro.dynamic.mutations import (
    ADD_EDGE,
    ADD_VERTEX,
    MUTATION_OPS,
    REMOVE_EDGE,
    Mutation,
    MutationScript,
    sanitize_batch,
    script_from_json,
    script_to_json,
)
from repro.dynamic.overlay import DynamicGraph, MutationDelta
from repro.dynamic.incremental import IncrementalCandidates, query_dag
from repro.dynamic.subscribe import Subscription, SubscriptionUpdate

__all__ = [
    "ADD_EDGE",
    "ADD_VERTEX",
    "MUTATION_OPS",
    "REMOVE_EDGE",
    "Mutation",
    "MutationScript",
    "sanitize_batch",
    "DynamicGraph",
    "MutationDelta",
    "IncrementalCandidates",
    "query_dag",
    "Subscription",
    "SubscriptionUpdate",
    "script_from_json",
    "script_to_json",
]
