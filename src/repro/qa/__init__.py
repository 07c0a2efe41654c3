"""Differential QA harness: planted-ground-truth fuzzing.

The paper's central claim is that eight algorithms decomposed into one
framework produce *identical* match sets; Zeng et al.'s "Deep Analysis on
Subgraph Isomorphism" shows independent implementations routinely disagree
on counts. This package is the standing oracle that hunts for such
disagreements before users do:

* :mod:`~repro.qa.generator` — planted-embedding workloads: a known query
  is embedded into a random RMAT/ER background, so at least one match is
  ground truth by construction, plus metamorphic transforms (label
  permutation, vertex renumbering, edge-order shuffling) whose results
  must be invariant, and mutation scripts with their plain edge-set
  replay (``replay_script``), the one oracle of every dynamic snapshot;
* :mod:`~repro.qa.differential` — runs each case across every registry
  preset, every kernel backend, :class:`~repro.core.session.MatchSession`
  vs one-shot ``match()`` and the :mod:`repro.baselines` oracles,
  normalizes embeddings and reports any count/set divergence;
* :mod:`~repro.qa.shrink` — minimizes a failing (data, query) pair by
  vertex/edge deletion while the divergence reproduces;
* :mod:`~repro.qa.corpus` — replayable JSON repro files (save / load /
  replay, schema ``repro.qa/v1``);
* :mod:`~repro.qa.fuzz` — the seeded, time-boxed fuzz loop behind the
  ``repro fuzz`` CLI subcommand.
"""

from repro.qa.corpus import (
    CORPUS_SCHEMA,
    graph_from_json,
    graph_to_json,
    iter_corpus,
    load_repro,
    replay_repro,
    save_repro,
)
from repro.qa.differential import (
    DIVERGENCE_KINDS,
    MUTATION_KINDS,
    Config,
    Divergence,
    divergence_reproduces,
    normalize_embeddings,
    run_case,
    run_config,
    run_mutation_config,
)
from repro.qa.fuzz import FuzzReport, replay_corpus, run_fuzz
from repro.qa.generator import (
    PlantedCase,
    TRANSFORMS,
    apply_transform,
    permute_label_alphabet,
    plant_case,
    plant_mutation_script,
    renumber_vertices,
    replay_script,
    shuffle_edges,
)
from repro.qa.shrink import shrink_case

__all__ = [
    "PlantedCase",
    "plant_case",
    "plant_mutation_script",
    "replay_script",
    "TRANSFORMS",
    "apply_transform",
    "renumber_vertices",
    "permute_label_alphabet",
    "shuffle_edges",
    "Config",
    "Divergence",
    "DIVERGENCE_KINDS",
    "MUTATION_KINDS",
    "run_case",
    "run_config",
    "run_mutation_config",
    "normalize_embeddings",
    "divergence_reproduces",
    "shrink_case",
    "CORPUS_SCHEMA",
    "graph_to_json",
    "graph_from_json",
    "save_repro",
    "load_repro",
    "iter_corpus",
    "replay_repro",
    "run_fuzz",
    "replay_corpus",
    "FuzzReport",
]
