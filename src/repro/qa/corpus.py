"""Replayable JSON repro files: the fuzzer's persistent corpus.

Every divergence the fuzzer finds (after shrinking) is written as one
self-contained JSON file — the graphs, the failing comparison and the
divergence class — so a bug found nightly can be replayed in a unit test,
attached to an issue, or pinned forever as a regression fixture
(``tests/corpus/``). Schema::

    {
      "schema": "repro.qa/v1",
      "kind": "<one of DIVERGENCE_KINDS>",
      "seed": 123,                     # generator seed, null if hand-made
      "detail": "human-readable note",
      "config_a": {"algorithm": "CECI", "kernel": "numpy", "mode": "oneshot"},
      "config_b": {...} | null,        # second side of the comparison
      "transform": {"name": "renumber", "seed": 5} | null,
      "query": {"labels": [...], "edges": [[u, v], ...]},
      "data":  {"labels": [...], "edges": [[u, v], ...]},
      "planted": [v0, v1, ...] | null,
      "match_limit": 7                 # optional: absent = the 20 000 default
    }

:func:`replay_repro` re-executes exactly the recorded comparison via
:func:`repro.qa.differential.divergence_reproduces`; a healthy tree
returns ``False`` (the historical divergence no longer reproduces).
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterator, List, Optional, Tuple

from repro.graph.graph import Graph

__all__ = [
    "CORPUS_SCHEMA",
    "graph_to_json",
    "graph_from_json",
    "make_record",
    "save_repro",
    "load_repro",
    "iter_corpus",
    "replay_repro",
]

CORPUS_SCHEMA = "repro.qa/v1"


def graph_to_json(graph: Graph) -> Dict:
    """Portable dict form of a graph (labels + undirected edge list)."""
    return {
        "labels": graph.labels.tolist(),
        "edges": [[int(u), int(v)] for u, v in graph.edges()],
    }


def graph_from_json(payload: Dict) -> Graph:
    """Rebuild a graph from :func:`graph_to_json` output."""
    return Graph(
        labels=list(payload["labels"]),
        edges=[(int(u), int(v)) for u, v in payload["edges"]],
    )


def make_record(
    kind: str,
    query: Graph,
    data: Graph,
    config_a: Dict,
    config_b: Optional[Dict] = None,
    transform: Optional[Dict] = None,
    seed: Optional[int] = None,
    detail: str = "",
    planted: Optional[Tuple[int, ...]] = None,
    match_limit: Optional[int] = None,
) -> Dict:
    """Assemble one corpus record (validated minimally).

    ``match_limit`` is written only when given, so records made under the
    default cap keep their bytes.
    """
    from repro.qa.differential import DIVERGENCE_KINDS

    if kind not in DIVERGENCE_KINDS:
        raise ValueError(
            f"unknown divergence kind {kind!r}; known: {DIVERGENCE_KINDS}"
        )
    record = {
        "schema": CORPUS_SCHEMA,
        "kind": kind,
        "seed": seed,
        "detail": detail,
        "config_a": config_a,
        "config_b": config_b,
        "transform": transform,
        "query": graph_to_json(query),
        "data": graph_to_json(data),
        "planted": list(planted) if planted is not None else None,
    }
    if match_limit is not None:
        record["match_limit"] = match_limit
    return record


def save_repro(path: str, record: Dict) -> str:
    """Write one repro record as pretty-printed JSON; returns ``path``."""
    if record.get("schema") != CORPUS_SCHEMA:
        raise ValueError(
            f"refusing to save record with schema {record.get('schema')!r}"
        )
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _checked(path: str, record: Dict) -> Dict:
    if record.get("schema") != CORPUS_SCHEMA:
        raise ValueError(
            f"{path}: unsupported schema {record.get('schema')!r} "
            f"(expected {CORPUS_SCHEMA})"
        )
    for key in ("kind", "config_a", "query", "data"):
        if key not in record:
            raise ValueError(f"{path}: repro record missing {key!r}")
    return record


def load_repro(path: str) -> Dict:
    """Load and schema-check one repro record."""
    return _checked(path, _read_json(path))


def iter_corpus(directory: str) -> Iterator[Tuple[str, Dict]]:
    """Yield ``(path, record)`` for every ``*.json`` repro in a directory.

    ``tests/corpus/`` also holds artefacts of other schema families (the
    engine golden table); those are skipped. A ``repro.qa/`` record of
    another *version* is a repro, and is refused loudly.
    """
    if not os.path.isdir(directory):
        return
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            path = os.path.join(directory, name)
            record = _read_json(path)
            schema = record.get("schema") if isinstance(record, dict) else None
            if isinstance(schema, str) and not schema.startswith("repro.qa/"):
                continue
            yield path, _checked(path, record)


def replay_repro(record: Dict) -> bool:
    """Re-execute a recorded divergence; True = it still reproduces.

    A fixed bug replays ``False``; corpus fixtures in the test suite
    assert exactly that, turning every past fuzz finding into a standing
    regression test.
    """
    from repro.qa.differential import divergence_reproduces

    query = graph_from_json(record["query"])
    data = graph_from_json(record["data"])
    return divergence_reproduces(record, query, data)


def corpus_summary(directory: str) -> List[Dict]:
    """One summary row per corpus file (for the CLI replay listing)."""
    rows = []
    for path, record in iter_corpus(directory):
        rows.append(
            {
                "path": path,
                "kind": record["kind"],
                "seed": record.get("seed"),
                "query_vertices": len(record["query"]["labels"]),
                "data_vertices": len(record["data"]["labels"]),
            }
        )
    return rows
