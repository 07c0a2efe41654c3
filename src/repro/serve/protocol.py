"""JSON-lines wire protocol for the matching service.

One request per line, one response per line, UTF-8 JSON. The protocol is
deliberately transport-dumb — framing is ``\\n``, no versioned envelope,
no streaming — because the serving tier's interesting machinery
(admission, coalescing, deadlines) lives in
:class:`~repro.serve.service.MatchService`; the wire is just a way to
reach it from outside the process.

Request shape::

    {"op": "match", "id": 1, "graph": "social", "tenant": "alice",
     "query": {"labels": [0, 1, 0], "edges": [[0, 1], [1, 2]]},
     "algorithm": "GQL", "budget_ms": 500, "match_limit": 1000,
     "include_embeddings": false}

Ops: ``match``, ``add_graph`` (inline graph payload), ``mutate``,
``graphs``, ``stats``, ``ping``. Responses always carry ``ok`` (bool) and
echo ``id`` when the request had one; failures carry ``error`` (message)
and ``code`` (the :mod:`repro.errors` class name, e.g.
``"QueueFullError"``).

Decoding a graph payload is two steps: :func:`check_graph_payload` (the
type checks, run on every arrival) and building the :class:`Graph`
(:func:`graph_from_payload` does both). The server runs the first on
every ``match`` and the second once per distinct query — the checked
``(labels, pairs)`` is the key of its table of already-validated query
graphs (see :class:`~repro.serve.server.MatchServer`).

This module is transport-independent: it only maps dicts/lines to and
from domain objects, so the server and any test client share one
implementation.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import GraphFormatError
from repro.graph.graph import Graph
from repro.serve.service import ServeResponse

__all__ = [
    "graph_to_payload",
    "check_graph_payload",
    "graph_from_payload",
    "parse_request",
    "encode_response",
    "error_response",
    "match_response",
]


def graph_to_payload(graph: Graph) -> Dict[str, Any]:
    """A JSON-safe dict for ``graph``: vertex labels plus an edge list."""
    return {
        "labels": [int(graph.label(v)) for v in range(graph.num_vertices)],
        "edges": [[int(u), int(v)] for u, v in graph.edges()],
    }


def check_graph_payload(payload: Any) -> Tuple[List[int], List[Tuple[int, int]]]:
    """Type-check a graph payload; returns its ``(labels, pairs)``.

    Raises :class:`~repro.errors.GraphFormatError` on malformed input so
    wire errors surface as framework errors, not ``KeyError`` noise.
    What comes back holds only ``int`` values, which is what makes
    ``(tuple(labels), tuple(pairs))`` a sound lookup key: ``1.0`` hashes
    equal to ``1`` but never gets this far.
    """
    if not isinstance(payload, dict):
        raise GraphFormatError("graph payload must be an object")
    labels = payload.get("labels")
    edges = payload.get("edges")
    if not isinstance(labels, list) or not all(
        isinstance(x, int) for x in labels
    ):
        raise GraphFormatError("graph payload needs integer 'labels' list")
    if not isinstance(edges, list):
        raise GraphFormatError("graph payload needs 'edges' list")
    pairs = []
    for e in edges:
        if (
            not isinstance(e, (list, tuple))
            or len(e) != 2
            or not all(isinstance(x, int) for x in e)
        ):
            raise GraphFormatError(f"bad edge {e!r}: expected [u, v]")
        pairs.append((e[0], e[1]))
    return labels, pairs


def graph_from_payload(payload: Any) -> Graph:
    """Rebuild a fresh :class:`Graph` from :func:`graph_to_payload` output.

    Raises :class:`~repro.errors.GraphFormatError` on malformed input
    (see :func:`check_graph_payload`).
    """
    labels, pairs = check_graph_payload(payload)
    return Graph(labels=labels, edges=pairs)


def parse_request(line: str) -> Dict[str, Any]:
    """Decode one request line into a dict with a validated ``op``."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"request is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise GraphFormatError("request must be a JSON object")
    op = payload.get("op")
    if op not in {"match", "add_graph", "mutate", "graphs", "stats", "ping"}:
        raise GraphFormatError(f"unknown op {op!r}")
    return payload


def encode_response(payload: Dict[str, Any]) -> bytes:
    """One response line, newline-terminated UTF-8."""
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


def error_response(
    exc: BaseException, request_id: Optional[Any] = None
) -> Dict[str, Any]:
    """The failure payload: message plus the exception class as ``code``."""
    payload: Dict[str, Any] = {
        "ok": False,
        "error": str(exc) or type(exc).__name__,
        "code": type(exc).__name__,
    }
    if request_id is not None:
        payload["id"] = request_id
    return payload


def match_response(
    response: ServeResponse,
    request_id: Optional[Any] = None,
    include_embeddings: bool = False,
) -> Dict[str, Any]:
    """The success payload for a served match request."""
    payload: Dict[str, Any] = {
        "ok": True,
        "status": response.status,
        "graph": response.graph,
        "tenant": response.tenant,
        "coalesced": response.coalesced,
        "queue_ms": round(response.queue_seconds * 1000.0, 3),
        "total_ms": round(response.total_seconds * 1000.0, 3),
    }
    if response.epoch is not None:
        # Dynamic graphs only: the epoch whose snapshot the embeddings
        # are valid against (see ServeResponse.epoch).
        payload["epoch"] = response.epoch
    if request_id is not None:
        payload["id"] = request_id
    result = response.result
    if result is not None:
        payload["num_matches"] = result.num_matches
        payload["solved"] = result.solved
        payload["algorithm"] = result.algorithm
        payload["kernel"] = result.kernel
        if include_embeddings:
            payload["embeddings"] = [
                list(embedding) for embedding in result.embeddings
            ]
    return payload
