"""Output check that does not trust the path under test.

Every returned embedding is verified by a few lines of set arithmetic
against a shadow edge set kept here (advanced by the mutation script, so
an embedding is judged at the epoch its response reports). Match counts
are compared with an untimed in-process ``repro.match`` under a fixed
reference preset whose filter and ordering differ from the served
``recommended`` preset, on a ``Graph`` built from the shadow. Counts on a
static graph are facts about the inputs, so they are kept beside them in
``.cache/`` and computed once per checkout.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from workloads import Inputs

from repro import Graph, match

#: CFL's filter and ordering; the server's ``recommended`` uses GraphQL's.
REFERENCE_PRESET = "CFLfs"
#: ``mutate_match`` re-counts on a from-scratch graph every this many cycles.
RECOUNT_EVERY = 10

Edge = Tuple[int, int]


def embedding_error(
    embedding: Any, query: Dict[str, Any], labels: Sequence[int], edges: Set[Edge]
) -> Optional[str]:
    """Why ``embedding`` is not a match of ``query``, or ``None`` if it is."""
    q_labels = query["labels"]
    if not isinstance(embedding, list) or len(embedding) != len(q_labels):
        return "wrong length"
    if len(set(embedding)) != len(embedding):
        return "not injective"
    for u, v in enumerate(embedding):
        if not isinstance(v, int) or not 0 <= v < len(labels) or labels[v] != q_labels[u]:
            return f"label mismatch at query vertex {u}"
    for a, b in query["edges"]:
        x, y = embedding[a], embedding[b]
        if ((x, y) if x < y else (y, x)) not in edges:
            return f"query edge ({a}, {b}) has no data edge"
    return None


class Checker:
    """Replays one run's (request, reply) pairs in order and judges each."""

    def __init__(self, inputs: Inputs) -> None:
        graph = inputs.graph()
        self.workload = inputs.workload
        self.labels: List[int] = [int(x) for x in graph.labels]
        self.edges: Set[Edge] = {(int(u), int(v)) for u, v in graph.edges()}
        self.epoch = 0
        self.cycle = 0
        self._static_graph: Optional[Graph] = None if self.workload.dynamic else graph
        self._counts_path = inputs.graph_path.with_suffix(f".{REFERENCE_PRESET}.counts.json")
        self._counts: Dict[str, int] = {}
        if self._static_graph is not None and self._counts_path.exists():
            self._counts = json.loads(self._counts_path.read_text(encoding="utf-8"))
        self._known = len(self._counts)
        self.errors: List[str] = []

    def save(self) -> None:
        """Keep the static reference counts for the next run in this checkout."""
        if len(self._counts) > self._known:
            tmp = self._counts_path.with_name(f"{self._counts_path.name}.{os.getpid()}.tmp")
            tmp.write_text(json.dumps(self._counts), encoding="utf-8")
            os.replace(tmp, self._counts_path)

    def _reference_count(self, request: Dict[str, Any]) -> int:
        key = json.dumps([request["query"], request["match_limit"]])
        if key in self._counts:
            return self._counts[key]
        data = self._static_graph or Graph(labels=self.labels, edges=sorted(self.edges))
        query = Graph(labels=request["query"]["labels"], edges=request["query"]["edges"])
        count = match(
            query, data, algorithm=REFERENCE_PRESET,
            match_limit=request["match_limit"], store_limit=0,
        ).num_matches
        if self._static_graph is not None:
            self._counts[key] = count
        return count

    def _judge_mutate(self, request: Dict[str, Any], reply: Dict[str, Any]) -> Optional[str]:
        adds = [m for m in request["mutations"] if m[0] == "add_edge"]
        removes = [m for m in request["mutations"] if m[0] == "remove_edge"]
        # The batch was acknowledged or not; either way the shadow follows
        # the script so later embeddings are judged against what was sent.
        for _, u, v in adds:
            self.edges.add((u, v) if u < v else (v, u))
        for _, u, v in removes:
            self.edges.discard((u, v) if u < v else (v, u))
        self.epoch += 1
        self.cycle += 1
        if not reply.get("ok"):
            return f"mutate failed: {reply.get('code')}"
        if (reply.get("added_edges"), reply.get("removed_edges")) != (len(adds), len(removes)):
            return "mutate was not fully effective"
        if reply.get("epoch") != self.epoch:
            return f"mutate epoch {reply.get('epoch')} != {self.epoch}"
        return None

    def _judge_match(self, request: Dict[str, Any], reply: Dict[str, Any]) -> Optional[str]:
        if not (reply.get("ok") and reply.get("status") == "ok" and reply.get("solved")):
            return f"match failed: {reply.get('code') or reply.get('status')}"
        if self.workload.dynamic and reply.get("epoch") != self.epoch:
            return f"match epoch {reply.get('epoch')} != acknowledged {self.epoch}"
        count = reply.get("num_matches")
        if not isinstance(count, int) or not 0 <= count <= request["match_limit"]:
            return f"bad num_matches {count!r}"
        if request["include_embeddings"]:
            embeddings = reply.get("embeddings")
            if not isinstance(embeddings, list) or len(embeddings) != min(
                count, request["store_limit"]
            ):
                return "wrong number of embeddings"
            for embedding in embeddings:
                why = embedding_error(embedding, request["query"], self.labels, self.edges)
                if why:
                    return f"bad embedding: {why}"
            if len({tuple(e) for e in embeddings}) != len(embeddings):
                return "duplicate embeddings"
        if not self.workload.dynamic or self.cycle % RECOUNT_EVERY == 0:
            expected = self._reference_count(request)
            if count != expected:
                return f"num_matches {count} != reference {expected}"
        return None

    def judge(self, line: bytes, reply: Optional[bytes]) -> bool:
        """True when ``reply`` is a correct answer to request ``line``."""
        request = json.loads(line)
        try:
            answer = json.loads(reply) if reply is not None else None
        except ValueError:
            answer = None
        if not isinstance(answer, dict):
            answer = {"ok": False, "code": "no reply" if reply is None else "unparseable reply"}
        if request["op"] == "mutate":
            why = self._judge_mutate(request, answer)
        else:
            why = self._judge_match(request, answer)
        if why is None and answer.get("id") != request["id"]:
            why = f"reply id {answer.get('id')} != request id {request['id']}"
        if why:
            self.errors.append(f"request {request['id']}: {why}")
        return why is None
