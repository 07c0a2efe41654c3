"""Property test: the server's table of decoded queries is invisible except in time.

For any stream of ``match`` payloads — valid queries, the same query with
its edges permuted or duplicated, ``true`` standing in for label ``1``, a
float label, an out-of-range edge, a disconnected query — a server whose
table has already seen the whole stream answers each request exactly as a
server seeing it for the first time does, and the admission counters
advance identically. Only ``serve.interned_*`` may tell the two apart.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import connected_graphs

from repro.graph import erdos_renyi_graph
from repro.serve import MatchServer, MatchService
from repro.serve.protocol import graph_to_payload

SETTINGS = settings(max_examples=30, deadline=None)

DATA = erdos_renyi_graph(40, 5.0, 2, seed=12)
ANSWER_FIELDS = ("ok", "code", "num_matches", "embeddings", "algorithm", "kernel")
ADMISSION_COUNTERS = ("serve.requests", "serve.admitted", "serve.rejected_invalid")


def _permute_edges(payload, draw):
    edges = draw(st.permutations(payload["edges"]))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return [[v, u] if flip else [u, v] for (u, v), flip in zip(edges, flips)]


@st.composite
def payload_variants(draw):
    """One query payload plus wire-level variants of it."""
    base = graph_to_payload(draw(connected_graphs(max_labels=2)))
    n = len(base["labels"])
    variants = [base, {**base, "edges": _permute_edges(base, draw)}]
    variants.append({**base, "edges": base["edges"] + base["edges"][:2]})
    # bool is an int to the payload check: `true` decodes as label 1 and
    # shares label 1's table slot, which must not change any answer.
    variants.append(
        {**base, "labels": [True if x == 1 else x for x in base["labels"]]}
    )
    variants.append({**base, "labels": [float(base["labels"][0])] + base["labels"][1:]})
    variants.append({**base, "edges": base["edges"] + [[0, n]]})
    variants.append({**base, "labels": base["labels"] + [0]})  # isolated vertex
    return variants


@st.composite
def streams(draw):
    pool = [p for variants in draw(st.lists(payload_variants(), min_size=1, max_size=2))
            for p in variants]
    picks = draw(st.lists(st.sampled_from(range(len(pool))), min_size=4, max_size=12))
    return [pool[i] for i in picks]


def _ask(server, payload):
    request = {"op": "match", "graph": "g", "query": payload, "include_embeddings": True}
    answer = server._dispatch(json.dumps(request))
    return {field: answer.get(field) for field in ANSWER_FIELDS}


def _admission(service):
    counters = service.metrics.counters
    return {name: counters.get(name, 0) for name in ADMISSION_COUNTERS}


def _play(stream, warm):
    """Answers and admission-counter advance of one pass over ``stream``."""
    with MatchService(workers=1) as service:
        service.add_graph("g", DATA)
        server = MatchServer(service)
        if warm:
            for payload in stream:
                _ask(server, payload)
        before = _admission(service)
        answers = []
        for payload in stream:
            if not warm:
                server = MatchServer(service)  # an empty table per request
            answers.append(_ask(server, payload))
        after = _admission(service)
        hits = service.metrics.counters.get("serve.interned_hits", 0)
    return answers, {k: after[k] - before[k] for k in before}, hits


@given(streams())
@SETTINGS
def test_warm_table_answers_like_a_fresh_server(stream):
    warm_answers, warm_advance, warm_hits = _play(stream, warm=True)
    fresh_answers, fresh_advance, fresh_hits = _play(stream, warm=False)
    assert warm_answers == fresh_answers
    assert warm_advance == fresh_advance
    assert fresh_hits == 0
    # The comparison is not vacuous: every valid request of the timed
    # pass was answered from the table.
    assert warm_hits >= sum(a["ok"] for a in warm_answers)
