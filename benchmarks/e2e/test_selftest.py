"""Self-test of the benchmark itself, on ``--scale smoke`` inputs.

    python3 -m pytest benchmarks/e2e -q

Outside tier-1's ``testpaths`` on purpose: it starts real servers.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from check import Checker  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SEED = 1


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """Every workload in both modes, once; ``(results, span files)``."""
    out = tmp_path_factory.mktemp("e2e")
    found, spans = {}, {}
    for name in WORKLOADS:
        spans[name] = out / f"{name}.spans.jsonl"
        found[name, 0] = run.run(name, SEED, 1.0, 0, scale="smoke")
        found[name, 1] = run.run(name, SEED, 1.0, 1, spans[name], scale="smoke")
    return found, spans


def test_every_declared_metric_is_reported_finite_and_nothing_failed(results):
    found, _ = results
    for (name, trace), result in found.items():
        declared = run.SPEC["per_layer" if trace else "end_to_end"]
        assert list(result["metrics"]) == [m["name"] for m in declared]
        for metric, cell in result["metrics"].items():
            assert math.isfinite(cell["value"]), (name, metric)
            assert trace or cell["value"] > 0, (name, metric)
        assert result["correct"] and result["attempted"] > 0 and result["failed"] == 0, (
            name, trace, result["errors"][:3],
        )


def test_spans_nest_share_a_request_id_and_agree_with_reported_durations(results):
    found, span_files = results
    for name, path in span_files.items():
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        by_id = {row["id"]: row for row in rows}
        assert len(by_id) == len(rows) > 0
        for row in rows:
            assert row["end"] >= row["start"]
            if row["parent"] is None:
                assert row["name"] == "request"
                continue
            parent = by_id[row["parent"]]
            assert parent["request"] == row["request"]
            if row["source"] == "measured":
                assert parent["start"] <= row["start"] and row["end"] <= parent["end"]
        assert found[name, 1]["metrics"]["trace.inconsistent_spans"]["value"] == 0


def test_reported_children_longer_than_their_parent_are_counted():
    spans = layers.Spans()
    spans.request = 0
    parent = spans.open("service.match")
    spans.close(parent)
    spans.reported("session.match", parent, parent["start"], (parent["end"] - parent["start"]) * 2)
    assert layers.inconsistent_requests(spans.rows) == 1


def test_design_intent_of_the_cached_workloads(results):
    found, _ = results
    for name in ("enum_dense", "hot_small"):
        metrics = found[name, 1]["metrics"]
        assert metrics["session.prep_hit_share"]["value"] == 1.0
        assert metrics["filtering.request_share"]["value"] == 0.0
    assert found["mutate_match", 1]["metrics"]["session.prep_hit_share"]["value"] == 0.0
    assert found["mutate_match", 1]["metrics"]["dynamic.snapshot_ms_p50"]["value"] > 0


@pytest.fixture(scope="module")
def exchange():
    """Inputs plus genuine (line, reply) pairs of ``hot_small`` and ``mutate_match``."""
    pairs = {}
    for name in ("hot_small", "mutate_match"):
        inputs = generate(name, SEED, "smoke")
        server, _ = harness.start(inputs, harness.add_graph_line(inputs))
        with server:
            records, _ = harness.drive(server, inputs.stream, max_ops=6)
        pairs[name] = (inputs, [(inputs.stream[i], reply) for i, _, reply in records])
    return pairs


def _verdicts(inputs, pairs):
    checker = Checker(inputs)
    return [checker.judge(line, reply) for line, reply in pairs]


def _doctored(reply: bytes, **fields) -> bytes:
    return json.dumps({**json.loads(reply), **fields}).encode() + b"\n"


def test_genuine_replies_pass_the_check(exchange):
    for inputs, pairs in exchange.values():
        assert all(_verdicts(inputs, pairs))


def test_a_wrong_count_fails_the_check(exchange):
    inputs, pairs = exchange["hot_small"]
    line, reply = pairs[0]
    wrong = json.loads(reply)["num_matches"] - 1
    doctored = _doctored(reply, num_matches=wrong, embeddings=json.loads(reply)["embeddings"][:wrong])
    assert _verdicts(inputs, [(line, doctored)] + pairs[1:]) == [False] + [True] * (len(pairs) - 1)


def test_a_bad_embedding_fails_the_check(exchange):
    inputs, pairs = exchange["hot_small"]
    line, reply = pairs[0]
    embeddings = json.loads(reply)["embeddings"]
    labels = [int(x) for x in inputs.graph().labels]
    swapped = copy.deepcopy(embeddings)
    # Same label, so only the edge check can tell.
    swapped[0][0] = next(
        v for v in range(len(labels))
        if labels[v] == labels[embeddings[0][0]] and v not in embeddings[0]
        and not inputs.graph().has_edge(v, embeddings[0][1])
    )
    repeated = copy.deepcopy(embeddings)
    repeated[0][0] = repeated[0][1]
    for bad in (swapped, repeated):
        assert _verdicts(inputs, [(line, _doctored(reply, embeddings=bad))]) == [False]


def test_an_embedding_is_judged_at_the_epoch_of_its_reply(exchange):
    inputs, pairs = exchange["mutate_match"]
    assert b'"op":"mutate"' in pairs[0][0]
    # The same match replies without the mutate before them: wrong epoch.
    assert not any(_verdicts(inputs, pairs[1:3]))


def test_a_dropped_connection_counts_as_failed():
    inputs = generate("hot_small", SEED, "smoke")
    server, _ = harness.start(inputs, None)
    with server:
        harness.drive(server, inputs.stream, max_ops=3)
        server.proc.kill()
        server.proc.wait()
        records, _ = harness.drive(server, inputs.stream, max_ops=3)
    assert records[-1][2] is None and len(records) < 3
    assert _verdicts(inputs, [(inputs.stream[i], reply) for i, _, reply in records])[-1] is False


def test_compare_flags_a_doctored_slowdown(results, tmp_path):
    found, _ = results
    base = [copy.deepcopy(found[name, 0]) for name in WORKLOADS for _ in range(3)]
    slow = copy.deepcopy(base)
    for result in slow:
        if result["workload"] == "hot_small":
            result["metrics"]["latency_p50_ms"]["value"] *= 1.3  # beyond the 25 % bound
    for path, runs in ((tmp_path / "a.json", base), (tmp_path / "b.json", slow)):
        path.write_text(json.dumps({"header": run.header(), "runs": runs}))
    rows = compare.compare(tmp_path / "a.json", tmp_path / "b.json")
    regressed = [(row[0], row[1]) for row in rows if row[-1] == "regressed"]
    assert regressed == [("hot_small", "latency_p50_ms")]
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 1
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "a.json")]) == 0
