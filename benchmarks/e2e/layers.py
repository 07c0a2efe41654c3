"""The traced run: per-layer metrics measured from outside the program.

The head of a workload's stream is replayed in-process, one caller,
through the same public calls ``MatchServer`` makes, each wrapped in a
benchmark-side span. What happens inside ``MatchService.match`` is not
visible from here, so its children are synthesised from the durations
the program reports on ``ServeResponse`` / ``MatchResult`` and marked
``source: "reported"``. Direct probes time the layers that tree cannot
see. ``src/`` is not touched; spans inside the program are a later change.

This box drifts by +-15 % over a few seconds, so every with/without
comparison here runs its two sides in lock step, request by request, on
two identically prepared instances, instead of one pass after the other.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from workloads import GRAPH_NAME, Inputs, is_match

from repro.core.plan import compile_plan
from repro.core.session import MatchSession
from repro.dynamic import DynamicGraph, IncrementalCandidates
from repro.dynamic.mutations import Mutation
from repro.graph import Graph, query_fingerprint
from repro.graph.store import MmapStore
from repro.obs import Tracer, tracing
from repro.serve import MatchService, protocol
from repro.utils.kernels import get_kernel

#: Reported children may exceed their parent's wall time by this much.
TOLERANCE = 1.02
#: The ``repro.obs`` probe stops pairing requests after this many seconds.
OBS_PROBE_SECONDS = 3.0
KERNEL_PROBE_PAIRS = 2000
STORE_PROBE_OPENS = 5

Span = Dict[str, Any]


class Spans:
    """Benchmark-side spans, kept in memory; ``enabled=False`` records nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.rows: List[Span] = []
        self.request = -1
        self._stack: List[int] = []

    def open(self, name: str) -> Optional[Span]:
        if not self.enabled:
            return None
        row = {
            "id": len(self.rows), "parent": self._stack[-1] if self._stack else None,
            "request": self.request, "name": name, "start": time.perf_counter(),
            "end": None, "source": "measured",
        }
        self.rows.append(row)
        self._stack.append(row["id"])
        return row

    def close(self, row: Optional[Span]) -> None:
        if row is not None:
            row["end"] = time.perf_counter()
            self._stack.pop()

    def reported(self, name: str, parent: Span, start: float, seconds: float) -> Span:
        row = {
            "id": len(self.rows), "parent": parent["id"], "request": parent["request"],
            "name": name, "start": start, "end": start + seconds, "source": "reported",
        }
        self.rows.append(row)
        return row


def _service(inputs: Inputs) -> MatchService:
    """A service prepared the way the server's set-up leaves it."""
    service = MatchService()  # the CLI's defaults
    if inputs.workload.dynamic:
        service.add_graph(GRAPH_NAME, _heap_copy(inputs.graph()), dynamic=True)
    else:
        service.add_graph(GRAPH_NAME, inputs.graph())
    spans = Spans(enabled=False)
    for line in inputs.warmup:
        _replay(service, line, spans)
    return service


def _heap_copy(graph: Graph) -> Graph:
    """The graph as the server builds it from an ``add_graph`` payload."""
    return protocol.graph_from_payload(protocol.graph_to_payload(graph))


def _replay(service: MatchService, line: bytes, spans: Spans) -> Tuple[float, Any]:
    """One request through decode -> service -> encode.

    Returns its wall seconds and, for a match, the ``ServeResponse``.
    """
    response = None
    spans.request += 1
    began = time.perf_counter()
    root = spans.open("request")
    row = spans.open("protocol.decode")
    request = protocol.parse_request(line.decode("utf-8").strip())
    is_match = request["op"] == "match"
    if is_match:
        query = protocol.graph_from_payload(request["query"])
    spans.close(row)
    if is_match:
        row = spans.open("service.match")
        response = service.match(
            query, graph=request["graph"], tenant="public", budget=None,
            match_limit=request["match_limit"], store_limit=request["store_limit"],
        )
        spans.close(row)
        if row is not None:
            _reported_children(spans, row, response)
        row = spans.open("protocol.encode")
        protocol.encode_response(
            protocol.match_response(
                response, request["id"], include_embeddings=request["include_embeddings"]
            )
        )
        spans.close(row)
    else:
        row = spans.open("service.mutate")
        service.mutate(request["graph"], request["mutations"])
        spans.close(row)
    spans.close(root)
    return time.perf_counter() - began, response


def _reported_children(spans: Spans, parent: Span, response: Any) -> None:
    phases = response.result.metrics.phase_seconds
    queue = spans.reported("service.queue", parent, parent["start"], response.queue_seconds)
    session = spans.reported(
        "session.match", parent, queue["end"], response.total_seconds - response.queue_seconds
    )
    at = session["start"]
    for name, phase in (("filtering", "filter"), ("ordering", "order"), ("enumeration", "enumerate")):
        at = spans.reported(name, session, at, phases.get(phase, 0.0))["end"]


def _p50(values: Iterable[float], scale: float = 1.0) -> float:
    values = list(values)
    return statistics.median(values) * scale if values else 0.0


def _durations(rows: List[Span], name: str, requests: set) -> Dict[int, float]:
    return {
        r["request"]: r["end"] - r["start"]
        for r in rows
        if r["name"] == name and r["request"] in requests
    }


def inconsistent_requests(rows: List[Span]) -> int:
    """Requests where reported children outlast their parent's wall time."""
    children: Dict[int, float] = {}
    for r in rows:
        if r["source"] == "reported":
            children[r["parent"]] = children.get(r["parent"], 0.0) + (r["end"] - r["start"])
    by_id = {r["id"]: r for r in rows}
    bad = {
        by_id[parent]["request"]
        for parent, total in children.items()
        if total > (by_id[parent]["end"] - by_id[parent]["start"]) * TOLERANCE
    }
    return len(bad)


def _span_metrics(rows: List[Span], responses: Dict[int, Any]) -> Dict[str, float]:
    """Layer metrics read off the span tree of the match requests."""
    matches = set(responses)
    dur = {
        name: _durations(rows, name, matches)
        for name in (
            "request", "protocol.decode", "protocol.encode", "service.match",
            "service.queue", "session.match", "filtering", "ordering", "enumeration",
        )
    }
    service_self = [
        dur["service.match"][i] - dur["service.queue"][i] - dur["session.match"][i] for i in matches
    ]
    session_self = [
        dur["session.match"][i] - dur["filtering"][i] - dur["ordering"][i] - dur["enumeration"][i]
        for i in matches
    ]
    counters: Dict[str, int] = {}
    for response in responses.values():
        for key, value in response.result.metrics.counters.items():
            counters[key] = counters.get(key, 0) + value
    n = len(matches)
    found = sum(r.result.num_matches for r in responses.values())
    calls = counters.get("enumerate.recursion_calls", 0)
    initial = counters.get("filter.candidates_initial", 0)
    request_total = sum(dur["request"].values())
    enumerate_total = sum(dur["enumeration"].values())
    ms = 1000.0
    return {
        "protocol.decode_ms_p50": _p50(dur["protocol.decode"].values(), ms),
        "protocol.encode_ms_p50": _p50(dur["protocol.encode"].values(), ms),
        "service.self_ms_p50": _p50(service_self, ms),
        "service.queue_ms_p50": _p50(dur["service.queue"].values(), ms),
        "session.self_ms_p50": _p50(session_self, ms),
        "session.plan_hit_share": counters.get("plan.cache_hit", 0) / n,
        "session.prep_hit_share": counters.get("plan.prep_hit", 0) / n,
        "filtering.filter_ms_p50": _p50(dur["filtering"].values(), ms),
        "filtering.request_share": sum(dur["filtering"].values()) / request_total,
        "filtering.candidates_mean": statistics.fmean(
            r.result.candidate_average or 0.0 for r in responses.values()
        ),
        "filtering.pruned_share": (
            1.0 - counters.get("filter.candidates_final", 0) / initial if initial else 0.0
        ),
        "ordering.order_ms_p50": _p50(dur["ordering"].values(), ms),
        "enumeration.run_ms_p50": _p50(dur["enumeration"].values(), ms),
        "enumeration.request_share": enumerate_total / request_total,
        "enumeration.matches_per_s": found / enumerate_total if enumerate_total else 0.0,
        "enumeration.calls_per_match": calls / found if found else 0.0,
        "enumeration.scanned_per_call": (
            counters.get("enumerate.candidates_scanned", 0) / calls if calls else 0.0
        ),
    }


def _lockstep(
    ops: List[bytes],
    run_a: Callable[[bytes], float],
    run_b: Callable[[bytes], float],
    budget_s: float = float("inf"),
) -> float:
    """Share by which side A is slower than side B, alternating who goes first."""
    total_a = total_b = 0.0
    for i, line in enumerate(ops):
        if total_a + total_b > budget_s:
            break
        if i % 2:
            total_b += run_b(line)
            total_a += run_a(line)
        else:
            total_a += run_a(line)
            total_b += run_b(line)
    return total_a / total_b - 1.0


def _obs_overhead(inputs: Inputs, ops: List[bytes], traced: MatchSession, plain: MatchSession) -> float:
    """``MatchSession.match`` with a ``repro.obs`` tracer installed against none."""
    cold = not inputs.workload.warm
    tracer = Tracer()

    def run(session: MatchSession, line: bytes) -> float:
        request = json.loads(line)
        query = protocol.graph_from_payload(request["query"])
        if cold:
            session.clear_caches()  # this workload's matches always filter
        began = time.perf_counter()
        session.match(
            query, match_limit=request["match_limit"], store_limit=request["store_limit"]
        )
        return time.perf_counter() - began

    def run_traced(line: bytes) -> float:
        with tracing(tracer):
            return run(traced, line)

    matches = [line for line in ops if is_match(line)]
    return _lockstep(matches, run_traced, lambda line: run(plain, line), OBS_PROBE_SECONDS)


def _kernel_probe(graph: Graph, kernel_name: Optional[str], seed: int) -> float:
    """p50 microseconds of one neighbour-list intersection on this graph."""
    kernel = get_kernel(kernel_name or "numpy")
    rng = np.random.default_rng([seed, 7])
    edges = np.array(list(graph.edges()))
    timings = []
    for u, v in edges[rng.integers(0, len(edges), size=KERNEL_PROBE_PAIRS)]:
        a, b = graph.neighbors(int(u)), graph.neighbors(int(v))
        began = time.perf_counter()
        kernel.intersect(a, b)
        timings.append(time.perf_counter() - began)
    return _p50(timings, 1e6)


def _store_probe(inputs: Inputs) -> Dict[str, float]:
    timings = []
    for _ in range(STORE_PROBE_OPENS):
        began = time.perf_counter()
        store = MmapStore(inputs.graph_path, validate=True)
        store.graph()
        timings.append(time.perf_counter() - began)
        store.close()
    return {
        "store.open_ms": _p50(timings, 1000.0),
        "store.file_mb": inputs.graph_path.stat().st_size / 2**20,
    }


def _plan_probe(graph: Graph, ops: List[bytes]) -> Dict[str, float]:
    queries = {}
    for line in ops:
        request = json.loads(line)
        if request["op"] == "match":
            queries[json.dumps(request["query"])] = protocol.graph_from_payload(request["query"])
    fingerprint, compile_ = [], []
    for query in queries.values():
        began = time.perf_counter()
        query_fingerprint(query)
        mid = time.perf_counter()
        compile_plan("recommended", query, graph)
        fingerprint.append(mid - began)
        compile_.append(time.perf_counter() - mid)
    return {
        "plan.fingerprint_ms_p50": _p50(fingerprint, 1000.0),
        "plan.compile_ms_p50": _p50(compile_, 1000.0),
    }


def _dynamic_probe(graph: Graph, ops: List[bytes]) -> Dict[str, float]:
    """A shadow ``DynamicGraph`` fed the same batches, layer by layer."""
    batches = [json.loads(line)["mutations"] for line in ops if not is_match(line)]
    names = ("dynamic.apply_ms_p50", "dynamic.snapshot_ms_p50", "dynamic.incremental_delta_ms_p50")
    if not batches:
        return dict.fromkeys(names + ("dynamic.compactions", "dynamic.overlay_size_end"), 0.0)
    first_match = next(json.loads(line) for line in ops if is_match(line))
    dynamic = DynamicGraph(_heap_copy(graph))
    incremental = IncrementalCandidates(protocol.graph_from_payload(first_match["query"]), dynamic)
    timings: Dict[str, List[float]] = {name: [] for name in names}
    for batch in batches:
        mutations = [Mutation.from_json(m) for m in batch]
        t0 = time.perf_counter()
        delta = dynamic.apply(mutations)
        t1 = time.perf_counter()
        incremental.apply_delta(delta)
        t2 = time.perf_counter()
        dynamic.versioned_snapshot()
        t3 = time.perf_counter()
        for name, seconds in zip(names, (t1 - t0, t3 - t2, t2 - t1)):
            timings[name].append(seconds)
    out = {name: _p50(values, 1000.0) for name, values in timings.items()}
    out["dynamic.compactions"] = float(dynamic.compactions)
    out["dynamic.overlay_size_end"] = float(dynamic.overlay_size)
    return out


def trace(
    inputs: Inputs, outside_service: List[float], wire_bytes: Tuple[float, float]
) -> Tuple[Dict[str, float], List[Span]]:
    """Per-layer metrics and the span list for the head of ``inputs.stream``.

    ``outside_service`` holds, per match op of that head sent to the real
    server, its round trip minus the ``total_ms`` its reply reports;
    ``wire_bytes`` is the mean request and response size seen there.
    """
    ops = inputs.stream[: inputs.workload.trace_ops]
    graph = inputs.graph()
    with _service(inputs) as traced, _service(inputs) as plain:
        spans = Spans()
        off = Spans(enabled=False)
        responses: Dict[int, Any] = {}

        def run_traced(line: bytes) -> float:
            seconds, response = _replay(traced, line, spans)
            if response is not None:
                responses[spans.request] = response
            return seconds

        overhead = _lockstep(ops, run_traced, lambda line: _replay(plain, line, off)[0])
        obs = _obs_overhead(
            inputs, ops,
            traced.session_for("public", GRAPH_NAME), plain.session_for("public", GRAPH_NAME),
        )
    rows = spans.rows
    mutate_ms = [(r["end"] - r["start"]) * 1000.0 for r in rows if r["name"] == "service.mutate"]
    # What a request spends outside MatchService, in-process; the server
    # spends the same plus the socket and the event loop. Both sides are
    # differences taken inside one request, so the box's drift cancels.
    outside_in_process = [
        seconds - responses[i].total_seconds
        for i, seconds in _durations(rows, "request", set(responses)).items()
    ]
    kernels = {r.result.kernel for r in responses.values()} - {None}
    metrics = _span_metrics(rows, responses)
    metrics.update(
        {
            "protocol.request_bytes_mean": wire_bytes[0],
            "protocol.response_bytes_mean": wire_bytes[1],
            "server.transport_ms_p50": _p50(outside_service, 1000.0)
            - _p50(outside_in_process, 1000.0),
            "kernels.intersect_us_p50": _kernel_probe(graph, min(kernels, default=None), inputs.seed),
            "dynamic.service_mutate_ms_p50": _p50(mutate_ms),
            "obs.enabled_overhead_share": obs,
            "trace.overhead_share": overhead,
            "trace.inconsistent_spans": float(inconsistent_requests(rows)),
        }
    )
    metrics.update(_store_probe(inputs))
    metrics.update(_plan_probe(graph, ops))
    metrics.update(_dynamic_probe(graph, ops))
    return metrics, rows
