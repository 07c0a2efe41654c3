"""Schemas for the observability artifacts, checked against rule tables.

Two file formats are stamped and validated here (no external jsonschema
dependency):

* **Trace JSONL** (``repro --trace out.jsonl`` /
  :meth:`repro.obs.tracer.Tracer.write_jsonl`). Line 1 is a header
  ``{"type": "meta", "schema": "repro.trace/v1", "spans": N}``; every
  further line is a span record::

      {"type": "span", "id": int, "parent": int | null, "name": str,
       "depth": int, "start": float, "end": float, "duration": float,
       "attrs": {...}}

  Invariants checked: ids unique, parents precede children and nest
  (``parent.start <= start`` and ``end <= parent.end`` up to clock
  jitter), ``depth`` is parent's depth + 1, ``end >= start``.

* **BENCH_*.json**, written by ``benchmarks/bench_<name>.py``:

  - ``BENCH_kernels.json``: the intersection-kernel shoot-out;
  - ``BENCH_session.json``: one-shot ``match()`` vs a session;
  - ``BENCH_server.json``: serving throughput, coalescing on vs off;
  - ``BENCH_parallel.json``: root-chunked parallel vs sequential search;
  - ``BENCH_storage.json``: warm memmap overhead, out-of-core peak RSS;
  - ``BENCH_dynamic.json``: incremental candidates vs a full rebuild.

Each benchmark's contract is data: its stamp, a table of ``(path, kind)``
rule rows and a claims function for the cross-field facts (products,
derived ratios, floors, ceilings). Paths are ``/``-separated, so a key may
hold dots (``serve.completed``); ``*`` spans the values of a non-empty
object or the items of a non-empty list.
"""

from __future__ import annotations

import json
import reprlib
from typing import Any, Callable, Dict, List, NamedTuple, Sequence, Tuple

__all__ = [
    "TRACE_SCHEMA",
    "BENCH_KERNELS_SCHEMA_VERSION",
    "TraceSchemaError",
    "validate_trace_record",
    "validate_trace_lines",
    "validate_trace_file",
    "validate_bench_kernels",
    "BENCH_SESSION_SCHEMA_VERSION",
    "validate_bench_session",
    "BENCH_SERVER_SCHEMA_VERSION",
    "validate_bench_server",
    "BENCH_PARALLEL_SCHEMA_VERSION",
    "MIN_PARALLEL_SPEEDUP",
    "validate_bench_parallel",
    "BENCH_STORAGE_SCHEMA_VERSION",
    "MAX_MMAP_WARM_OVERHEAD",
    "MAX_OUT_OF_CORE_RSS_RATIO",
    "validate_bench_storage",
    "BENCH_DYNAMIC_SCHEMA_VERSION",
    "MIN_DYNAMIC_SPEEDUP",
    "validate_bench_dynamic",
]

#: Identifier stamped into every trace header line.
TRACE_SCHEMA = "repro.trace/v1"

#: Version stamped into BENCH_kernels.json payloads.
BENCH_KERNELS_SCHEMA_VERSION = 2

#: Version stamped into BENCH_session.json payloads.
BENCH_SESSION_SCHEMA_VERSION = 1

#: Version stamped into BENCH_server.json payloads.
BENCH_SERVER_SCHEMA_VERSION = 1

#: Version stamped into BENCH_parallel.json payloads.
BENCH_PARALLEL_SCHEMA_VERSION = 1

#: The 4-worker speedup floor BENCH_parallel.json must clear.
MIN_PARALLEL_SPEEDUP = 2.5

#: Version stamped into BENCH_storage.json payloads.
BENCH_STORAGE_SCHEMA_VERSION = 1

#: Warm memmap matching may cost at most this multiple of in-memory.
MAX_MMAP_WARM_OVERHEAD = 1.3

#: Out-of-core peak RSS must be at most this fraction of the
#: materialized run's peak RSS.
MAX_OUT_OF_CORE_RSS_RATIO = 0.5

#: Version stamped into BENCH_dynamic.json payloads.
BENCH_DYNAMIC_SCHEMA_VERSION = 2

#: Per-batch incremental candidate maintenance must beat a from-scratch
#: rebuild by at least this factor on the benchmark's 1%-churn workload:
#: in counted candidate-state entries wherever a payload is validated,
#: and in seconds in CI's dynamic-smoke job.
MIN_DYNAMIC_SPEEDUP = 5.0

#: Span end may precede a parent's end by this much (float timer jitter).
_NEST_SLACK = 1e-9


class TraceSchemaError(ValueError):
    """A trace or benchmark payload violates its schema."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise TraceSchemaError(message)


class _Kind(NamedTuple):
    """A field kind: the text its message uses and its predicate."""

    text: str
    accepts: Callable[[Any], bool]


_NUMBER = (int, float)

#: The field kinds a rule row names.
_KINDS: Dict[str, _Kind] = {
    "pos_int": _Kind("a positive int", lambda v: isinstance(v, int) and v > 0),
    "nonneg_int": _Kind("a non-negative int", lambda v: isinstance(v, int) and v >= 0),
    "pos_num": _Kind("a positive number", lambda v: isinstance(v, _NUMBER) and v > 0),
    "nonneg_num": _Kind(
        "a non-negative number", lambda v: isinstance(v, _NUMBER) and v >= 0
    ),
    "text": _Kind("a non-empty string", lambda v: isinstance(v, str) and v != ""),
    "true": _Kind("true", lambda v: v is True),
    "zero": _Kind("0", lambda v: v == 0),
}

#: Stands in for an absent key; no kind accepts it.
_MISSING = object()

_Rules = Tuple[Tuple[str, _Kind], ...]


def _show(value: Any) -> str:
    return "missing" if value is _MISSING else reprlib.repr(value)


def _rules(**table: str) -> _Rules:
    """``kind="path ..."`` as ``(path, kind)`` rows; ``{a,b}`` is one row per option."""
    return tuple(
        (path, _KINDS[kind])
        for kind, patterns in table.items()
        for pattern in patterns.split()
        for path in _expand(pattern)
    )


def _expand(pattern: str) -> List[str]:
    head, brace, tail = pattern.partition("{")
    if not brace:
        return [pattern]
    options, _, rest = tail.partition("}")
    return [p for o in options.split(",") for p in _expand(head + o + rest)]


def _walk(node: Any, steps: Sequence[str], name: str, kind: _Kind) -> None:
    """Check that every field ``steps`` reach from ``node`` is ``kind``."""
    if not steps:
        _require(kind.accepts(node), f"{name} must be {kind.text}: {_show(node)}")
        return
    step, rest = steps[0], steps[1:]
    if step == "*":
        _require(
            isinstance(node, (dict, list)) and len(node) > 0,
            f"{name} must be a non-empty object or list",
        )
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            _walk(value, rest, f"{name}[{key!r}]", kind)
        return
    _require(isinstance(node, dict), f"{name or 'payload'} must be an object")
    if "." in step:
        child = f"{name}[{step!r}]"
    else:
        child = f"{name}.{step}" if name else step
    _walk(node.get(step, _MISSING), rest, child, kind)


def _check_rules(node: Dict[str, Any], rules: _Rules, name: str = "") -> None:
    for path, kind in rules:
        _walk(node, path.split("/"), name, kind)


_SPAN_RULES = _rules(
    nonneg_int="id depth", text="name", nonneg_num="start end duration"
)


def validate_trace_record(record: Dict[str, Any]) -> None:
    """Validate one parsed JSONL record (header or span) in isolation."""
    _require(isinstance(record, dict), f"record is not an object: {record!r}")
    rtype = record.get("type")
    if rtype == "meta":
        _require(
            record.get("schema") == TRACE_SCHEMA,
            f"unknown trace schema {record.get('schema')!r} "
            f"(expected {TRACE_SCHEMA!r})",
        )
        _walk(record, ["spans"], "meta", _KINDS["nonneg_int"])
        return
    _require(rtype == "span", f"unknown record type {rtype!r}")
    _check_rules(record, _SPAN_RULES, "span")
    parent = record.get("parent", _MISSING)
    _require(
        parent is None or _KINDS["nonneg_int"].accepts(parent),
        f"span.parent must be null or a non-negative int: {_show(parent)}",
    )
    _require(
        record["end"] >= record["start"],
        f"span {record['name']!r} ends before it starts",
    )
    _require(isinstance(record.get("attrs"), dict), "span attrs must be an object")


def validate_trace_lines(lines: List[str]) -> Dict[str, Any]:
    """Validate a full JSONL trace; returns a summary dict.

    Checks every record plus the cross-record invariants (header first,
    declared span count, unique ids, parent nesting and depth).
    """
    _require(len(lines) >= 1, "trace is empty (missing meta header)")
    records = []
    for i, line in enumerate(lines):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise TraceSchemaError(f"line {i + 1} is not valid JSON: {exc}") from None
    for record in records:
        validate_trace_record(record)
    header, spans = records[0], records[1:]
    _require(header.get("type") == "meta", "first trace line must be the meta header")
    _require(
        all(r["type"] == "span" for r in spans),
        "only the first line may be a meta record",
    )
    _require(
        header["spans"] == len(spans),
        f"header declares {header['spans']} spans, trace has {len(spans)}",
    )
    by_id: Dict[int, Dict[str, Any]] = {}
    for record in spans:
        _require(record["id"] not in by_id, f"duplicate span id {record['id']}")
        by_id[record["id"]] = record
    for record in spans:
        parent = record["parent"]
        if parent is None:
            _require(record["depth"] == 0, "root spans must have depth 0")
            continue
        _require(parent in by_id, f"span {record['id']} has unknown parent {parent}")
        parent_record = by_id[parent]
        _require(
            record["depth"] == parent_record["depth"] + 1,
            f"span {record['id']} depth {record['depth']} is not "
            f"parent depth {parent_record['depth']} + 1",
        )
        _require(
            parent_record["start"] <= record["start"] + _NEST_SLACK
            and record["end"] <= parent_record["end"] + _NEST_SLACK,
            f"span {record['id']} is not nested inside parent {parent}",
        )
    names: Dict[str, int] = {}
    for record in spans:
        names[record["name"]] = names.get(record["name"], 0) + 1
    return {
        "spans": len(spans),
        "names": names,
        "roots": sum(1 for r in spans if r["parent"] is None),
    }


def validate_trace_file(path: str) -> Dict[str, Any]:
    """Validate a trace JSONL file on disk; returns the summary dict."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    return validate_trace_lines(lines)


class _Contract(NamedTuple):
    """A benchmark payload's stamp, rule rows and claims function."""

    version: int
    benchmark: str
    rules: _Rules
    claims: Callable[[Dict[str, Any]], None]


def _check(payload: Dict[str, Any], contract: _Contract) -> None:
    """Check the stamp, then every rule row, then the claims."""
    _require(isinstance(payload, dict), "payload must be an object")
    _require(
        payload.get("schema_version") == contract.version,
        f"schema_version must be {contract.version}: {payload.get('schema_version')!r}",
    )
    _require(
        payload.get("benchmark") == contract.benchmark,
        f"unexpected benchmark id {payload.get('benchmark')!r}",
    )
    _check_rules(payload, contract.rules)
    contract.claims(payload)


def _kernels_claims(p: Dict[str, Any]) -> None:
    kernels, timings = p["kernels"], p["seconds_per_call"]
    _require(
        isinstance(kernels, dict) and isinstance(timings, dict)
        and set(kernels) == set(timings),
        "kernels must map every timed backend to its resolved name",
    )


_KERNELS = _Contract(
    BENCH_KERNELS_SCHEMA_VERSION, "kernel-backend-shootout",
    _rules(
        pos_int="universe array_size",
        pos_num="seconds_per_call/* speedup_{numpy,bitset}_vs_scalar",
        text="kernels/*",
    ),
    _kernels_claims,
)


def validate_bench_kernels(payload: Dict[str, Any]) -> None:
    """Validate a BENCH_kernels.json payload against the current schema."""
    _check(payload, _KERNELS)


def _session_claims(p: Dict[str, Any]) -> None:
    workload, prep = p["workload"], p["cache"]["prep"]
    total = workload["total_queries"]
    _require(
        total == workload["distinct_queries"] * workload["repeats"],
        "workload.total_queries must equal distinct_queries * repeats",
    )
    _require(
        prep["hits"] + prep["misses"] == total,
        f"cache.prep hits+misses ({prep['hits']}+{prep['misses']}) must "
        f"equal the {total}-query workload",
    )


_SESSION = _Contract(
    BENCH_SESSION_SCHEMA_VERSION, "session-throughput",
    _rules(
        text="algorithm",
        pos_int="workload/{data_vertices,distinct_queries,repeats,total_queries}",
        pos_num="{one_shot,session}/{seconds_total,seconds_per_query} "
        "speedup_session_vs_one_shot",
        nonneg_int="cache/prep/{hits,misses,size}",
        true="matches_agree",
    ),
    _session_claims,
)


def validate_bench_session(payload: Dict[str, Any]) -> None:
    """Validate a BENCH_session.json payload against the current schema."""
    _check(payload, _SESSION)


def _server_claims(p: Dict[str, Any]) -> None:
    workload = p["workload"]
    total = workload["total_requests"]
    _require(
        total == workload["clients"] * workload["requests_per_client"],
        "workload.total_requests must equal clients * requests_per_client",
    )
    for mode in ("coalescing_on", "coalescing_off"):
        stats = p[mode]
        _require(
            stats["p99_ms"] + 1e-9 >= stats["p50_ms"],
            f"{mode}: p99_ms must be >= p50_ms",
        )
        completed = stats["counters"]["serve.completed"]
        _require(
            completed == total,
            f"{mode}: serve.completed ({completed}) must equal the "
            f"{total}-request workload",
        )
    _require(
        p["coalescing_on"]["counters"]["serve.executed"]
        <= p["coalescing_off"]["counters"]["serve.executed"],
        "coalescing_on must not execute more often than coalescing_off",
    )


_SERVER = _Contract(
    BENCH_SERVER_SCHEMA_VERSION, "server-throughput",
    _rules(
        # The duplicate-heavy workload must have coalesced; the
        # uncoalesced run may omit serve.coalesced.
        pos_int="workload/{data_vertices,tenants,clients,workers,"
        "distinct_queries,requests_per_client,total_requests} "
        "coalescing_on/counters/serve.coalesced",
        pos_num="coalescing_{on,off}/{seconds_total,qps,p50_ms,p99_ms} "
        "speedup_coalescing_effective_qps",
        nonneg_int="coalescing_{on,off}/counters/serve.{admitted,executed,completed}",
        true="results_agree",
    ),
    _server_claims,
)


def validate_bench_server(payload: Dict[str, Any]) -> None:
    """Validate a BENCH_server.json payload against the current schema.

    The payload measures :class:`~repro.serve.service.MatchService`
    throughput on a duplicate-heavy multi-tenant workload, with request
    coalescing on vs off. Beyond shape, the validator enforces the
    benchmark's claims: the coalescing run must actually have coalesced
    requests, it must not execute more often than the uncoalesced run,
    and both modes must agree on every response's match count
    (``results_agree``) — a service that goes faster by answering
    differently fails here.
    """
    _check(payload, _SERVER)


def _parallel_claims(p: Dict[str, Any]) -> None:
    source = p.get("speedup_source")
    _require(
        source in ("measured", "counted"),
        f"speedup_source must be 'measured' or 'counted': {source!r}",
    )
    if source == "measured":
        _require(p["host_cpus"] >= 4, "measured speedups require at least 4 host CPUs")
    workload, queries = p["workload"], p["queries"]
    _require(
        isinstance(queries, list) and len(queries) == workload["num_queries"],
        "queries must be a list of workload.num_queries entries",
    )
    for i, entry in enumerate(queries):
        seconds, calls = entry["chunk_seconds"], entry["chunk_calls"]
        _require(
            isinstance(seconds, list) and len(seconds) <= workload["chunks"],
            f"queries[{i}].chunk_seconds must be a non-empty list of at most "
            "workload.chunks non-negative numbers",
        )
        _require(
            isinstance(calls, list) and len(calls) == len(seconds),
            f"queries[{i}].chunk_calls must list one non-negative int per chunk",
        )
        _require(
            isinstance(entry["speedups"], dict) and "4" in entry["speedups"],
            f"queries[{i}].speedups must map worker counts and include '4'",
        )
    speedup = p["overall_speedup_4_workers"]
    _require(
        speedup >= MIN_PARALLEL_SPEEDUP,
        f"overall_speedup_4_workers ({speedup}) is below the "
        f"{MIN_PARALLEL_SPEEDUP}x floor",
    )


_PARALLEL = _Contract(
    BENCH_PARALLEL_SCHEMA_VERSION, "parallel-enumeration",
    _rules(
        pos_int="host_cpus workload/{data_vertices,query_vertices,num_queries,"
        "match_limit,chunks} queries/*/num_matches",
        pos_num="queries/*/{sequential_seconds,speedups/*} overall_speedup_4_workers",
        nonneg_num="queries/*/chunk_seconds/*",
        nonneg_int="queries/*/chunk_calls/*",
        true="queries/*/embeddings_identical embeddings_identical",
        zero="shm_segments_leaked",
    ),
    _parallel_claims,
)


def validate_bench_parallel(payload: Dict[str, Any]) -> None:
    """Validate a BENCH_parallel.json payload against the current schema.

    The payload compares sequential frame-machine enumeration against the
    root-chunked process-pool fan-out of :mod:`repro.parallel` on one
    counting workload. Beyond shape, the validator enforces the
    benchmark's claims: every query's parallel run must return the byte
    identical embedding sequence (``embeddings_identical``), the 4-worker
    speedup must clear :data:`MIN_PARALLEL_SPEEDUP`, the speedup
    provenance must be declared (``"measured"`` wall clock on hosts with
    at least 4 CPUs, ``"counted"`` greedy makespan over per-chunk
    ``recursion_calls`` otherwise), and the run must not have leaked
    shared-memory segments.
    """
    _check(payload, _PARALLEL)


def _storage_claims(p: Dict[str, Any]) -> None:
    warm, ooc = p["warm"], p["out_of_core"]
    overhead, ratio = warm["mmap_overhead"], ooc["rss_ratio"]
    workload = ooc["workload"]
    _require(
        abs(overhead - warm["mmap_seconds"] / warm["in_memory_seconds"]) < 1e-6,
        "warm.mmap_overhead must equal mmap_seconds / in_memory_seconds",
    )
    _require(
        overhead <= MAX_MMAP_WARM_OVERHEAD,
        f"warm.mmap_overhead ({overhead}) exceeds the "
        f"{MAX_MMAP_WARM_OVERHEAD}x ceiling",
    )
    _require(
        workload["array_bytes"] > workload["memory_budget_bytes"],
        "out_of_core workload does not exceed the memory budget "
        f"({workload['array_bytes']} <= {workload['memory_budget_bytes']} "
        "bytes) — the run was not out-of-core",
    )
    _require(
        abs(ratio - ooc["mmap_peak_rss_bytes"] / ooc["in_memory_peak_rss_bytes"])
        < 1e-6,
        "out_of_core.rss_ratio must equal mmap_peak_rss_bytes / "
        "in_memory_peak_rss_bytes",
    )
    _require(
        ratio <= MAX_OUT_OF_CORE_RSS_RATIO,
        f"out_of_core.rss_ratio ({ratio}) exceeds the "
        f"{MAX_OUT_OF_CORE_RSS_RATIO} ceiling",
    )


_STORAGE = _Contract(
    BENCH_STORAGE_SCHEMA_VERSION, "storage-backends",
    _rules(
        pos_int="warm/workload/{data_vertices,num_queries,match_limit,repeats} "
        "out_of_core/workload/{data_vertices,data_edges,array_bytes,"
        "memory_budget_bytes,num_queries,match_limit} "
        "out_of_core/{in_memory,mmap}_peak_rss_bytes",
        pos_num="warm/{in_memory,mmap,shm}_seconds warm/mmap_overhead "
        "out_of_core/rss_ratio",
        true="{warm,out_of_core}/results_identical",
        zero="shm_segments_leaked tempfiles_leaked",
    ),
    _storage_claims,
)


def validate_bench_storage(payload: Dict[str, Any]) -> None:
    """Validate a BENCH_storage.json payload against the current schema.

    The payload compares matching off the three storage backends of
    :mod:`repro.graph.store`. Beyond shape, the validator enforces the
    benchmark's claims honestly:

    * both halves must attest identical results across backends,
    * the warm memmap run may cost at most
      :data:`MAX_MMAP_WARM_OVERHEAD` times the in-memory run,
    * the out-of-core workload's CSR arrays must genuinely exceed the
      declared memory budget, and its memmap peak RSS must be at most
      :data:`MAX_OUT_OF_CORE_RSS_RATIO` of the materialized run's,
    * the run must not have leaked tempfiles or ``/dev/shm`` segments.
    """
    _check(payload, _STORAGE)


def _dynamic_claims(p: Dict[str, Any]) -> None:
    timings, speedup = p["timings"], p["speedup_incremental_vs_scratch"]
    counted, speedup_counted = p["counted"], p["speedup_counted"]
    _require(p["workload"]["churn_fraction"] <= 1, "workload.churn_fraction must be <= 1")
    _require(
        abs(speedup - timings["scratch_seconds"] / timings["incremental_seconds"])
        < 1e-6,
        "speedup_incremental_vs_scratch must equal "
        "scratch_seconds / incremental_seconds",
    )
    _require(
        abs(
            speedup_counted
            - counted["scratch_entries"] / counted["incremental_entries"]
        )
        < 1e-6,
        "speedup_counted must equal "
        "counted.scratch_entries / counted.incremental_entries",
    )
    _require(
        speedup_counted >= MIN_DYNAMIC_SPEEDUP,
        f"speedup_counted ({speedup_counted}) is below the "
        f"{MIN_DYNAMIC_SPEEDUP}x floor",
    )


_DYNAMIC = _Contract(
    BENCH_DYNAMIC_SCHEMA_VERSION, "dynamic-mutation",
    _rules(
        pos_int="workload/{data_vertices,data_edges,query_vertices,num_batches,"
        "ops_total} counted/{incremental,scratch}_entries",
        pos_num="workload/churn_fraction timings/{incremental,scratch}_seconds "
        "speedup_incremental_vs_scratch speedup_counted",
        true="states_identical final_match_identical",
        zero="shm_segments_leaked tempfiles_leaked",
    ),
    _dynamic_claims,
)


def validate_bench_dynamic(payload: Dict[str, Any]) -> None:
    """Validate a BENCH_dynamic.json payload against the current schema.

    Besides shape, the validator enforces the benchmark's substance: the
    incremental path must clear the ``MIN_DYNAMIC_SPEEDUP`` floor over
    the from-scratch rebuild in counted candidate-state entries
    (``speedup_counted``, deterministic; the wall-clock speedup is held
    to the floor in CI, where no test run shares the host), both
    speedups must equal their recorded ratios, both correctness
    attestations (candidate state equality after every batch,
    byte-identical final match) must hold, and the run must not leak
    shared-memory segments or tempfiles.
    """
    _check(payload, _DYNAMIC)
