"""Schemas for the observability artifacts, with hand-rolled validators.

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

* **BENCH_kernels.json** (``benchmarks/bench_kernels.py``): the kernel
  shoot-out payload, stamped with ``schema_version`` and the resolved
  backend name per registry entry.

* **BENCH_session.json** (``benchmarks/bench_session.py``): the
  session-throughput payload — one-shot ``match()`` vs
  :class:`~repro.core.session.MatchSession` batch latency on a
  repeated-query workload, with the session's cache counters.

* **BENCH_server.json** (``benchmarks/bench_server.py``): the serving
  tier under a duplicate-heavy multi-tenant workload — sustained QPS and
  p50/p99 latency through :class:`~repro.serve.service.MatchService`
  with request coalescing on vs off, plus the ``serve.*`` counters and a
  results-agree attestation.

* **BENCH_parallel.json** (``benchmarks/bench_parallel.py``): the
  intra-query parallel enumeration payload — root-chunked fan-out via
  :mod:`repro.parallel` vs the sequential frame machine on a Fig-16
  style counting workload, with per-chunk enumeration seconds, the
  4-worker speedup (measured wall clock on hosts with >= 4 CPUs, a
  greedy-makespan model over the real chunk timings otherwise —
  ``speedup_source`` says which), a byte-identical-embeddings
  attestation, and a shared-memory leak count.

* **BENCH_storage.json** (``benchmarks/bench_storage.py``): the graph
  storage-backend payload — warm-run overhead of matching off an
  ``.rgf`` memmap vs the in-memory arrays on a resident workload, and
  peak RSS of an out-of-core workload whose CSR arrays exceed the
  declared memory budget, matched from
  :class:`~repro.graph.store.MmapStore` vs fully materialized. Both
  halves carry a results-identical attestation; the validator enforces
  the overhead and RSS ceilings plus tempfile/shared-memory leak
  counts.

* **BENCH_dynamic.json** (``benchmarks/bench_dynamic.py``): the
  mutate-then-match payload — per-batch incremental candidate
  maintenance (:class:`~repro.dynamic.IncrementalCandidates` over a
  :class:`~repro.dynamic.DynamicGraph`) vs a from-scratch graph rebuild
  plus a full candidate build, on a 1%-churn mutation script. The
  validator enforces the ``MIN_DYNAMIC_SPEEDUP`` floor, the
  states-identical and final-match-identical attestations, and zero
  shared-memory/tempfile leaks.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

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
BENCH_DYNAMIC_SCHEMA_VERSION = 1

#: Per-batch incremental candidate maintenance must beat a from-scratch
#: rebuild by at least this factor on the benchmark's 1%-churn workload.
MIN_DYNAMIC_SPEEDUP = 5.0

#: Span end may precede a parent's end by this much (float timer jitter).
_NEST_SLACK = 1e-9


class TraceSchemaError(ValueError):
    """A trace or benchmark payload violates its schema."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise TraceSchemaError(message)


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
        _require(
            isinstance(record.get("spans"), int) and record["spans"] >= 0,
            "meta record needs a non-negative integer 'spans' count",
        )
        return
    _require(rtype == "span", f"unknown record type {rtype!r}")
    _require(
        isinstance(record.get("id"), int) and record["id"] >= 0,
        f"span id must be a non-negative int: {record.get('id')!r}",
    )
    parent = record.get("parent")
    _require(
        parent is None or (isinstance(parent, int) and parent >= 0),
        f"span parent must be null or a non-negative int: {parent!r}",
    )
    _require(
        isinstance(record.get("name"), str) and record["name"] != "",
        "span name must be a non-empty string",
    )
    _require(
        isinstance(record.get("depth"), int) and record["depth"] >= 0,
        "span depth must be a non-negative int",
    )
    for key in ("start", "end", "duration"):
        value = record.get(key)
        _require(
            isinstance(value, (int, float)) and value >= 0,
            f"span {key} must be a non-negative number: {value!r}",
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


def validate_bench_kernels(payload: Dict[str, Any]) -> None:
    """Validate a BENCH_kernels.json payload against the current schema."""
    _require(isinstance(payload, dict), "payload must be an object")
    _require(
        payload.get("schema_version") == BENCH_KERNELS_SCHEMA_VERSION,
        f"schema_version must be {BENCH_KERNELS_SCHEMA_VERSION}: "
        f"{payload.get('schema_version')!r}",
    )
    _require(
        payload.get("benchmark") == "kernel-backend-shootout",
        f"unexpected benchmark id {payload.get('benchmark')!r}",
    )
    for key in ("universe", "array_size"):
        _require(
            isinstance(payload.get(key), int) and payload[key] > 0,
            f"{key} must be a positive int",
        )
    timings = payload.get("seconds_per_call")
    _require(
        isinstance(timings, dict) and timings,
        "seconds_per_call must be a non-empty object",
    )
    for name, seconds in timings.items():
        _require(
            isinstance(seconds, (int, float)) and seconds > 0,
            f"seconds_per_call[{name!r}] must be a positive number",
        )
    kernels = payload.get("kernels")
    _require(
        isinstance(kernels, dict) and set(kernels) == set(timings),
        "kernels must map every timed backend to its resolved name",
    )
    for requested, resolved in kernels.items():
        _require(
            isinstance(resolved, str) and resolved != "",
            f"kernels[{requested!r}] must be a non-empty resolved name",
        )
    for key in ("speedup_numpy_vs_scalar", "speedup_bitset_vs_scalar"):
        value = payload.get(key)
        _require(
            isinstance(value, (int, float)) and value > 0,
            f"{key} must be a positive number",
        )


def validate_bench_session(payload: Dict[str, Any]) -> None:
    """Validate a BENCH_session.json payload against the current schema."""
    _require(isinstance(payload, dict), "payload must be an object")
    _require(
        payload.get("schema_version") == BENCH_SESSION_SCHEMA_VERSION,
        f"schema_version must be {BENCH_SESSION_SCHEMA_VERSION}: "
        f"{payload.get('schema_version')!r}",
    )
    _require(
        payload.get("benchmark") == "session-throughput",
        f"unexpected benchmark id {payload.get('benchmark')!r}",
    )
    _require(
        isinstance(payload.get("algorithm"), str) and payload["algorithm"],
        "algorithm must be a non-empty string",
    )
    workload = payload.get("workload")
    _require(isinstance(workload, dict), "workload must be an object")
    for key in ("data_vertices", "distinct_queries", "repeats", "total_queries"):
        _require(
            isinstance(workload.get(key), int) and workload[key] > 0,
            f"workload.{key} must be a positive int",
        )
    _require(
        workload["total_queries"]
        == workload["distinct_queries"] * workload["repeats"],
        "workload.total_queries must equal distinct_queries * repeats",
    )
    for mode in ("one_shot", "session"):
        stats = payload.get(mode)
        _require(isinstance(stats, dict), f"{mode} must be an object")
        for key in ("seconds_total", "seconds_per_query"):
            _require(
                isinstance(stats.get(key), (int, float)) and stats[key] > 0,
                f"{mode}.{key} must be a positive number",
            )
    _require(
        isinstance(payload.get("speedup_session_vs_one_shot"), (int, float))
        and payload["speedup_session_vs_one_shot"] > 0,
        "speedup_session_vs_one_shot must be a positive number",
    )
    cache = payload.get("cache")
    _require(isinstance(cache, dict), "cache must be an object")
    for which in ("plan", "prep"):
        info = cache.get(which)
        _require(isinstance(info, dict), f"cache.{which} must be an object")
        for key in ("hits", "misses", "size"):
            _require(
                isinstance(info.get(key), int) and info[key] >= 0,
                f"cache.{which}.{key} must be a non-negative int",
            )
        hits, misses = info["hits"], info["misses"]
        _require(
            hits + misses == workload["total_queries"],
            f"cache.{which} hits+misses ({hits}+{misses}) must equal the "
            f"{workload['total_queries']}-query workload",
        )
    _require(
        payload.get("matches_agree") is True,
        "matches_agree must be true (one-shot and session disagreed)",
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
    _require(isinstance(payload, dict), "payload must be an object")
    _require(
        payload.get("schema_version") == BENCH_SERVER_SCHEMA_VERSION,
        f"schema_version must be {BENCH_SERVER_SCHEMA_VERSION}: "
        f"{payload.get('schema_version')!r}",
    )
    _require(
        payload.get("benchmark") == "server-throughput",
        f"unexpected benchmark id {payload.get('benchmark')!r}",
    )
    workload = payload.get("workload")
    _require(isinstance(workload, dict), "workload must be an object")
    for key in (
        "data_vertices",
        "tenants",
        "clients",
        "workers",
        "distinct_queries",
        "requests_per_client",
        "total_requests",
    ):
        _require(
            isinstance(workload.get(key), int) and workload[key] > 0,
            f"workload.{key} must be a positive int",
        )
    _require(
        workload["total_requests"]
        == workload["clients"] * workload["requests_per_client"],
        "workload.total_requests must equal clients * requests_per_client",
    )
    modes = {}
    for mode in ("coalescing_on", "coalescing_off"):
        stats = payload.get(mode)
        _require(isinstance(stats, dict), f"{mode} must be an object")
        for key in ("seconds_total", "qps", "p50_ms", "p99_ms"):
            _require(
                isinstance(stats.get(key), (int, float)) and stats[key] > 0,
                f"{mode}.{key} must be a positive number",
            )
        _require(
            stats["p99_ms"] + 1e-9 >= stats["p50_ms"],
            f"{mode}: p99_ms must be >= p50_ms",
        )
        counters = stats.get("counters")
        _require(isinstance(counters, dict), f"{mode}.counters must be an object")
        for key in ("serve.admitted", "serve.executed", "serve.completed"):
            _require(
                isinstance(counters.get(key), int) and counters[key] >= 0,
                f"{mode}.counters[{key!r}] must be a non-negative int",
            )
        _require(
            counters["serve.completed"] == workload["total_requests"],
            f"{mode}: serve.completed ({counters.get('serve.completed')}) "
            f"must equal the {workload['total_requests']}-request workload",
        )
        modes[mode] = stats
    on, off = modes["coalescing_on"], modes["coalescing_off"]
    _require(
        on["counters"].get("serve.coalesced", 0) > 0,
        "coalescing_on must report serve.coalesced > 0 "
        "(the duplicate-heavy workload never coalesced)",
    )
    _require(
        on["counters"]["serve.executed"] <= off["counters"]["serve.executed"],
        "coalescing_on must not execute more often than coalescing_off",
    )
    speedup = payload.get("speedup_coalescing_effective_qps")
    _require(
        isinstance(speedup, (int, float)) and speedup > 0,
        "speedup_coalescing_effective_qps must be a positive number",
    )
    _require(
        payload.get("results_agree") is True,
        "results_agree must be true (modes returned different match counts)",
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
    at least 4 CPUs, ``"modeled"`` greedy makespan over real per-chunk
    timings otherwise), and the run must not have leaked shared-memory
    segments.
    """
    _require(isinstance(payload, dict), "payload must be an object")
    _require(
        payload.get("schema_version") == BENCH_PARALLEL_SCHEMA_VERSION,
        f"schema_version must be {BENCH_PARALLEL_SCHEMA_VERSION}: "
        f"{payload.get('schema_version')!r}",
    )
    _require(
        payload.get("benchmark") == "parallel-enumeration",
        f"unexpected benchmark id {payload.get('benchmark')!r}",
    )
    _require(
        isinstance(payload.get("host_cpus"), int) and payload["host_cpus"] > 0,
        "host_cpus must be a positive int",
    )
    source = payload.get("speedup_source")
    _require(
        source in ("measured", "modeled"),
        f"speedup_source must be 'measured' or 'modeled': {source!r}",
    )
    if source == "measured":
        _require(
            payload["host_cpus"] >= 4,
            "measured speedups require at least 4 host CPUs",
        )
    workload = payload.get("workload")
    _require(isinstance(workload, dict), "workload must be an object")
    for key in (
        "data_vertices",
        "query_vertices",
        "num_queries",
        "match_limit",
        "chunks",
    ):
        _require(
            isinstance(workload.get(key), int) and workload[key] > 0,
            f"workload.{key} must be a positive int",
        )
    queries = payload.get("queries")
    _require(
        isinstance(queries, list)
        and len(queries) == workload["num_queries"],
        "queries must be a list of workload.num_queries entries",
    )
    for i, entry in enumerate(queries):
        where = f"queries[{i}]"
        _require(isinstance(entry, dict), f"{where} must be an object")
        _require(
            isinstance(entry.get("num_matches"), int)
            and entry["num_matches"] > 0,
            f"{where}.num_matches must be a positive int",
        )
        _require(
            isinstance(entry.get("sequential_seconds"), (int, float))
            and entry["sequential_seconds"] > 0,
            f"{where}.sequential_seconds must be positive",
        )
        chunk_seconds = entry.get("chunk_seconds")
        _require(
            isinstance(chunk_seconds, list)
            and chunk_seconds
            and len(chunk_seconds) <= workload["chunks"]
            and all(
                isinstance(s, (int, float)) and s >= 0 for s in chunk_seconds
            ),
            f"{where}.chunk_seconds must be a non-empty list of at most "
            "workload.chunks non-negative numbers",
        )
        speedups = entry.get("speedups")
        _require(
            isinstance(speedups, dict) and "4" in speedups,
            f"{where}.speedups must map worker counts and include '4'",
        )
        for workers, value in speedups.items():
            _require(
                isinstance(value, (int, float)) and value > 0,
                f"{where}.speedups[{workers!r}] must be positive",
            )
        _require(
            entry.get("embeddings_identical") is True,
            f"{where}.embeddings_identical must be true (parallel run "
            "returned different embeddings)",
        )
    speedup = payload.get("overall_speedup_4_workers")
    _require(
        isinstance(speedup, (int, float)) and speedup > 0,
        "overall_speedup_4_workers must be a positive number",
    )
    _require(
        speedup >= MIN_PARALLEL_SPEEDUP,
        f"overall_speedup_4_workers ({speedup}) is below the "
        f"{MIN_PARALLEL_SPEEDUP}x floor",
    )
    _require(
        payload.get("embeddings_identical") is True,
        "embeddings_identical must be true (a parallel run returned "
        "different embeddings)",
    )
    _require(
        payload.get("shm_segments_leaked") == 0,
        f"shm_segments_leaked must be 0: {payload.get('shm_segments_leaked')!r}",
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
    _require(isinstance(payload, dict), "payload must be an object")
    _require(
        payload.get("schema_version") == BENCH_STORAGE_SCHEMA_VERSION,
        f"schema_version must be {BENCH_STORAGE_SCHEMA_VERSION}: "
        f"{payload.get('schema_version')!r}",
    )
    _require(
        payload.get("benchmark") == "storage-backends",
        f"unexpected benchmark id {payload.get('benchmark')!r}",
    )

    warm = payload.get("warm")
    _require(isinstance(warm, dict), "warm must be an object")
    workload = warm.get("workload")
    _require(isinstance(workload, dict), "warm.workload must be an object")
    for key in ("data_vertices", "num_queries", "match_limit", "repeats"):
        _require(
            isinstance(workload.get(key), int) and workload[key] > 0,
            f"warm.workload.{key} must be a positive int",
        )
    for key in ("in_memory_seconds", "mmap_seconds", "shm_seconds"):
        _require(
            isinstance(warm.get(key), (int, float)) and warm[key] > 0,
            f"warm.{key} must be a positive number",
        )
    overhead = warm.get("mmap_overhead")
    _require(
        isinstance(overhead, (int, float)) and overhead > 0,
        "warm.mmap_overhead must be a positive number",
    )
    _require(
        abs(overhead - warm["mmap_seconds"] / warm["in_memory_seconds"])
        < 1e-6,
        "warm.mmap_overhead must equal mmap_seconds / in_memory_seconds",
    )
    _require(
        overhead <= MAX_MMAP_WARM_OVERHEAD,
        f"warm.mmap_overhead ({overhead}) exceeds the "
        f"{MAX_MMAP_WARM_OVERHEAD}x ceiling",
    )
    _require(
        warm.get("results_identical") is True,
        "warm.results_identical must be true (backends returned "
        "different embeddings)",
    )

    ooc = payload.get("out_of_core")
    _require(isinstance(ooc, dict), "out_of_core must be an object")
    workload = ooc.get("workload")
    _require(
        isinstance(workload, dict), "out_of_core.workload must be an object"
    )
    for key in (
        "data_vertices",
        "data_edges",
        "array_bytes",
        "memory_budget_bytes",
        "num_queries",
        "match_limit",
    ):
        _require(
            isinstance(workload.get(key), int) and workload[key] > 0,
            f"out_of_core.workload.{key} must be a positive int",
        )
    _require(
        workload["array_bytes"] > workload["memory_budget_bytes"],
        "out_of_core workload does not exceed the memory budget "
        f"({workload['array_bytes']} <= {workload['memory_budget_bytes']} "
        "bytes) — the run was not out-of-core",
    )
    for key in ("in_memory_peak_rss_bytes", "mmap_peak_rss_bytes"):
        _require(
            isinstance(ooc.get(key), int) and ooc[key] > 0,
            f"out_of_core.{key} must be a positive int",
        )
    ratio = ooc.get("rss_ratio")
    _require(
        isinstance(ratio, (int, float)) and ratio > 0,
        "out_of_core.rss_ratio must be a positive number",
    )
    _require(
        abs(
            ratio
            - ooc["mmap_peak_rss_bytes"] / ooc["in_memory_peak_rss_bytes"]
        )
        < 1e-6,
        "out_of_core.rss_ratio must equal mmap_peak_rss_bytes / "
        "in_memory_peak_rss_bytes",
    )
    _require(
        ratio <= MAX_OUT_OF_CORE_RSS_RATIO,
        f"out_of_core.rss_ratio ({ratio}) exceeds the "
        f"{MAX_OUT_OF_CORE_RSS_RATIO} ceiling",
    )
    _require(
        ooc.get("results_identical") is True,
        "out_of_core.results_identical must be true (backends returned "
        "different results)",
    )

    _require(
        payload.get("shm_segments_leaked") == 0,
        f"shm_segments_leaked must be 0: {payload.get('shm_segments_leaked')!r}",
    )
    _require(
        payload.get("tempfiles_leaked") == 0,
        f"tempfiles_leaked must be 0: {payload.get('tempfiles_leaked')!r}",
    )


def validate_bench_dynamic(payload: Dict[str, Any]) -> None:
    """Validate a BENCH_dynamic.json payload against the current schema.

    Besides shape, the validator enforces the benchmark's substance: the
    incremental path must clear the ``MIN_DYNAMIC_SPEEDUP`` floor over
    the from-scratch rebuild, both correctness attestations (candidate
    state equality after every batch, byte-identical final match) must
    hold, and the run must not leak shared-memory segments or tempfiles.
    """
    _require(isinstance(payload, dict), "payload must be an object")
    _require(
        payload.get("schema_version") == BENCH_DYNAMIC_SCHEMA_VERSION,
        f"schema_version must be {BENCH_DYNAMIC_SCHEMA_VERSION}: "
        f"{payload.get('schema_version')!r}",
    )
    _require(
        payload.get("benchmark") == "dynamic-mutation",
        f"unexpected benchmark id {payload.get('benchmark')!r}",
    )

    workload = payload.get("workload")
    _require(isinstance(workload, dict), "workload must be an object")
    for key in (
        "data_vertices",
        "data_edges",
        "query_vertices",
        "num_batches",
        "ops_total",
    ):
        _require(
            isinstance(workload.get(key), int) and workload[key] > 0,
            f"workload.{key} must be a positive int",
        )
    churn = workload.get("churn_fraction")
    _require(
        isinstance(churn, (int, float)) and 0 < churn <= 1,
        "workload.churn_fraction must be in (0, 1]",
    )

    timings = payload.get("timings")
    _require(isinstance(timings, dict), "timings must be an object")
    for key in ("incremental_seconds", "scratch_seconds"):
        _require(
            isinstance(timings.get(key), (int, float)) and timings[key] > 0,
            f"timings.{key} must be a positive number",
        )

    speedup = payload.get("speedup_incremental_vs_scratch")
    _require(
        isinstance(speedup, (int, float)) and speedup > 0,
        "speedup_incremental_vs_scratch must be a positive number",
    )
    _require(
        abs(
            speedup
            - timings["scratch_seconds"] / timings["incremental_seconds"]
        )
        < 1e-6,
        "speedup_incremental_vs_scratch must equal "
        "scratch_seconds / incremental_seconds",
    )
    _require(
        speedup >= MIN_DYNAMIC_SPEEDUP,
        f"speedup_incremental_vs_scratch ({speedup}) is below the "
        f"{MIN_DYNAMIC_SPEEDUP}x floor",
    )

    _require(
        payload.get("states_identical") is True,
        "states_identical must be true (incremental candidate state "
        "diverged from the from-scratch rebuild)",
    )
    _require(
        payload.get("final_match_identical") is True,
        "final_match_identical must be true (post-script match results "
        "diverged)",
    )
    _require(
        payload.get("shm_segments_leaked") == 0,
        f"shm_segments_leaked must be 0: {payload.get('shm_segments_leaked')!r}",
    )
    _require(
        payload.get("tempfiles_leaked") == 0,
        f"tempfiles_leaked must be 0: {payload.get('tempfiles_leaked')!r}",
    )
