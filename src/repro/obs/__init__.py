"""Unified observability: span tracing + cross-layer metrics.

The paper's contribution is *measurement* — decomposing eight algorithms
into filtering / ordering / enumeration and attributing time and pruning
power to each component. This package makes that decomposition a
first-class output of every run:

* :mod:`repro.obs.tracer` — ambient span tracing
  (``with span("filter"): ...``), near-zero overhead when disabled,
  JSONL serialization;
* :mod:`repro.obs.metrics` — the :class:`Metrics` counter registry
  (filter stage sizes, refinement iterations, ordering cost evaluations,
  the enumeration counters) attached to every
  :class:`~repro.core.result.MatchResult` and
  :class:`~repro.study.runner.QueryRecord`, with an associative +
  commutative merge for study aggregation;
* :mod:`repro.obs.schema` — the trace and ``BENCH_*.json`` file formats:
  one walker checks each benchmark's rule table of field kinds, and a
  claims function per benchmark holds its cross-field facts and floors.

See the "Observability" section of ``docs/architecture.md`` for the span
API, the trace schema and the counter glossary.
"""

from repro.obs.metrics import (
    FilterStage,
    Metrics,
    add_counter,
    collecting,
    get_metrics,
    record_stage,
    set_metrics,
    total_candidates,
)
from repro.obs.schema import (
    BENCH_DYNAMIC_SCHEMA_VERSION,
    BENCH_KERNELS_SCHEMA_VERSION,
    BENCH_PARALLEL_SCHEMA_VERSION,
    BENCH_SERVER_SCHEMA_VERSION,
    BENCH_SESSION_SCHEMA_VERSION,
    BENCH_STORAGE_SCHEMA_VERSION,
    MAX_MMAP_WARM_OVERHEAD,
    MAX_OUT_OF_CORE_RSS_RATIO,
    MIN_DYNAMIC_SPEEDUP,
    MIN_PARALLEL_SPEEDUP,
    TRACE_SCHEMA,
    TraceSchemaError,
    validate_bench_dynamic,
    validate_bench_kernels,
    validate_bench_parallel,
    validate_bench_server,
    validate_bench_session,
    validate_bench_storage,
    validate_trace_file,
    validate_trace_lines,
    validate_trace_record,
)
from repro.obs.tracer import (
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    span,
    tracing,
)

__all__ = [
    # tracer
    "Span",
    "Tracer",
    "span",
    "get_tracer",
    "set_tracer",
    "tracing",
    # metrics
    "FilterStage",
    "Metrics",
    "add_counter",
    "collecting",
    "get_metrics",
    "record_stage",
    "set_metrics",
    "total_candidates",
    # schema
    "TRACE_SCHEMA",
    "BENCH_DYNAMIC_SCHEMA_VERSION",
    "BENCH_KERNELS_SCHEMA_VERSION",
    "BENCH_PARALLEL_SCHEMA_VERSION",
    "BENCH_SERVER_SCHEMA_VERSION",
    "BENCH_SESSION_SCHEMA_VERSION",
    "BENCH_STORAGE_SCHEMA_VERSION",
    "MAX_MMAP_WARM_OVERHEAD",
    "MAX_OUT_OF_CORE_RSS_RATIO",
    "MIN_DYNAMIC_SPEEDUP",
    "MIN_PARALLEL_SPEEDUP",
    "TraceSchemaError",
    "validate_bench_dynamic",
    "validate_bench_kernels",
    "validate_bench_parallel",
    "validate_bench_server",
    "validate_bench_session",
    "validate_bench_storage",
    "validate_trace_file",
    "validate_trace_lines",
    "validate_trace_record",
]
