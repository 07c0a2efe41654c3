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
* :mod:`repro.obs.schema` — the trace and benchmark-record file formats:
  one walker checks each format's rule table of field kinds (the floors
  and cross-field facts of benchmark records live in
  ``benchmarks/claims.py``).

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
    TRACE_SCHEMA,
    TraceSchemaError,
    validate_record,
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
    "TraceSchemaError",
    "validate_record",
    "validate_trace_file",
    "validate_trace_lines",
    "validate_trace_record",
]
