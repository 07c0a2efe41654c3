"""Schemas for the observability artifacts, checked against rule tables.

Two file formats are validated here (no external jsonschema dependency):

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

* **Benchmark records**, appended as JSON lines to
  ``benchmarks/results/<suite>.jsonl`` by the ``benchmarks/bench_*.py``
  mains. Every suite writes the one record format::

      {"suite": str, "name": str, "key": {param: str | number > 0},
       "sha": str | null, "nproc": int,
       "metrics": {name: number}, "counters": {name: int}}

  ``key`` holds the parameters the run measured, ``sha`` the commit it
  ran on (null outside a checkout) and ``nproc`` the host's CPU count.
  Attestations are counters (``embeddings_identical: 1``,
  ``shm_segments_leaked: 0``). The floors, ceilings and cross-field
  facts a suite's records must hold live in ``benchmarks/claims.py``.

A contract is data: a table of ``(path, kind)`` rule rows that one walker
checks. Paths are ``/``-separated; ``*`` spans the values of an object,
so a name may hold dots (``serve.completed``).
"""

from __future__ import annotations

import json
import reprlib
from typing import Any, Callable, Dict, List, NamedTuple, Sequence, Tuple

__all__ = [
    "TRACE_SCHEMA",
    "TraceSchemaError",
    "validate_record",
    "validate_trace_record",
    "validate_trace_lines",
    "validate_trace_file",
]

#: Identifier stamped into every trace header line.
TRACE_SCHEMA = "repro.trace/v1"

#: Span end may precede a parent's end by this much (float timer jitter).
_NEST_SLACK = 1e-9


class TraceSchemaError(ValueError):
    """A trace or a benchmark record violates its schema."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise TraceSchemaError(message)


class _Kind(NamedTuple):
    """A field kind: the text its message uses and its predicate."""

    text: str
    accepts: Callable[[Any], bool]


_NUMBER = (int, float)

_HEX = frozenset("0123456789abcdef")

#: The field kinds a rule row names.
_KINDS: Dict[str, _Kind] = {
    "pos_int": _Kind("a positive int", lambda v: isinstance(v, int) and v > 0),
    "nonneg_int": _Kind("a non-negative int", lambda v: isinstance(v, int) and v >= 0),
    "nonneg_num": _Kind(
        "a non-negative number", lambda v: isinstance(v, _NUMBER) and v >= 0
    ),
    "text": _Kind("a non-empty string", lambda v: isinstance(v, str) and v != ""),
    "param": _Kind(
        "a positive number or a non-empty string",
        lambda v: (isinstance(v, _NUMBER) and v > 0) or (isinstance(v, str) and v != ""),
    ),
    "sha": _Kind(
        "null or a 40-digit hex commit id",
        lambda v: v is None
        or (isinstance(v, str) and len(v) == 40 and set(v) <= _HEX),
    ),
}

#: Stands in for an absent key; no kind accepts it.
_MISSING = object()

_Rules = Tuple[Tuple[str, _Kind], ...]


def _show(value: Any) -> str:
    return "missing" if value is _MISSING else reprlib.repr(value)


def _rules(**table: str) -> _Rules:
    """``kind="path ..."`` as ``(path, kind)`` rows."""
    return tuple(
        (path, _KINDS[kind])
        for kind, paths in table.items()
        for path in paths.split()
    )


def _walk(node: Any, steps: Sequence[str], name: str, kind: _Kind) -> None:
    """Check that every field ``steps`` reach from ``node`` is ``kind``."""
    if not steps:
        _require(kind.accepts(node), f"{name} must be {kind.text}: {_show(node)}")
        return
    step, rest = steps[0], steps[1:]
    _require(isinstance(node, dict), f"{name or 'record'} must be an object")
    if step == "*":
        for key, value in node.items():
            _walk(value, rest, f"{name}[{key!r}]", kind)
        return
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


_RECORD_RULES = _rules(
    text="suite name",
    param="key/*",
    sha="sha",
    pos_int="nproc",
    nonneg_num="metrics/*",
    nonneg_int="counters/*",
)


def validate_record(record: Dict[str, Any]) -> None:
    """Validate one benchmark record against the one record contract.

    Every field must hold its kind and no other field may appear, so a
    payload of an older format (a ``schema_version`` stamp, nested
    sections) is rejected with the first foreign field named.
    """
    _require(isinstance(record, dict), "record must be an object")
    fields = {path.split("/")[0] for path, _ in _RECORD_RULES}
    for field in record:
        _require(field in fields, f"{field} is not a record field")
    _check_rules(record, _RECORD_RULES)
