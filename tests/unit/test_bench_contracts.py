"""Every committed BENCH_*.json validates, and every rule row rejects.

The rule tables of :mod:`repro.obs.schema` are read here, not restated:
for each row, every field the row reaches in the committed payload is set
to each candidate value its kind rejects (and deleted, where the row
names the field by key), and the validator must raise a
:class:`TraceSchemaError` whose message starts with that field's name.
A row added to a table later is covered without editing this file.
"""

import json
from pathlib import Path

import pytest

from repro.obs import (
    TraceSchemaError,
    validate_bench_dynamic,
    validate_bench_kernels,
    validate_bench_parallel,
    validate_bench_server,
    validate_bench_session,
    validate_bench_storage,
)
from repro.obs import schema

_REPO = Path(__file__).resolve().parents[2]

_CONTRACTS = {
    "BENCH_kernels.json": (validate_bench_kernels, schema._KERNELS),
    "BENCH_session.json": (validate_bench_session, schema._SESSION),
    "BENCH_server.json": (validate_bench_server, schema._SERVER),
    "BENCH_parallel.json": (validate_bench_parallel, schema._PARALLEL),
    "BENCH_storage.json": (validate_bench_storage, schema._STORAGE),
    "BENCH_dynamic.json": (validate_bench_dynamic, schema._DYNAMIC),
}

#: Candidate bad values; each row is tried with those its kind rejects.
_VALUES = [None, True, False, 0, 1, -1, 0.5, -0.5, "", "x", [], {}, [1], {"a": 1}]

#: The candidates each kind accepts. The row test draws its bad values
#: from the kinds' predicates, so those are pinned here; bools pass as
#: ints, as they do in Python.
_ACCEPTED = {
    "pos_int": [True, 1],
    "nonneg_int": [True, False, 0, 1],
    "pos_num": [True, 1, 0.5],
    "nonneg_num": [True, False, 0, 1, 0.5],
    "text": ["x"],
    "true": [True],
    "zero": [False, 0],
}


def _load(filename):
    return json.loads((_REPO / filename).read_text())


def _field_name(name, key, wildcard):
    if wildcard or "." in str(key):
        return f"{name}[{key!r}]"
    return f"{name}.{key}" if name else key


def _reached(node, steps, name=""):
    """Yield ``(container, key, name, wildcard)`` per field ``steps`` reach."""
    step, rest = steps[0], steps[1:]
    wildcard = step == "*"
    if wildcard:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    else:
        keys = [step]
    for key in keys:
        child = _field_name(name, key, wildcard)
        if rest:
            yield from _reached(node[key], rest, child)
        else:
            yield node, key, child, wildcard


def _rejects(validate, payload, name):
    with pytest.raises(TraceSchemaError) as info:
        validate(payload)
    assert str(info.value).startswith(f"{name} must be "), str(info.value)


def test_every_kind_and_contract_is_covered():
    assert set(schema._KINDS) == set(_ACCEPTED)
    contracts = {
        value
        for value in vars(schema).values()
        if isinstance(value, schema._Contract)
    }
    assert contracts == {contract for _, contract in _CONTRACTS.values()}


@pytest.mark.parametrize("kind", sorted(_ACCEPTED))
def test_kind_accepts_exactly(kind):
    got = [value for value in _VALUES if schema._KINDS[kind].accepts(value)]
    assert [repr(value) for value in got] == [repr(v) for v in _ACCEPTED[kind]]


@pytest.mark.parametrize("filename", sorted(_CONTRACTS))
def test_committed_payload_validates(filename):
    validate, _ = _CONTRACTS[filename]
    validate(_load(filename))


@pytest.mark.parametrize("filename", sorted(_CONTRACTS))
def test_stamp_is_checked(filename):
    validate, contract = _CONTRACTS[filename]
    payload = _load(filename)
    payload["schema_version"] = contract.version + 1
    with pytest.raises(TraceSchemaError, match="schema_version"):
        validate(payload)
    payload = _load(filename)
    payload["benchmark"] = "something-else"
    with pytest.raises(TraceSchemaError, match="benchmark id"):
        validate(payload)


@pytest.mark.parametrize("filename", sorted(_CONTRACTS))
def test_every_rule_row_rejects_its_bad_fields(filename):
    validate, contract = _CONTRACTS[filename]
    payload = _load(filename)
    for path, kind in contract.rules:
        bad = [value for value in _VALUES if not kind.accepts(value)]
        assert bad, f"no candidate value breaks row {path!r}"
        fields = list(_reached(payload, path.split("/")))
        assert fields, f"row {path!r} reaches nothing in {filename}"
        for container, key, name, wildcard in fields:
            original = container[key]
            for value in bad:
                container[key] = value
                _rejects(validate, payload, name)
            if not wildcard:
                del container[key]
                _rejects(validate, payload, name)
            container[key] = original
    validate(payload)
