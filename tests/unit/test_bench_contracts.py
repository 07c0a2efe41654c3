"""Every checked-in benchmark record holds its contract and its claims.

The record contract's rule table (:mod:`repro.obs.schema`) is read here,
not restated: for each row, every field the row reaches in each
checked-in record is set to each candidate value its kind rejects (and
deleted, where the row names the field by key), and the validator must
raise a :class:`TraceSchemaError` whose message starts with that field's
name. Every row of ``benchmarks/claims.py``'s ``CLAIMS`` table has a
doctoring of the checked-in records below that fails exactly that row.
"""

import copy
import importlib
import inspect

import pytest

import claims
import records
from repro.obs import TraceSchemaError, validate_record
from repro.obs import schema

#: Candidate bad values; each row is tried with those its kind rejects.
_SHA = "0123456789abcdef" * 2 + "01234567"
_VALUES = [None, True, False, 0, 1, -1, 0.5, -0.5, "", "x", _SHA, [], {}, [1], {"a": 1}]

#: The candidates each kind accepts. The row test draws its bad values
#: from the kinds' predicates, so those are pinned here; bools pass as
#: ints, as they do in Python.
_ACCEPTED = {
    "pos_int": [True, 1],
    "nonneg_int": [True, False, 0, 1],
    "nonneg_num": [True, False, 0, 1, 0.5],
    "text": ["x", _SHA],
    "param": [True, 1, 0.5, "x", _SHA],
    "sha": [None, _SHA],
}


def _run(suite):
    """The last run of the suite's checked-in records, by name."""
    *_, last = claims.runs(claims.load(records.RESULTS_DIR / f"{suite}.jsonl"))
    return {r["name"]: r for r in last}


def _reached(node, steps, name=""):
    """Yield ``(container, key, name, wildcard)`` per field ``steps`` reach."""
    step, rest = steps[0], steps[1:]
    wildcard = step == "*"
    for key in (list(node) if wildcard else [step]):
        child = f"{name}[{key!r}]" if wildcard else (f"{name}.{key}" if name else key)
        if rest:
            yield from _reached(node[key], rest, child)
        else:
            yield node, key, child, wildcard


def _rejects(record, name):
    with pytest.raises(TraceSchemaError) as info:
        validate_record(record)
    assert str(info.value).startswith(f"{name} "), str(info.value)


def test_every_kind_and_contract_is_covered():
    assert set(schema._KINDS) == set(_ACCEPTED)
    assert [path for path, _ in schema._RECORD_RULES] == [
        "suite", "name", "key/*", "sha", "nproc", "metrics/*", "counters/*",
    ]
    checked_in = {path.stem for path in records.RESULTS_DIR.glob("*.jsonl")}
    assert checked_in == set(claims.SUITES)
    assert set(_MUTATIONS) == {(c.suite, c.text) for c in claims.CLAIMS}


@pytest.mark.parametrize("kind", sorted(_ACCEPTED))
def test_kind_accepts_exactly(kind):
    got = [value for value in _VALUES if schema._KINDS[kind].accepts(value)]
    assert [repr(value) for value in got] == [repr(v) for v in _ACCEPTED[kind]]


@pytest.mark.parametrize("suite", claims.SUITES)
def test_committed_payload_validates(suite):
    run = _run(suite)
    claims.check(list(run.values()), suite)
    assert claims.main([str(records.RESULTS_DIR / f"{suite}.jsonl")]) == 0


@pytest.mark.parametrize("suite", claims.SUITES)
def test_stamp_is_checked(suite):
    run = list(_run(suite).values())
    assert all(r["sha"] is not None and r["nproc"] >= 1 for r in run)
    other = next(s for s in claims.SUITES if s != suite)
    with pytest.raises(TraceSchemaError, match="known suite"):
        claims.check(run, other)
    bad = copy.deepcopy(run)
    bad[0]["suite"] = other
    with pytest.raises(TraceSchemaError, match="known suite"):
        claims.check(bad, suite)
    with pytest.raises(TraceSchemaError, match="each record name once"):
        claims.check(run + run)
    for field in ("schema_version", "benchmark", "workload"):
        bad = copy.deepcopy(run)
        bad[0][field] = 1
        _rejects(bad[0], field)


@pytest.mark.parametrize("suite", claims.SUITES)
def test_every_rule_row_rejects_its_bad_fields(suite):
    for record in _run(suite).values():
        for path, kind in schema._RECORD_RULES:
            bad = [value for value in _VALUES if not kind.accepts(value)]
            assert bad, f"no candidate value breaks row {path!r}"
            fields = list(_reached(record, path.split("/")))
            for container, key, name, wildcard in fields:
                original = container[key]
                for value in bad:
                    container[key] = value
                    _rejects(record, name)
                if not wildcard:
                    del container[key]
                    _rejects(record, name)
                container[key] = original
            if path.endswith("/*"):
                section = path.split("/")[0]
                original = record[section]
                record[section] = [1]
                _rejects(record, section)
                record[section] = original
        validate_record(record)


#: Each suite's bench function, which its main runs with the flags.
_RUNS = {
    "kernels": "run_backend_shootout",
    "session": "run_session_benchmark",
    "server": "run_server_benchmark",
    "parallel": "run_parallel_benchmark",
    "storage": "run_storage_benchmark",
    "dynamic": "run_dynamic_benchmark",
}


@pytest.mark.parametrize("suite", claims.SUITES)
def test_each_bench_main_appends_checked_records(suite, tmp_path, monkeypatch):
    bench = importlib.import_module(f"bench_{suite}")
    real = getattr(bench, _RUNS[suite])
    run = list(_run(suite).values())

    def measured(**params):
        inspect.signature(real).bind(**params)  # every flag is a parameter
        return run

    monkeypatch.setattr(bench, _RUNS[suite], measured)
    out = tmp_path / f"{suite}.jsonl"
    assert bench.main(["--output", str(out)]) == 0
    assert bench.main(["--output", str(out)]) == 0
    assert list(claims.runs(claims.load(out))) == [run, run]


def _set(name, section, field, value):
    def doctor(run):
        run[name][section][field] = value(run[name][section][field])
    return doctor


def _bump(x):
    return x + 1


#: Each suite's "present and above zero" row, by suite.
_POSITIVE = {
    c.suite: c.text for c in claims.CLAIMS if c.text.startswith("present and above zero")
}

#: (suite, claim) -> a doctoring of the checked-in run that fails only it.
_MUTATIONS = {
    ("kernels", "each backend's record names the kernel that ran"):
        _set("scalar", "key", "kernel", lambda x: 7),
    ("kernels", "speedup_vs_scalar = scalar's seconds_per_call / the backend's"):
        _set("numpy", "metrics", "speedup_vs_scalar", _bump),
    ("session", "total_queries = distinct x repeats"):
        _set("repeated_queries", "key", "repeats", _bump),
    ("session", "prep cache hits + misses = total_queries"):
        _set("repeated_queries", "counters", "prep_hits", _bump),
    ("session", "one-shot and session match counts agree"):
        _set("repeated_queries", "counters", "matches_agree", lambda x: 0),
    ("session", "speedup_session_vs_one_shot = one_shot_seconds / session_seconds"):
        _set("repeated_queries", "metrics", "speedup_session_vs_one_shot", _bump),
    ("session", _POSITIVE["session"]):
        lambda run: run["repeated_queries"]["metrics"].pop("session_seconds_per_query"),
    ("server", "total_requests = clients x requests_per_client"):
        _set("coalescing_off", "key", "clients", _bump),
    ("server", "p99_ms >= p50_ms"):
        _set("coalescing_off", "metrics", "p50_ms", lambda x: 1e9),
    ("server", "serve.completed = total_requests"):
        _set("coalescing_off", "counters", "serve.completed", _bump),
    ("server", "coalescing executes no more often than no coalescing"):
        _set("coalescing_off", "counters", "serve.executed", lambda x: 0),
    ("server", "both modes agree on every match count"):
        _set("coalescing_on", "counters", "results_agree", lambda x: 0),
    ("server", "speedup_effective_qps = qps on / qps off"):
        _set("coalescing_on", "metrics", "speedup_effective_qps", _bump),
    ("server", _POSITIVE["server"]):
        _set("coalescing_off", "metrics", "seconds_total", lambda x: 0),
    ("parallel", "speedup_source is measured or counted"):
        _set("query0", "key", "speedup_source", lambda x: "guessed"),
    ("parallel", "a measured speedup ran on at least 4 CPUs"):
        lambda run: run["query0"].update(
            nproc=2, key=dict(run["query0"]["key"], speedup_source="measured")),
    ("parallel", "one record per query"):
        _set("overall", "key", "queries", _bump),
    ("parallel", "each query ran 1..chunks chunks, each timed and counted"):
        _set("query0", "key", "chunks", lambda x: 1),
    ("parallel", "each query has a 4-worker speedup above zero"):
        lambda run: run["query1"]["metrics"].pop("speedup_4"),
    ("parallel", "parallel embeddings are byte-identical to sequential"):
        _set("query1", "counters", "embeddings_identical", lambda x: 0),
    ("parallel", f"overall 4-worker speedup >= {claims.MIN_PARALLEL_SPEEDUP}"):
        _set("overall", "metrics", "speedup_4", lambda x: 1.0),
    ("parallel", "no shared-memory segment leaked (shm_segments_leaked = 0)"):
        _set("query0", "counters", "shm_segments_leaked", _bump),
    ("parallel", _POSITIVE["parallel"]):
        _set("query2", "metrics", "sequential_seconds", lambda x: 0),
    ("storage", "mmap_overhead = mmap_seconds / in_memory_seconds"):
        _set("warm", "metrics", "mmap_overhead", lambda x: 0.01),
    ("storage", f"mmap_overhead <= {claims.MAX_MMAP_WARM_OVERHEAD}"):
        lambda run: run["warm"]["metrics"].update(
            mmap_seconds=2 * run["warm"]["metrics"]["in_memory_seconds"],
            mmap_overhead=2.0,
        ),
    ("storage", "the out-of-core arrays exceed the memory budget"):
        lambda run: run["out_of_core"]["counters"].update(
            memory_budget_bytes=run["out_of_core"]["counters"]["array_bytes"]
        ),
    ("storage", "rss_ratio = mmap_peak_rss_bytes / in_memory_peak_rss_bytes"):
        _set("out_of_core", "metrics", "rss_ratio", lambda x: 0.01),
    ("storage", f"rss_ratio <= {claims.MAX_OUT_OF_CORE_RSS_RATIO}"):
        lambda run: run["out_of_core"].update(
            metrics=dict(run["out_of_core"]["metrics"], rss_ratio=1.0),
            counters=dict(
                run["out_of_core"]["counters"],
                mmap_peak_rss_bytes=run["out_of_core"]["counters"][
                    "in_memory_peak_rss_bytes"
                ],
            ),
        ),
    ("storage", "every backend returned identical results"):
        _set("warm", "counters", "results_identical", lambda x: 0),
    ("storage", "nothing leaked"):
        _set("out_of_core", "counters", "shm_segments_leaked", _bump),
    ("storage", _POSITIVE["storage"]):
        _set("warm", "metrics", "shm_seconds", lambda x: 0),
    ("dynamic", "churn_fraction <= 1"):
        _set("maintenance", "key", "churn_fraction", lambda x: 2),
    ("dynamic", "speedup_incremental_vs_scratch = scratch / incremental seconds"):
        _set("maintenance", "metrics", "speedup_incremental_vs_scratch", _bump),
    ("dynamic", "speedup_counted = scratch_entries / incremental_entries"):
        _set("maintenance", "metrics", "speedup_counted", _bump),
    ("dynamic", f"speedup_counted >= {claims.MIN_DYNAMIC_SPEEDUP}"):
        lambda run: run["maintenance"].update(
            metrics=dict(run["maintenance"]["metrics"], speedup_counted=2.0),
            counters=dict(
                run["maintenance"]["counters"],
                scratch_entries=2 * run["maintenance"]["counters"]["incremental_entries"],
            ),
        ),
    ("dynamic", "the incremental state and final match equal a rebuild's"):
        _set("maintenance", "counters", "states_identical", lambda x: 0),
    ("dynamic", _POSITIVE["dynamic"]):
        _set("maintenance", "counters", "ops_total", lambda x: 0),
    ("dynamic", "nothing leaked"):
        _set("maintenance", "counters", "tempfiles_leaked", _bump),
}


@pytest.mark.parametrize(
    "claim", claims.CLAIMS, ids=[f"{c.suite}: {c.text}" for c in claims.CLAIMS]
)
def test_each_claim_fails_alone_on_its_doctored_record(claim):
    run = copy.deepcopy(_run(claim.suite))
    assert claims.failures(list(run.values())) == []
    _MUTATIONS[claim.suite, claim.text](run)
    assert claims.failures(list(run.values())) == [claim]
