"""Unit tests for repro.obs: tracer, metrics registry, schema validators."""

import json
import threading

import pytest

import claims
from fixtures import PAPER_DATA, PAPER_QUERY

from repro.core import match
from repro.enumeration.stats import EnumerationStats
from repro.obs import (
    Metrics,
    TraceSchemaError,
    Tracer,
    add_counter,
    collecting,
    get_metrics,
    get_tracer,
    record_stage,
    set_tracer,
    span,
    tracing,
    validate_record,
    validate_trace_file,
    validate_trace_lines,
)


class TestTracer:
    def test_spans_nest(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["inner"].parent == by_name["outer"].span_id
        assert by_name["inner"].depth == 1
        assert by_name["outer"].depth == 0
        assert by_name["outer"].parent is None

    def test_durations_nonnegative_and_nested(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {s.name: s for s in tracer.spans}
        inner, outer = by_name["inner"], by_name["outer"]
        assert 0 <= inner.duration <= outer.duration
        assert outer.start <= inner.start and inner.end <= outer.end

    def test_attrs_and_annotate(self):
        tracer = Tracer()
        with tracer.span("phase", algorithm="GQL") as s:
            s.annotate(matches=7)
        (finished,) = tracer.spans
        assert finished.attrs == {"algorithm": "GQL", "matches": 7}

    def test_exception_still_records_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert [s.name for s in tracer.spans] == ["doomed"]

    def test_sibling_spans_share_parent(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["a"].parent == by_name["root"].span_id
        assert by_name["b"].parent == by_name["root"].span_id

    def test_total_seconds(self):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        with tracer.span("x"):
            pass
        assert tracer.total_seconds("x") == pytest.approx(
            sum(s.duration for s in tracer.spans)
        )
        assert tracer.total_seconds("missing") == 0.0


class TestAmbientTracing:
    def test_disabled_span_is_noop(self):
        assert get_tracer() is None
        with span("anything", attr=1) as s:
            s.annotate(more=2)  # must not raise
        assert get_tracer() is None

    def test_tracing_installs_and_restores(self):
        tracer = Tracer()
        with tracing(tracer):
            assert get_tracer() is tracer
            with span("seen"):
                pass
        assert get_tracer() is None
        assert [s.name for s in tracer.spans] == ["seen"]

    def test_nested_tracing_restores_outer(self):
        outer, inner = Tracer(), Tracer()
        with tracing(outer):
            with tracing(inner):
                with span("deep"):
                    pass
            assert get_tracer() is outer
        assert [s.name for s in inner.spans] == ["deep"]
        assert outer.spans == []

    def test_thread_isolation(self):
        tracer = Tracer()
        seen_in_thread = []

        def worker():
            seen_in_thread.append(get_tracer())

        with tracing(tracer):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert seen_in_thread == [None]

    def test_set_tracer_returns_previous(self):
        tracer = Tracer()
        assert set_tracer(tracer) is None
        assert set_tracer(None) is tracer


class TestMetrics:
    def test_add_and_get(self):
        m = Metrics()
        m.add("x")
        m.add("x", 4)
        assert m.counters["x"] == 5

    def test_record_stage_tracks_initial_final_pruned(self):
        m = Metrics()
        m.record_stage("ldf", 100)
        m.record_stage("nlf", 60)
        m.record_stage("refine", 45)
        assert m.counters["filter.candidates_initial"] == 100
        assert m.counters["filter.candidates_final"] == 45
        assert m.counters["filter.pruned"] == 55
        assert [s.rule for s in m.filter_stages] == ["ldf", "nlf", "refine"]

    def test_record_enumeration(self):
        m = Metrics()
        stats = EnumerationStats(
            recursion_calls=10, candidates_scanned=20, conflicts=3,
            failing_set_prunes=1,
        )
        m.record_enumeration(stats)
        assert m.counters["enumerate.recursion_calls"] == 10
        assert m.counters["enumerate.candidates_scanned"] == 20
        assert m.counters["enumerate.conflicts"] == 3
        assert m.counters["enumerate.failing_set_prunes"] == 1

    def test_merge_sums(self):
        a = Metrics(counters={"x": 1, "y": 2}, phase_seconds={"filter": 0.5})
        b = Metrics(counters={"y": 3, "z": 4}, phase_seconds={"filter": 0.25})
        merged = a.merge(b)
        assert merged.counters == {"x": 1, "y": 5, "z": 4}
        assert merged.phase_seconds == {"filter": 0.75}

    def test_merge_drops_stage_diagnostics(self):
        a = Metrics()
        a.record_stage("ldf", 10)
        merged = a.merge(Metrics())
        assert merged.filter_stages == ()
        assert merged.counters["filter.candidates_initial"] == 10

    def test_dict_round_trip(self):
        m = Metrics()
        m.add("enumerate.recursion_calls", 7)
        m.record_stage("ldf", 12)
        m.record_phase("filter", 0.125)
        assert Metrics.from_dict(m.to_dict()) == m
        # and it is JSON-serializable as written
        assert json.loads(json.dumps(m.to_dict())) == m.to_dict()

    def test_ambient_collection(self):
        m = Metrics()
        assert get_metrics() is None
        add_counter("ignored")  # no sink installed: no-op
        record_stage("ignored", 5)
        with collecting(m):
            assert get_metrics() is m
            add_counter("seen", 2)
            record_stage("ldf", 9)
        assert get_metrics() is None
        assert m.counters["seen"] == 2
        assert m.counters["filter.candidates_initial"] == 9


class TestTraceSchema:
    def _trace_lines(self):
        tracer = Tracer()
        with tracer.span("match"):
            with tracer.span("filter"):
                pass
            with tracer.span("enumerate"):
                pass
        return [json.dumps(r) for r in tracer.to_dicts()]

    def test_valid_trace_passes(self):
        summary = validate_trace_lines(self._trace_lines())
        assert summary["spans"] == 3
        assert summary["roots"] == 1
        assert summary["names"] == {"match": 1, "filter": 1, "enumerate": 1}

    def test_write_jsonl_round_trips(self, tmp_path):
        tracer = Tracer()
        with tracer.span("match"):
            with tracer.span("filter"):
                pass
        path = tmp_path / "trace.jsonl"
        assert tracer.write_jsonl(str(path)) == 2
        summary = validate_trace_file(str(path))
        assert summary["spans"] == 2

    def test_missing_header_rejected(self):
        lines = self._trace_lines()[1:]
        with pytest.raises(TraceSchemaError, match="meta header"):
            validate_trace_lines(lines)

    def test_bad_span_count_rejected(self):
        lines = self._trace_lines()
        header = json.loads(lines[0])
        header["spans"] = 99
        with pytest.raises(TraceSchemaError, match="declares"):
            validate_trace_lines([json.dumps(header)] + lines[1:])

    def test_duplicate_ids_rejected(self):
        lines = self._trace_lines()
        header = json.loads(lines[0])
        header["spans"] += 1
        with pytest.raises(TraceSchemaError, match="duplicate span id"):
            validate_trace_lines([json.dumps(header)] + lines[1:] + [lines[-1]])

    def test_non_json_rejected(self):
        with pytest.raises(TraceSchemaError, match="not valid JSON"):
            validate_trace_lines(["{nope"])

    def test_span_without_parent_rejected(self):
        lines = self._trace_lines()
        child = json.loads(lines[2])
        del child["parent"]
        lines[2] = json.dumps(child)
        with pytest.raises(TraceSchemaError, match="parent"):
            validate_trace_lines(lines)

    def test_negative_duration_rejected(self):
        bad = {
            "type": "span", "id": 0, "parent": None, "name": "x",
            "depth": 0, "start": 2.0, "end": 1.0, "duration": -1.0,
            "attrs": {},
        }
        header = {"type": "meta", "schema": "repro.trace/v1", "spans": 1}
        with pytest.raises(TraceSchemaError):
            validate_trace_lines([json.dumps(header), json.dumps(bad)])


class TestBenchKernelsSchema:
    """A kernels record against the one record contract and its claims."""

    def _run(self):
        def record(name, seconds):
            return {
                "suite": "kernels", "name": name,
                "key": {"universe": 1000, "array_size": 100, "kernel": name},
                "sha": None, "nproc": 2,
                "metrics": {"seconds_per_call": seconds,
                            "speedup_vs_scalar": 1e-3 / seconds},
                "counters": {},
            }

        return [record("scalar", 1e-3), record("numpy", 1e-4)]

    def test_valid_payload_passes(self):
        for record in self._run():
            validate_record(record)
        claims.check(self._run(), "kernels")

    def test_wrong_version_rejected(self):
        record = self._run()[0]
        record["schema_version"] = 1
        with pytest.raises(TraceSchemaError, match="schema_version"):
            validate_record(record)

    def test_kernels_must_cover_timings(self):
        run = self._run()
        del run[1]["key"]["kernel"]
        with pytest.raises(TraceSchemaError, match="names the kernel"):
            claims.check(run)

    def test_nonpositive_timing_rejected(self):
        run = self._run()
        run[0]["metrics"]["seconds_per_call"] = 0.0
        with pytest.raises(TraceSchemaError, match="seconds_per_call"):
            claims.check(run)


class TestMatchIntegration:
    """match() emits the documented spans and counters."""

    @pytest.mark.parametrize("algorithm", ["GQL", "CFL", "CECI", "DP"])
    def test_phase_spans_present(self, algorithm):
        tracer = Tracer()
        with tracing(tracer):
            match(PAPER_QUERY, PAPER_DATA, algorithm=algorithm)
        names = {s.name for s in tracer.spans}
        assert {"match", "filter", "order", "enumerate"} <= names

    def test_phase_spans_cover_match_span(self):
        tracer = Tracer()
        with tracing(tracer):
            match(PAPER_QUERY, PAPER_DATA, algorithm="GQL")
        total = tracer.total_seconds("match")
        phases = sum(
            tracer.total_seconds(name)
            for name in ("filter", "order", "enumerate")
        )
        assert phases <= total
        # resolve/assembly glue between the phases is a sliver of the run
        assert phases >= 0.5 * total

    def test_metrics_attached_to_result(self):
        result = match(PAPER_QUERY, PAPER_DATA, algorithm="DP")
        counters = result.metrics.counters
        assert counters["enumerate.recursion_calls"] == result.stats.recursion_calls
        assert counters["filter.candidates_final"] >= 0
        assert result.metrics.filter_stages  # DP records ldf + 3 phases
        assert set(result.metrics.phase_seconds) == {"filter", "order", "enumerate"}

    def test_trace_valid_jsonl(self, tmp_path):
        tracer = Tracer()
        with tracing(tracer):
            match(PAPER_QUERY, PAPER_DATA, algorithm="CECI")
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(str(path))
        summary = validate_trace_file(str(path))
        assert summary["names"]["match"] == 1
