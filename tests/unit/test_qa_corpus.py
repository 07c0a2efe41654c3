"""Unit tests for the JSON repro corpus (schema, round-trip, replay)."""

import json

import pytest

from repro.graph import Graph
from repro.qa import (
    CORPUS_SCHEMA,
    graph_from_json,
    graph_to_json,
    iter_corpus,
    load_repro,
    plant_case,
    replay_repro,
    save_repro,
)
from repro.qa.corpus import corpus_summary, make_record

QUERY = Graph(labels=[0, 1, 0], edges=[(0, 1), (1, 2)])
DATA = Graph(labels=[0, 1, 0, 1], edges=[(0, 1), (1, 2), (2, 3)])


def _record(**overrides):
    base = dict(
        kind="count_mismatch",
        query=QUERY,
        data=DATA,
        config_a={"algorithm": "GQL", "kernel": None, "mode": "oneshot"},
        config_b={"algorithm": "CECI", "kernel": None, "mode": "oneshot"},
        seed=42,
        detail="unit fixture",
    )
    base.update(overrides)
    return make_record(**base)


class TestGraphJson:
    def test_round_trip(self):
        for graph in (QUERY, DATA, plant_case(2).data):
            assert graph_from_json(graph_to_json(graph)) == graph

    def test_json_serializable(self):
        payload = graph_to_json(DATA)
        assert graph_from_json(json.loads(json.dumps(payload))) == DATA


class TestRecords:
    def test_make_record_shape(self):
        record = _record()
        assert record["schema"] == CORPUS_SCHEMA
        assert record["kind"] == "count_mismatch"
        assert record["planted"] is None
        assert "match_limit" not in record
        assert graph_from_json(record["query"]) == QUERY

    def test_make_record_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown divergence kind"):
            _record(kind="cosmic_rays")

    def test_save_load_round_trip(self, tmp_path):
        record = _record()
        path = save_repro(str(tmp_path / "sub" / "repro.json"), record)
        assert load_repro(path) == record

    def test_save_rejects_wrong_schema(self, tmp_path):
        record = _record()
        record["schema"] = "repro.qa/v0"
        with pytest.raises(ValueError, match="refusing to save"):
            save_repro(str(tmp_path / "bad.json"), record)

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/v1"}))
        with pytest.raises(ValueError, match="unsupported schema"):
            load_repro(str(path))

    def test_load_rejects_missing_keys(self, tmp_path):
        record = _record()
        del record["data"]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(record))
        with pytest.raises(ValueError, match="missing 'data'"):
            load_repro(str(path))


class TestCorpusDirectory:
    def test_iter_corpus_sorted_and_filtered(self, tmp_path):
        for name in ("b.json", "a.json", "notes.txt"):
            save_repro(str(tmp_path / name), _record()) if name.endswith(
                ".json"
            ) else (tmp_path / name).write_text("ignored")
        paths = [p for p, _ in iter_corpus(str(tmp_path))]
        assert [p.rsplit("/", 1)[1] for p in paths] == ["a.json", "b.json"]

    def test_iter_corpus_missing_directory(self, tmp_path):
        assert list(iter_corpus(str(tmp_path / "absent"))) == []

    def test_corpus_summary(self, tmp_path):
        save_repro(str(tmp_path / "one.json"), _record())
        (row,) = corpus_summary(str(tmp_path))
        assert row["kind"] == "count_mismatch"
        assert row["query_vertices"] == QUERY.num_vertices
        assert row["data_vertices"] == DATA.num_vertices


class TestReplay:
    def test_healthy_comparison_does_not_reproduce(self):
        # GQL and CECI agree on this pair, so the recorded "divergence"
        # is gone — exactly what a fixed bug looks like.
        assert replay_repro(_record()) is False

    def test_impossible_algorithm_reproduces_as_crash(self):
        record = _record(kind="crash")
        record["config_a"]["algorithm"] = "NO-SUCH-PRESET"
        assert replay_repro(record) is True
