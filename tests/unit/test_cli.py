"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.graph import Graph, load_graph, save_graph


@pytest.fixture
def graph_files(tmp_path):
    data = Graph(
        labels=[0, 1, 0, 1, 0],
        edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)],
    )
    query = Graph(labels=[0, 1, 0], edges=[(0, 1), (1, 2)])
    data_path = tmp_path / "data.graph"
    query_path = tmp_path / "query.graph"
    save_graph(data, data_path)
    save_graph(query, query_path)
    return str(query_path), str(data_path)


class TestMatchCommand:
    def test_basic(self, graph_files, capsys):
        query_path, data_path = graph_files
        code = main(["match", "-q", query_path, "-d", data_path, "-a", "GQL"])
        out = capsys.readouterr().out
        assert code == 0
        assert "matches" in out
        assert "GQL" in out

    def test_glasgow(self, graph_files, capsys):
        query_path, data_path = graph_files
        code = main(["match", "-q", query_path, "-d", data_path, "-a", "GLW"])
        assert code == 0
        assert "GLW" in capsys.readouterr().out

    @pytest.mark.parametrize("kernel", ["scalar", "numpy", "bitset"])
    def test_kernel_flag(self, graph_files, capsys, kernel):
        query_path, data_path = graph_files
        code = main(
            ["match", "-q", query_path, "-d", data_path, "-a", "CECI",
             "--kernel", kernel]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert f"kernel        : {kernel}" in out

    def test_kernel_flag_rejects_unknown(self, graph_files, capsys):
        query_path, data_path = graph_files
        with pytest.raises(SystemExit):
            main(["match", "-q", query_path, "-d", data_path,
                  "--kernel", "simd512"])

    def test_counts_agree(self, graph_files, capsys):
        query_path, data_path = graph_files
        main(["match", "-q", query_path, "-d", data_path, "-a", "GQL"])
        gql_out = capsys.readouterr().out
        main(["match", "-q", query_path, "-d", data_path, "-a", "RIfs"])
        ri_out = capsys.readouterr().out

        def count(out):
            for line in out.splitlines():
                if line.startswith("matches"):
                    return int(line.split(":")[1])
            raise AssertionError(out)

        assert count(gql_out) == count(ri_out)


class TestObservabilityFlags:
    def test_trace_writes_valid_jsonl(self, graph_files, tmp_path, capsys):
        from repro.obs import validate_trace_file

        query_path, data_path = graph_files
        trace_path = tmp_path / "trace.jsonl"
        code = main(
            ["match", "-q", query_path, "-d", data_path, "-a", "CFL",
             "--trace", str(trace_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "trace" in out
        summary = validate_trace_file(str(trace_path))
        assert summary["names"]["match"] == 1
        for phase in ("filter", "order", "enumerate"):
            assert summary["names"][phase] == 1

    def test_metrics_out_writes_counters(self, graph_files, tmp_path, capsys):
        import json

        query_path, data_path = graph_files
        metrics_path = tmp_path / "metrics.json"
        code = main(
            ["match", "-q", query_path, "-d", data_path, "-a", "GQL",
             "--metrics-out", str(metrics_path)]
        )
        assert code == 0
        payload = json.loads(metrics_path.read_text())
        assert payload["counters"]["enumerate.recursion_calls"] > 0
        assert "filter.candidates_final" in payload["counters"]
        assert set(payload["phase_seconds"]) == {"filter", "order", "enumerate"}
        assert payload["filter_stages"]

    def test_trace_and_metrics_together(self, graph_files, tmp_path, capsys):
        query_path, data_path = graph_files
        code = main(
            ["match", "-q", query_path, "-d", data_path, "-a", "CECI",
             "--trace", str(tmp_path / "t.jsonl"),
             "--metrics-out", str(tmp_path / "m.json")]
        )
        assert code == 0
        assert (tmp_path / "t.jsonl").exists()
        assert (tmp_path / "m.json").exists()

    def test_no_tracer_left_installed_after_run(self, graph_files, tmp_path):
        from repro.obs import get_tracer

        query_path, data_path = graph_files
        main(
            ["match", "-q", query_path, "-d", data_path, "-a", "CFL",
             "--trace", str(tmp_path / "trace.jsonl")]
        )
        assert get_tracer() is None


class TestCompareCommand:
    def test_table_printed(self, graph_files, capsys):
        query_path, data_path = graph_files
        code = main(
            [
                "compare", "-q", query_path, "-d", data_path,
                "-a", "GQL", "RI", "GLW",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        for name in ("GQL", "RI", "GLW"):
            assert name in out


class TestGenerateAndExtract:
    def test_generate_rmat(self, tmp_path, capsys):
        out_path = tmp_path / "g.graph"
        code = main(
            [
                "generate", "--model", "rmat", "-n", "200",
                "--degree", "6", "--labels", "4", "--seed", "1",
                "--clustering", "0.3", "-o", str(out_path),
            ]
        )
        assert code == 0
        g = load_graph(out_path)
        assert g.num_vertices == 200

    def test_generate_er(self, tmp_path):
        out_path = tmp_path / "g.graph"
        assert (
            main(
                [
                    "generate", "--model", "er", "-n", "50",
                    "--degree", "4", "--labels", "3", "-o", str(out_path),
                ]
            )
            == 0
        )
        assert load_graph(out_path).num_vertices == 50

    def test_extract_query(self, tmp_path, capsys):
        data_path = tmp_path / "g.graph"
        query_path = tmp_path / "q.graph"
        main(
            [
                "generate", "--model", "rmat", "-n", "300", "--degree", "8",
                "--labels", "4", "--seed", "2", "--clustering", "0.3",
                "-o", str(data_path),
            ]
        )
        code = main(
            [
                "extract-query", "-d", str(data_path), "-s", "6",
                "--density", "dense", "--seed", "3", "-o", str(query_path),
            ]
        )
        assert code == 0
        q = load_graph(query_path)
        assert q.num_vertices == 6
        assert q.average_degree >= 3.0


class TestInfoCommands:
    def test_algorithms_lists_presets(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert "GQLfs" in out
        assert "GLW" in out

    def test_algorithms_shows_component_breakdown(self, capsys):
        from repro.core import algorithm_components, available_algorithms

        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        for column in ("filter", "ordering", "ComputeLC", "failing sets"):
            assert column in out
        # Every preset row carries its registry-sourced components.
        for name in available_algorithms():
            parts = algorithm_components(name)
            row = next(
                line for line in out.splitlines()
                if line.split("|")[0].strip() == name
            )
            for key in ("filter", "ordering", "lc", "aux"):
                assert parts[key] in row, (name, key)

    def test_datasets_table(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "Yeast" in out and "eu2005" in out

    def test_datasets_build_requires_output(self, capsys):
        assert main(["datasets", "--build", "ye"]) == 2

    def test_datasets_build(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.05")
        out_path = tmp_path / "ye.graph"
        assert main(["datasets", "--build", "ye", "-o", str(out_path)]) == 0
        g = load_graph(out_path)
        assert g.num_vertices > 0


class TestFuzzCommand:
    def test_clean_run_exits_zero(self, capsys):
        code = main(["fuzz", "--cases", "3", "--seed", "7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "clean" in out
        assert "3/3" in out

    def test_replay_requires_corpus_dir(self, capsys):
        assert main(["fuzz", "--replay"]) == 2
        assert "--corpus-dir" in capsys.readouterr().err

    def test_replay_empty_directory(self, tmp_path, capsys):
        code = main(["fuzz", "--replay", "--corpus-dir", str(tmp_path)])
        assert code == 0
        assert "no repro files" in capsys.readouterr().out

    def test_replay_pinned_corpus_is_clean(self, capsys):
        import os

        corpus = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "corpus",
        )
        code = main(["fuzz", "--replay", "--corpus-dir", corpus])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 regression(s)" in out
        assert "REPRODUCES" not in out

    def test_replay_flags_regression(self, tmp_path, capsys):
        from repro.graph import Graph
        from repro.qa.corpus import make_record, save_repro

        query = Graph(labels=[0, 0, 0], edges=[(0, 1), (1, 2)])
        record = make_record(
            kind="crash",
            query=query,
            data=query,
            config_a={"algorithm": "NO-SUCH-PRESET", "kernel": None,
                      "mode": "oneshot"},
            detail="synthetic regression",
        )
        save_repro(str(tmp_path / "repro-crash-synthetic.json"), record)
        code = main(["fuzz", "--replay", "--corpus-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "REPRODUCES" in out
        assert "1 regression(s)" in out

    def test_time_boxed_run_reports_it(self, capsys):
        code = main(["fuzz", "--cases", "100000", "--seed", "0",
                     "--max-seconds", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "time-boxed" in out


class TestServeCommand:
    @pytest.fixture
    def stub_serve_forever(self, monkeypatch):
        # The real loop blocks until killed; cut it off after startup so
        # the command path (arg parsing, graph loading, bind, shutdown)
        # runs end to end in-process.
        from repro.serve.server import MatchServer

        def return_immediately(self):
            if self._listener is None:
                self.start()

        monkeypatch.setattr(MatchServer, "serve_forever", return_immediately)

    def test_serve_loads_named_graphs_and_binds(
        self, graph_files, capsys, stub_serve_forever
    ):
        _, data_path = graph_files
        code = main(["serve", "--port", "0", "--graph", f"social={data_path}"])
        out = capsys.readouterr().out
        assert code == 0
        assert "resident graph 'social'" in out
        assert "serving on 127.0.0.1:" in out

    def test_serve_bare_path_is_default_graph(
        self, graph_files, capsys, stub_serve_forever
    ):
        _, data_path = graph_files
        code = main(["serve", "--port", "0", "--graph", data_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "resident graph 'default'" in out

    def test_serve_without_graphs_warns(self, capsys, stub_serve_forever):
        code = main(["serve", "--port", "0", "--no-coalesce",
                     "--default-budget-ms", "250"])
        out = capsys.readouterr().out
        assert code == 0
        assert "add_graph over the wire" in out
        assert "coalesce=False" in out


class TestConvertCommand:
    def test_text_to_rgf_and_back(self, graph_files, tmp_path, capsys):
        _, data_path = graph_files
        rgf = tmp_path / "data.rgf"
        code = main(["convert", "-i", data_path, "-o", str(rgf),
                     "--validate"])
        out = capsys.readouterr().out
        assert code == 0
        assert "validated" in out
        assert load_graph(rgf) == load_graph(data_path)

        back = tmp_path / "back.graph"
        code = main(["convert", "-i", str(rgf), "-o", str(back),
                     "--validate"])
        out = capsys.readouterr().out
        assert code == 0
        assert "round-trip identical" in out
        assert load_graph(back) == load_graph(data_path)

    def test_rgf_match_runs_from_converted_file(self, graph_files,
                                                tmp_path, capsys):
        query_path, data_path = graph_files
        rgf = tmp_path / "data.rgf"
        assert main(["convert", "-i", data_path, "-o", str(rgf)]) == 0
        capsys.readouterr()
        code = main(["match", "-q", query_path, "-d", str(rgf), "-a", "GQL"])
        out = capsys.readouterr().out
        assert code == 0
        assert "matches" in out
