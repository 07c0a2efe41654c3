"""Unit tests for the differential harness Config, n_workers axis included."""

from repro.qa.differential import Config, run_config
from repro.qa.generator import plant_case


class TestConfigRoundTrip:
    def test_defaults_round_trip(self):
        config = Config()
        assert Config.from_dict(config.to_dict()) == config

    def test_n_workers_round_trips(self):
        config = Config(algorithm="GQLfs", n_workers=2)
        clone = Config.from_dict(config.to_dict())
        assert clone == config
        assert clone.n_workers == 2

    def test_legacy_payload_defaults_to_sequential(self):
        # Corpus records written before the n_workers axis replay
        # unchanged: missing key means sequential.
        config = Config.from_dict(
            {"algorithm": "GQL", "kernel": None, "mode": "oneshot"}
        )
        assert config.n_workers is None

    def test_retired_engine_key_is_ignored(self):
        # Corpus records written while the engine axis existed carry an
        # "engine" key (three pinned ones, all null); they replay as the
        # same config a record without the key does.
        legacy = {"algorithm": "GQLfs", "kernel": None, "mode": "session"}
        for value in (None, "recursive", "iterative"):
            config = Config.from_dict({**legacy, "engine": value})
            assert config == Config.from_dict(legacy)
            assert "engine" not in config.to_dict()

    def test_label_shows_worker_count(self):
        assert "w2" in Config(algorithm="GQL", n_workers=2).label()
        assert "w" not in Config(algorithm="GQL").label()

    def test_storage_round_trips(self):
        config = Config(algorithm="GQL", storage="rgf")
        clone = Config.from_dict(config.to_dict())
        assert clone == config
        assert clone.storage == "rgf"

    def test_legacy_payload_defaults_to_in_memory(self):
        config = Config.from_dict(
            {"algorithm": "GQL", "kernel": None, "mode": "oneshot"}
        )
        assert config.storage is None

    def test_label_shows_storage_backend(self):
        assert "~shm" in Config(algorithm="GQL", storage="shm").label()
        assert "~" not in Config(algorithm="GQL").label()


class TestParallelConfigRuns:
    def test_parallel_config_matches_sequential(self):
        case = plant_case(5, max_data=24)
        seq = run_config(case.query, case.data, Config(algorithm="GQL"))
        par = run_config(
            case.query, case.data, Config(algorithm="GQL", n_workers=2)
        )
        assert par.count == seq.count
        assert par.emb_list == seq.emb_list

    def test_session_mode_accepts_workers(self):
        case = plant_case(9, max_data=24)
        seq = run_config(
            case.query, case.data, Config(algorithm="GQL", mode="session")
        )
        par = run_config(
            case.query,
            case.data,
            Config(algorithm="GQL", mode="session", n_workers=2),
        )
        assert par.count == seq.count
        assert par.emb_list == seq.emb_list
        assert par.repeat_list == seq.repeat_list


class TestStorageConfigRuns:
    def test_storage_backends_match_in_memory(self):
        case = plant_case(5, max_data=24)
        base = run_config(case.query, case.data, Config(algorithm="GQL"))
        for storage in ("rgf", "shm"):
            other = run_config(
                case.query, case.data,
                Config(algorithm="GQL", storage=storage),
            )
            assert other.count == base.count
            assert other.emb_list == base.emb_list

    def test_unknown_storage_backend_rejected(self):
        import pytest

        case = plant_case(5, max_data=24)
        with pytest.raises(ValueError, match="storage"):
            run_config(
                case.query, case.data,
                Config(algorithm="GQL", storage="floppy"),
            )

    def test_run_case_sweeps_storage_clean(self):
        from repro.qa.differential import run_case

        case = plant_case(13, max_data=24)
        divergences = run_case(
            case,
            presets=["GQL"],
            kernels=[],
            worker_counts=(),
            oracle=False,
            metamorphic=False,
        )
        assert divergences == []
