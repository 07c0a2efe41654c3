"""One injected fault per row of the differential matrix.

Each fault breaks exactly one side of one comparison ``run_case`` makes.
The runner must report it with the expected kind and the expected
``(config_a, config_b)`` pair, and the record it emits must replay: True
while the fault is in place, False once it is undone. Together the rows
pin that every finding the runner can emit is one the shrinker and the
corpus replay can re-execute.
"""

import pytest

from repro.core.session import MatchSession
from repro.dynamic import IncrementalCandidates
from repro.graph.store import SharedMemoryStore
from repro.qa import (
    Config,
    divergence_reproduces,
    load_repro,
    plant_case,
    plant_mutation_script,
    run_case,
    run_fuzz,
)
from repro.qa import differential
from repro.utils.kernels import NumpyKernel

#: Trimmed so the whole table stays a few seconds: one preset per fault
#: that targets a preset, plus every later axis at its default.
PROFILE = dict(
    presets=["GQL", "QSI", "GQLfs"],
    kernels=["numpy"],
    metamorphic=False,
)


def _drop_last(result):
    result.embeddings = list(result.embeddings)[:-1]
    result.num_matches -= 1
    return result


def _wrap_match(monkeypatch, fault):
    """Apply ``fault(result, options)`` to every one-shot ``match``."""
    real = differential.match

    def faulty(query, data, **options):
        return fault(real(query, data, **options), options)

    monkeypatch.setattr(differential, "match", faulty)


def _wrap_session_match(monkeypatch, fault):
    """Apply ``fault(result, call_index, options)`` to session matches."""
    real = MatchSession.match
    calls = {}

    def faulty(self, query, **options):
        index = calls[self] = calls.get(self, -1) + 1
        return fault(real(self, query, **options), index, options)

    monkeypatch.setattr(MatchSession, "match", faulty)


def preset_drops_an_embedding(monkeypatch):
    _wrap_match(
        monkeypatch,
        lambda r, o: _drop_last(r) if o["algorithm"] == "QSI" else r,
    )


def kernel_drops_the_largest_element(monkeypatch):
    real = NumpyKernel.intersect

    def buggy(self, a, b):
        result = real(self, a, b)
        return result[:-1] if len(result) >= 2 else result

    monkeypatch.setattr(NumpyKernel, "intersect", buggy)


def fan_out_reverses_order(monkeypatch):
    def reverse(result, options):
        if options.get("n_workers"):
            result.embeddings = list(reversed(result.embeddings))
        return result

    _wrap_match(monkeypatch, reverse)


def cache_hit_reverses_order(monkeypatch):
    def reverse(result, index, options):
        if index == 1:
            result.embeddings = list(reversed(result.embeddings))
        return result

    _wrap_session_match(monkeypatch, reverse)


def count_repeat_off_by_one(monkeypatch):
    def bump(result, index, options):
        if options.get("store_limit") == 0:
            result.num_matches += 1
        return result

    _wrap_session_match(monkeypatch, bump)


def vf2_drops_a_match(monkeypatch):
    real = differential.vf2_matches
    monkeypatch.setattr(
        differential, "vf2_matches",
        lambda *args, **kw: frozenset(sorted(real(*args, **kw))[:-1]),
    )


def preset_crashes(monkeypatch):
    def crash(result, options):
        if options["algorithm"] == "GQLfs":
            raise RuntimeError("injected crash")
        return result

    _wrap_match(monkeypatch, crash)


def candidates_drift(monkeypatch):
    monkeypatch.setattr(
        IncrementalCandidates, "apply_delta", lambda self, delta: None
    )


def shm_fingerprint_differs(monkeypatch):
    real = SharedMemoryStore.fingerprint
    monkeypatch.setattr(
        SharedMemoryStore, "fingerprint", lambda self: "x" + real(self)
    )


#: (fault, expected kind, config_a, config_b, mutate)
ROWS = {
    "preset": (
        preset_drops_an_embedding, "count_mismatch",
        Config("GQL"), Config("QSI"), False,
    ),
    "kernel": (
        kernel_drops_the_largest_element, "count_mismatch",
        Config("GQL"), Config("CECI", kernel="numpy"), False,
    ),
    "fan_out": (
        fan_out_reverses_order, "session_mismatch",
        Config("GQLfs"), Config("GQLfs", n_workers=2), False,
    ),
    "cache_hit": (
        cache_hit_reverses_order, "session_mismatch",
        Config("GQL-opt", mode="session"), Config("GQL-opt"), False,
    ),
    "count_repeat": (
        count_repeat_off_by_one, "session_mismatch",
        Config("recommended", mode="session"), Config("recommended"), False,
    ),
    "vf2": (
        vf2_drops_a_match, "oracle_mismatch",
        Config("GQL"), Config(mode="vf2"), False,
    ),
    "crash": (preset_crashes, "crash", Config("GQLfs"), None, False),
    "drift": (candidates_drift, "candidate_drift", Config("GQL"), None, True),
    "fingerprint": (
        shm_fingerprint_differs, "crash",
        Config("GQL", storage="shm"), None, False,
    ),
}

#: A case with several embeddings, so order reversals are visible.
CASE_SEED = 3


@pytest.fixture(scope="module")
def case():
    case = plant_case(CASE_SEED, max_data=16)
    assert len(differential.vf2_matches(case.query, case.data)) >= 3
    return case


@pytest.mark.parametrize("row", sorted(ROWS))
def test_fault_is_found_and_replays(row, case, monkeypatch):
    fault, kind, config_a, config_b, mutate = ROWS[row]
    mutations = plant_mutation_script(case) if mutate else None
    if mutations:
        config_a = Config(
            config_a.algorithm, mode="session", mutations=mutations
        )
    fault(monkeypatch)
    divergences = run_case(case, mutations=mutations, **PROFILE)
    expected = (
        config_a.to_dict(),
        config_b.to_dict() if config_b is not None else None,
    )
    matching = [
        d for d in divergences
        if d.kind == kind
        and (d.record["config_a"], d.record["config_b"]) == expected
    ]
    assert matching, [d.detail for d in divergences]
    record = matching[0].record
    assert "match_limit" not in record  # default records keep their bytes
    # Not only the expected finding: everything the fault provokes replays.
    for divergence in divergences:
        assert divergence_reproduces(
            divergence.record, case.query, case.data
        ), divergence
    monkeypatch.undo()
    assert not divergence_reproduces(record, case.query, case.data)


def test_match_limit_is_recorded_and_replayed(case, monkeypatch):
    preset_crashes(monkeypatch)
    divergences = run_case(case, match_limit=7, **PROFILE)
    assert divergences
    assert all(d.record["match_limit"] == 7 for d in divergences)

    seen = []
    real = differential.run_config

    def spy(query, data, config, match_limit=differential.DEFAULT_MATCH_LIMIT):
        seen.append(match_limit)
        return real(query, data, config, match_limit)

    monkeypatch.setattr(differential, "run_config", spy)
    assert divergence_reproduces(divergences[0].record, case.query, case.data)
    assert seen and set(seen) == {7}


def test_fuzz_repro_file_keeps_match_limit(tmp_path, monkeypatch):
    preset_crashes(monkeypatch)
    report = run_fuzz(
        cases=1,
        corpus_dir=str(tmp_path),
        shrink=False,
        run_options=dict(PROFILE, match_limit=7),
    )
    assert report.repro_files
    assert load_repro(report.repro_files[0])["match_limit"] == 7
