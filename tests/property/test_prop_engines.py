"""Engine-parity properties: the frame machine IS the recursive reference.

The iterative frame machine is the one enumeration engine; its contract
is *exact* equivalence with the recursive ``BacktrackingEngine``, the
line-by-line transcription of Algorithm 1 — same matches in the same
order, same ``solved`` flag, and byte-identical work counters (the
counters feed the paper's Figure 15/16 analyses, so "close enough" is
not enough). These properties run both classes over one prepared query
(``engine_parity.run_both``) on random planted cases, across every
algorithm preset and every set-intersection kernel. Pinned corpus seeds
from historical fuzz findings ride along as ``@example``s.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from engine_parity import run_both
from strategies import corpus_seeds

from repro.core.algorithms import PRESETS
from repro.qa import plant_case
from repro.utils.kernels import available_kernels

SEEDS = st.integers(0, 2**20)

#: One preset per ComputeLC family plus the failing-set and adaptive
#: rows — the combinations that exercise distinct engine code paths.
#: (The nightly fuzz sweep covers the full preset table.)
ENGINE_PRESETS = ["GQL", "CECI", "DP", "QSI", "2PP", "RIfs", "DPfs", "CFL-opt"]

_SETTINGS = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _pin_corpus_seeds(test):
    """Decorate ``test`` with one ``@example`` per pinned corpus seed."""
    for seed in corpus_seeds():
        test = example(seed=seed)(test)
    return test


def _both(case, algorithm, kernel="auto"):
    return run_both(
        algorithm, case.query, case.data, kernel=kernel,
        match_limit=5000, store_limit=5000,
    )


@_pin_corpus_seeds
@_SETTINGS
@given(seed=SEEDS)
def test_engines_agree_on_every_preset(seed):
    case = plant_case(seed, max_data=24)
    for algorithm in ENGINE_PRESETS:
        recursive, iterative = _both(case, algorithm)
        assert iterative == recursive, algorithm


@_pin_corpus_seeds
@_SETTINGS
@given(seed=SEEDS)
def test_engines_agree_on_every_kernel(seed):
    case = plant_case(seed, max_data=24)
    for kernel in available_kernels():
        recursive, iterative = _both(case, "GQLfs", kernel=kernel)
        assert iterative == recursive, kernel


@_SETTINGS
@given(seed=SEEDS)
def test_embedding_sets_match_across_all_presets(seed):
    # Order-free cross-check over the full preset table: either class,
    # any preset, one embedding multiset.
    case = plant_case(seed, max_data=20)
    reference = None
    for algorithm in PRESETS:
        recursive, iterative = _both(case, algorithm)
        found = set(iterative["embeddings"])
        assert recursive["num_matches"] == iterative["num_matches"]
        if iterative["num_matches"] < 5000:  # uncapped: comparable
            if reference is None:
                reference = found
            else:
                assert found == reference, algorithm
