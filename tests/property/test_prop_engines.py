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

import itertools
import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from engine_parity import run_both
from strategies import corpus_seeds

from repro.core.algorithms import PRESETS
from repro.core.api import match
from repro.core.plan import compile_plan, iter_leaf_batches, prepare_query
from repro.dynamic import DynamicGraph, Subscription
from repro.enumeration import iter_matches
from repro.obs import Metrics
from repro.qa import plant_case
from repro.serve import MatchServer, MatchService
from repro.serve.protocol import graph_to_payload
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


def _plain(rows):
    return all(type(row) is tuple for row in rows) and all(
        type(v) is int for row in rows for v in row
    )


@_pin_corpus_seeds
@_SETTINGS
@given(seed=SEEDS)
def test_every_embedding_surface_is_plain_ints(seed):
    # Embeddings are built as plain-int tuples where they are found; no
    # surface may hand out numpy scalars, on mask frames ("rows") or on
    # the list-adapted frames ("numpy", and DP's adaptive selector).
    case = plant_case(seed, max_data=24)
    query, data = case.query, case.data
    for kernel in ("rows", "numpy"):
        for algorithm in ("GQLfs", "DP"):
            result = match(
                query, data, algorithm=algorithm, kernel=kernel,
                match_limit=2001, store_limit=2001,
            )
            assert result.embeddings and _plain(result.embeddings)
        plan = compile_plan("GQLfs", query, data, kernel=kernel)
        prepared = prepare_query(plan, query, data, Metrics())
        batches = list(
            iter_leaf_batches(
                prepared, query, data, failing_sets=True, match_limit=2000
            )
        )
        assert batches and all(type(batch) is list for batch in batches)
        assert _plain([row for batch in batches for row in batch])
        streamed = list(itertools.islice(iter_matches(query, data, kernel=kernel), 2000))
        assert _plain([tuple(m.keys()) + tuple(m.values()) for m in streamed])
        if result.num_matches <= 2000:
            subscription = Subscription(query, DynamicGraph(data), kernel=kernel)
            assert _plain(subscription.matches())
            assert len(subscription.matches()) == result.num_matches
    with MatchService(workers=1) as service:
        service.add_graph("g", data)
        request = {
            "op": "match", "graph": "g", "query": graph_to_payload(query),
            "match_limit": 50, "include_embeddings": True,
        }
        answer = MatchServer(service)._dispatch(json.dumps(request))
    assert answer["ok"] and answer["embeddings"]
    assert json.loads(json.dumps(answer))["embeddings"] == answer["embeddings"]
