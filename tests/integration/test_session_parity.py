"""Session-vs-one-shot parity: the caches must never change an answer.

The compile-once/run-many layer is pure plumbing: for every preset, a
query served through a warm ``MatchSession`` (plan hit + preparation hit)
must produce exactly the embeddings, counters and order the historical
one-shot ``match()`` produces. Cache bookkeeping counters (``plan.*``)
are the only permitted difference.
"""

from fixtures import PAPER_DATA, PAPER_QUERY

from repro import MatchSession, available_algorithms, match
from repro.graph import Graph

DATA = Graph(
    labels=[0, 1, 0, 1, 0, 1, 2, 2],
    edges=[
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
        (0, 2), (3, 5), (1, 6), (4, 6), (2, 7), (5, 7),
    ],
)
QUERY = Graph(labels=[0, 1, 0, 2], edges=[(0, 1), (1, 2), (2, 3)])


def _strip_cache_counters(metrics):
    return {
        key: value
        for key, value in metrics.counters.items()
        if not key.startswith("plan.")
    }


def _enumeration_counters(metrics):
    return {
        key: value
        for key, value in metrics.counters.items()
        if key.startswith("enumerate.")
    }


def test_every_preset_agrees_warm_and_cold():
    for name in available_algorithms():
        one_shot = match(QUERY, DATA, algorithm=name)
        session = MatchSession(DATA, algorithm=name)
        cold = session.match(QUERY)
        warm = session.match(QUERY)      # plan + prep both hit

        for result in (cold, warm):
            assert result.num_matches == one_shot.num_matches, name
            assert result.mappings == one_shot.mappings, name
            assert result.order == one_shot.order, name
            assert result.solved == one_shot.solved, name
            assert result.algorithm == one_shot.algorithm, name

        # Cold run: the full pipeline ran, so every counter must match.
        assert _strip_cache_counters(cold.metrics) \
            == _strip_cache_counters(one_shot.metrics), name
        # Warm run: preprocessing was skipped, so filter/order counters
        # are legitimately absent — but the enumeration work is identical.
        assert _enumeration_counters(warm.metrics) \
            == _enumeration_counters(one_shot.metrics), name

        assert warm.metrics.counters["plan.cache_hit"] == 1, name
        assert warm.metrics.counters["plan.prep_hit"] == 1, name


def test_paper_fixture_full_parity():
    for name in ("GQL", "CFL", "CECI", "DPfs", "recommended"):
        one_shot = match(PAPER_QUERY, PAPER_DATA, algorithm=name)
        session = MatchSession(PAPER_DATA, algorithm=name)
        session.match(PAPER_QUERY)
        warm = session.match(PAPER_QUERY)
        assert warm.mappings == one_shot.mappings, name
        assert warm.kernel == one_shot.kernel, name
        assert _enumeration_counters(warm.metrics) \
            == _enumeration_counters(one_shot.metrics), name


def test_paper_fixture_count_only_parity():
    """The count-only twin: the second count of ``recommended`` races its
    order after answering, and none of the race's work reaches that
    reply's counters; the third runs the winner, with the same count."""
    for name in ("GQL", "DPfs", "recommended"):
        one_shot = match(PAPER_QUERY, PAPER_DATA, algorithm=name, store_limit=0)
        session = MatchSession(PAPER_DATA, algorithm=name)
        replies = [session.match(PAPER_QUERY, store_limit=0) for _ in range(3)]
        assert _enumeration_counters(replies[1].metrics) \
            == _enumeration_counters(one_shot.metrics), name
        for reply in replies:
            assert (reply.num_matches, reply.solved, reply.kernel) \
                == (one_shot.num_matches, one_shot.solved, one_shot.kernel), name
        races = session.metrics.counters.get("session.races", 0)
        assert races == (name == "recommended"), name


def test_session_kernel_override_matches_one_shot():
    for kernel in ("scalar", "numpy", "bitset"):
        one_shot = match(QUERY, DATA, algorithm="CECI", kernel=kernel)
        session = MatchSession(DATA, algorithm="CECI", kernel=kernel)
        session.match(QUERY)
        warm = session.match(QUERY)
        assert warm.kernel == one_shot.kernel == kernel
        assert warm.mappings == one_shot.mappings


def test_study_runner_records_unchanged_by_session_rewire():
    """The sequential runner (now session-backed) must keep producing
    one-shot-identical per-query records — counters included."""
    from repro.study.runner import run_algorithm_on_set

    queries = [QUERY, Graph(labels=[1, 0, 1], edges=[(0, 1), (1, 2)]), QUERY]
    summary = run_algorithm_on_set(
        "GQLfs", DATA, queries, match_limit=1000, time_limit=5.0
    )
    assert summary.num_queries == 3
    for index, record in enumerate(summary.records):
        one_shot = match(
            queries[index], DATA, algorithm="GQLfs",
            match_limit=1000, time_limit=5.0, store_limit=0, validate=False,
        )
        assert record.num_matches == one_shot.num_matches
        # Measurement mode: no cache counters, and the repeated third
        # query re-ran its preprocessing (prep cache disabled).
        assert not any(k.startswith("plan.") for k in record.metrics["counters"])
        assert record.preprocessing_ms > 0.0
        assert record.metrics["counters"] \
            == dict(one_shot.metrics.counters)
