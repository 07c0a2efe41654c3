"""Order racing: a raced ``recommended`` query answers exactly as before.

A count-only prep-cache hit of ``recommended`` races the other
:data:`~repro.core.plan.RACERS` configurations and
:data:`~repro.core.plan.SAMPLED_RACERS` sampled orders once, after
answering with the incumbent, unless the call has a deadline; later
count-only hits under the raced ``match_limit`` run the winner,
sequential or fanned out. A racer whose order the kernel policy would run
on another kernel sits out. What may change is the work a count costs,
never its answer: every count reply equals the one-shot ``num_matches``,
``solved`` and ``kernel``, and every reply that carries embeddings stays
byte-identical to one-shot (embeddings, order and all five counters).
The race itself is deterministic, picks the first configuration with
the fewest ``recursion_calls`` (a racer over budget never wins), records
nothing when cancelled, spends at most ``racers × (winner interior nodes
+ quantum)`` interior nodes, and leaves bound only the auxiliary pairs
the incumbent or the winner reads.
"""

import sys
import threading
from dataclasses import astuple, replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from strategies import connected_graphs, graphs

from repro import MatchSession, match
from repro.core.algorithms import resolve
from repro.core.plan import (
    RACE_QUANTUM,
    RACERS,
    SAMPLE_SEED,
    SAMPLED_RACERS,
    bind_enumeration,
    race_orders,
    run_plan,
)
from repro.core.registry import ORDERINGS
from repro.enumeration.support import DEADLINE_STRIDE
from repro.graph import Graph, extract_query, rmat_graph
from repro.obs import Tracer, tracing
from repro.ordering import sample_orders

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def race_cases(draw):
    """A query of 3–10 vertices (failing sets on from 9), a data graph
    sharing its two labels, and a match cap or none."""
    query = draw(connected_graphs(min_vertices=3, max_vertices=10, max_labels=2))
    data = draw(graphs(min_vertices=4, max_vertices=16, max_labels=2, edge_probability=0.5))
    limit = draw(st.sampled_from([None, 1, 3, 50]))
    return query, data, limit


@pytest.fixture(scope="module")
def dense():
    """A dense RMAT graph and queries whose races switch configuration."""
    data = rmat_graph(num_vertices=400, average_degree=12.0, num_labels=6, seed=3)
    queries = [extract_query(data, size, seed=seed) for size, seed in
               ((8, 2), (9, 2), (10, 2), (12, 2), (9, 3))]
    return data, queries


def _cached(session):
    (prepared,) = session._prep._entries.values()
    return prepared


def _incumbent(session, query, data, limit):
    """Prime ``session`` and return (plan, prepared, incumbent calls,
    incumbent matches)."""
    result = session.match(query, match_limit=limit, store_limit=0)
    plan, _ = session.compile(query)
    return plan, _cached(session), result.stats.recursion_calls, result.num_matches


def _counts(result):
    return result.num_matches, result.solved, result.kernel, result.algorithm


@given(race_cases())
@_SETTINGS
def test_every_count_reply_equals_one_shot(case):
    query, data, limit = case
    one_shot = match(query, data, match_limit=limit, store_limit=0)
    session = MatchSession(data)
    replies = [session.match(query, match_limit=limit, store_limit=0) for _ in range(4)]
    replies.append(session.match(query, match_limit=limit, store_limit=0, n_workers=0))
    for reply in replies:
        assert _counts(reply) == _counts(one_shot)
    assert session.count_matches(query, match_limit=limit) == one_shot.num_matches
    assert session.has_match(query) == (one_shot.num_matches > 0)
    races = session.metrics.counters.get("session.races", 0)
    assert races == (1 if one_shot.solved else 0)
    if races:
        assert _cached(session).raced is not None


def test_raced_counts_equal_one_shot_and_switch(dense):
    data, queries = dense
    session = MatchSession(data)
    for query in queries:
        for limit in (None, 200):
            one_shot = match(query, data, match_limit=limit, store_limit=0)
            for _ in range(3):
                reply = session.match(query, match_limit=limit, store_limit=0)
                assert _counts(reply) == _counts(one_shot)
    counters = session.metrics.counters
    assert counters["session.races"] == len(queries)
    assert counters["session.race_switches"] > 0


def test_embedding_replies_after_a_race_are_one_shot_bytes(dense):
    data, queries = dense
    session = MatchSession(data)
    for query in queries:
        for _ in range(2):
            session.count_matches(query, match_limit=500)
        assert session.metrics.counters["session.races"] >= 1
        one_shot = match(query, data, match_limit=500, store_limit=100)
        warm = session.match(query, match_limit=500, store_limit=100)
        assert warm.embeddings == one_shot.embeddings
        assert warm.order == one_shot.order
        assert astuple(warm.stats) == astuple(one_shot.stats)
        assert _counts(warm) == _counts(one_shot)


def test_two_fresh_sessions_pick_the_same_winner(dense):
    data, queries = dense
    winners = []
    for _ in range(2):
        picked = []
        for query in queries:
            session = MatchSession(data)
            for _ in range(3):
                session.count_matches(query, match_limit=1000)
            winner = _cached(session).raced
            picked.append((winner.ordering, winner.failing_sets,
                           winner.prepared.order, winner.calls, winner.race_calls))
        winners.append(picked)
    assert winners[0] == winners[1]


@pytest.mark.parametrize("preset", ["GQLfs", "RI-opt", "DP", "CFL"])
def test_named_presets_never_race(dense, preset):
    data, queries = dense
    session = MatchSession(data, algorithm=preset)
    for _ in range(3):
        session.count_matches(queries[0], match_limit=1000)
    assert "session.races" not in session.metrics.counters
    assert _cached(session).raced is None


def _configurations(query, data, candidates):
    """Every racer's (name, order, failing sets), in tie-break order."""
    for name, fs in RACERS:
        yield name, ORDERINGS.create(name).order(query, data, candidates), fs
    for i, order in enumerate(sample_orders(query, SAMPLED_RACERS, seed=SAMPLE_SEED)):
        yield f"sampled#{i}", order, True


@given(race_cases())
@_SETTINGS
def test_failing_sets_never_add_calls(case):
    """Why :data:`RACERS` races every named ordering with failing sets on
    only: under any order and cap, turning them on keeps the matches and
    never adds a call, so the configuration without them could at best
    tie."""
    query, data, limit = case
    base = resolve("recommended", query, data)
    for name in ("GQL", "RI", "DP", "QSI"):
        ordering = ORDERINGS.create(name)
        on, off = (
            match(query, data, algorithm=replace(base, ordering=ordering, failing_sets=fs),
                  match_limit=limit, store_limit=0)
            for fs in (True, False)
        )
        assert (on.num_matches, on.solved) == (off.num_matches, off.solved)
        assert on.stats.recursion_calls <= off.stats.recursion_calls


def _true_calls(plan, query, data, prepared, limit, configurations=None):
    """Unbudgeted ``recursion_calls`` of every racer that resolves the
    incumbent's kernel (the others sit the race out), in tie-break order,
    each bound on a fresh auxiliary structure."""
    spec = plan.algorithm
    if configurations is None:
        configurations = _configurations(query, data, prepared.candidates)
    calls = []
    for name, order, fs in configurations:
        bound = bind_enumeration(
            spec.lc, spec.aux_scope, plan.kernel_policy, query, data,
            prepared.candidates, order=order,
        )
        if bound.kernel_used != prepared.kernel_used:
            continue
        racer = replace(plan, algorithm=replace(spec, failing_sets=fs))
        result, _ = run_plan(racer, query, data, prepared=bound,
                             match_limit=limit, store_limit=0)
        calls.append(((name, fs), result.stats.recursion_calls))
    return calls


def _race_span(tracer):
    (race,) = [s for s in tracer.spans if s.name == "plan.race"]
    return race.attrs


def test_the_fewest_calls_win_and_a_racer_over_budget_never_does(dense):
    data, queries = dense
    for query in queries:
        for limit in (None, 300):
            session = MatchSession(data)
            plan, prepared, calls, matches = _incumbent(session, query, data, limit)
            spec = plan.algorithm
            incumbent = (spec.ordering.name, spec.failing_sets)
            true = _true_calls(plan, query, data, prepared, limit)
            # The harness reproduces the incumbent's own run.
            own = [(spec.ordering.name, prepared.order, spec.failing_sets)]
            assert _true_calls(plan, query, data, prepared, limit, own) == [(incumbent, calls)]
            ranked = [(incumbent, calls)] + true
            best, fewest = min(ranked, key=lambda c: c[1])  # first of the fewest
            tracer = Tracer()
            with tracing(tracer):
                winner = race_orders(plan, query, data, prepared, calls, matches, limit).raced
            assert (winner.ordering, winner.failing_sets) == best
            assert winner.calls == fewest
            race = _race_span(tracer)
            assert race["winner_interior"] == fewest - matches
            assert race["race_calls"] == winner.race_calls
            # Each racer stops before it passes the winner's interior
            # nodes by a quantum, which is under the incumbent's plus a
            # stride.
            racers = len(RACERS) + SAMPLED_RACERS  # the incumbent need not be one
            assert race["racers"] <= racers
            assert race["race_interior"] <= race["racers"] * (
                fewest - matches + RACE_QUANTUM
            )
            assert race["race_interior"] <= race["racers"] * (
                calls - matches + DEADLINE_STRIDE
            )
            # An incumbent claiming fewer calls than any racer can take
            # keeps the race: everyone else runs over budget.
            floor = min(c for _, c in true)
            kept = race_orders(plan, query, data, prepared, floor - 1, matches, limit).raced
            assert (kept.ordering, kept.failing_sets) == incumbent
            assert kept.prepared is prepared and kept.plan is plan
            assert prepared.raced is None  # the cached object is never mutated


def test_racers_run_side_by_side(dense, monkeypatch):
    # With one node a turn, no racer passes the winner's interior nodes
    # by more than one: racing one after another would, whenever an
    # early racer's budget is a later winner's count.
    monkeypatch.setattr("repro.core.plan.RACE_QUANTUM", 1)
    data, queries = dense
    for query in queries:
        session = MatchSession(data)
        plan, prepared, calls, matches = _incumbent(session, query, data, 300)
        tracer = Tracer()
        with tracing(tracer):
            race_orders(plan, query, data, prepared, calls, matches, 300)
        race = _race_span(tracer)
        assert race["race_interior"] <= race["racers"] * (race["winner_interior"] + 1)


def test_ties_go_to_the_earlier_racer(dense, monkeypatch):
    data, _ = dense
    # A query with no match: calls are interior nodes, and two of these
    # three orders tie at the fewest.
    query = Graph([0] * 4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    racers = [("a", [0, 1, 2, 3], True, False), ("b", [3, 0, 1, 2], True, False),
              ("c", [3, 0, 2, 1], True, False)]
    monkeypatch.setattr("repro.core.plan._racers", lambda *_: iter(racers))
    session = MatchSession(data)
    plan, prepared, calls, matches = _incumbent(session, query, data, 500)
    true = _true_calls(plan, query, data, prepared, 500,
                       [(name, order, fs) for name, order, fs, _ in racers])
    (_, a), (_, b), (_, c) = true
    assert matches == 0 and b == c < a
    # An incumbent over every racer's budget leaves them to break the tie.
    winner = race_orders(plan, query, data, prepared, a + 1, matches, 500).raced
    assert (winner.ordering, winner.calls) == ("b", b)


def _old_race(plan, query, data, prepared, calls, limit):
    """The race as it ran before interior-node stops and shared rows:
    the named racers, each bound on a fresh auxiliary structure through
    :func:`run_plan` and stopped once ``polls × stride`` reach the
    budget. Returns (winner, winner calls, race calls)."""
    spec = plan.algorithm
    incumbent = (spec.ordering.name, spec.failing_sets)
    best, fewest, spent = incumbent, calls, 0
    for name, fs in RACERS:
        if (name, fs) == incumbent:
            continue
        bound = bind_enumeration(
            spec.lc, spec.aux_scope, plan.kernel_policy, query, data,
            prepared.candidates,
            order=ORDERINGS.create(name).order(query, data, prepared.candidates),
        )
        if bound.kernel_used != prepared.kernel_used:
            continue
        budget, polls = fewest, []

        def stop():
            polls.append(1)
            return len(polls) * DEADLINE_STRIDE >= budget

        racer = replace(plan, algorithm=replace(spec, failing_sets=fs))
        result, _ = run_plan(racer, query, data, prepared=bound, match_limit=limit,
                             store_limit=0, cancel=stop)
        spent += result.stats.recursion_calls
        if result.solved and result.stats.recursion_calls < budget:
            best, fewest = (name, fs), result.stats.recursion_calls
    return best, fewest, spent


def test_the_interior_stop_picks_the_old_stops_winner_for_less(dense, monkeypatch):
    monkeypatch.setattr("repro.core.plan.SAMPLED_RACERS", 0)
    data, queries = dense
    for query in queries:
        for limit in (None, 300):
            session = MatchSession(data)
            plan, prepared, calls, matches = _incumbent(session, query, data, limit)
            best, fewest, spent = _old_race(plan, query, data, prepared, calls, limit)
            winner = race_orders(plan, query, data, prepared, calls, matches, limit).raced
            assert (winner.ordering, winner.failing_sets) == best
            assert winner.calls == fewest
            assert winner.race_calls <= spent


def _backward_pairs(query, order):
    position = {u: i for i, u in enumerate(order)}
    return [(w, u) if position[w] < position[u] else (u, w) for w, u in query.edges()]


def _bound_pairs(aux):
    return {pair for pair in aux.pairs() if aux.form(*pair) is not None}


def test_a_race_leaves_bound_only_the_pairs_incumbent_and_winner_read(dense):
    data, queries = dense
    for query in queries:
        one_shot = match(query, data, match_limit=1000, store_limit=0)
        session = MatchSession(data)
        for _ in range(2):
            session.count_matches(query, match_limit=1000)
        cached = _cached(session)
        winner = cached.raced
        aux = cached.auxiliary
        assert winner.prepared.auxiliary is aux  # racers bound onto it
        assert _bound_pairs(aux) == set(
            _backward_pairs(query, cached.order)
            + _backward_pairs(query, winner.prepared.order)
        )
        for _ in range(2):  # the winner, then an embedding reply
            assert _counts(session.match(query, match_limit=1000, store_limit=0)) \
                == _counts(one_shot)
        warm = session.match(query, match_limit=1000, store_limit=10)
        assert warm.num_matches == one_shot.num_matches


def test_a_cancelled_race_records_nothing(dense):
    data, queries = dense
    query = queries[-1]
    session = MatchSession(data)
    plan, prepared, calls, matches = _incumbent(session, query, data, None)
    assert race_orders(plan, query, data, prepared, calls, matches,
                       cancel=lambda: True) is None
    # Whatever the stopped racer bound is unbound again.
    assert _bound_pairs(prepared.auxiliary) == set(_backward_pairs(query, prepared.order))

    # Through the session: a cancel hook that lets the incumbent's own
    # polls pass and stops the race at its first.
    polls = []

    def count_polls():
        polls.append(1)
        return False

    match(query, data, match_limit=None, store_limit=0, cancel=count_polls)
    seen = []

    def cancel():
        seen.append(1)
        return len(seen) > len(polls)

    one_shot = match(query, data, match_limit=None, store_limit=0)
    reply = session.match(query, match_limit=None, store_limit=0, cancel=cancel)
    assert len(seen) > len(polls)  # the race did poll, and was stopped
    assert _counts(reply) == _counts(one_shot)
    assert astuple(reply.stats) == astuple(one_shot.stats)
    assert "session.races" not in session.metrics.counters
    assert _cached(session).raced is None
    session.match(query, match_limit=None, store_limit=0)  # races again
    assert session.metrics.counters["session.races"] == 1


def test_four_threads_racing_one_prepared_query_agree(dense):
    data, queries = dense
    query = queries[2]
    reference = MatchSession(data)
    plan, prepared, calls, matches = _incumbent(reference, query, data, 2000)
    want = race_orders(plan, query, data, prepared, calls, matches, 2000).raced

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        session = MatchSession(data)
        session.count_matches(query, match_limit=2000)
        shared = _cached(session)
        barrier = threading.Barrier(4)
        seen = [None] * 4

        def worker(slot):
            barrier.wait()
            direct = race_orders(plan, query, data, shared, calls, matches, 2000).raced
            replies = [_counts(session.match(query, match_limit=2000, store_limit=0))
                       for _ in range(3)]
            seen[slot] = (direct.ordering, direct.failing_sets, direct.prepared.order,
                          direct.calls, direct.race_calls, replies)

        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    expected = (want.ordering, want.failing_sets, want.prepared.order, want.calls,
                want.race_calls)
    one_shot = _counts(match(query, data, match_limit=2000, store_limit=0))
    for row in seen:
        assert row[:5] == expected
        assert row[5] == [one_shot] * 3
    winner = _cached(session).raced
    assert (winner.ordering, winner.failing_sets, winner.calls) \
        == (want.ordering, want.failing_sets, want.calls)


def test_parallel_session_returns_the_sequential_count_of_a_raced_query(dense):
    data, queries = dense
    query = queries[1]
    one_shot = match(query, data, match_limit=None, store_limit=0)
    session = MatchSession(data, n_workers=2)
    try:
        replies = [session.match(query, match_limit=None, store_limit=0) for _ in range(3)]
        assert session.metrics.counters["session.races"] == 1
        sequential = session.match(query, match_limit=None, store_limit=0, n_workers=0)
        winner = _cached(session).raced
        assert sequential.order == winner.prepared.order
        # The fan-out runs the winner too: its workers are handed the
        # winner's order.
        assert replies[2].metrics.counters["parallel.matches"] == 1
        assert replies[2].order == winner.prepared.order
        assert replies[2].stats.recursion_calls == sequential.stats.recursion_calls
        for reply in replies + [sequential]:
            assert _counts(reply) == _counts(one_shot)
    finally:
        session.close()


def test_a_sampled_winner_fans_out_to_its_sequential_count_and_calls(dense):
    data, _ = dense
    query = extract_query(data, 7, seed=2)
    one_shot = match(query, data, match_limit=None, store_limit=0)
    session = MatchSession(data, n_workers=2)
    try:
        for _ in range(2):
            session.match(query, match_limit=None, store_limit=0, n_workers=0)
        winner = _cached(session).raced
        assert winner.ordering.startswith("sampled#")
        sequential = session.match(query, match_limit=None, store_limit=0, n_workers=0)
        fanned = session.match(query, match_limit=None, store_limit=0)
        assert fanned.metrics.counters["parallel.matches"] == 1
        assert fanned.order == sequential.order == winner.prepared.order
        assert fanned.stats.recursion_calls == sequential.stats.recursion_calls
        assert _counts(fanned) == _counts(sequential) == _counts(one_shot)
    finally:
        session.close()


@given(race_cases())
@_SETTINGS
def test_a_winner_runs_only_under_the_cap_it_raced(case):
    query, data, _ = case
    one_shot = match(query, data, match_limit=None, store_limit=0)
    session = MatchSession(data)
    session.has_match(query)
    session.has_match(query)  # races under match_limit=1
    winner = _cached(session).raced
    if winner is None:  # the first-match run did not solve
        return
    assert winner.match_limit == 1
    for _ in range(2):
        reply = session.match(query, match_limit=None, store_limit=0)
        assert _counts(reply) == _counts(one_shot)
        assert reply.order == one_shot.order
        assert astuple(reply.stats) == astuple(one_shot.stats)
    assert session.metrics.counters["session.races"] == 1


def test_a_call_with_a_deadline_never_races(dense):
    data, queries = dense
    query = queries[3]
    one_shot = match(query, data, match_limit=None, store_limit=0)
    session = MatchSession(data)
    # A deadline shorter than the race but long enough for one search:
    # each deadline-bound hit runs exactly the one search, never a race.
    for _ in range(3):
        reply = session.match(query, match_limit=None, store_limit=0, time_limit=30.0)
        assert _counts(reply) == _counts(one_shot)
        assert astuple(reply.stats) == astuple(one_shot.stats)
    assert "session.races" not in session.metrics.counters
    assert _cached(session).raced is None
    session.match(query, match_limit=None, store_limit=0)  # no deadline: races
    assert session.metrics.counters["session.races"] == 1
    reply = session.match(query, match_limit=None, store_limit=0, time_limit=30.0)
    assert reply.order == _cached(session).raced.prepared.order
    assert _counts(reply) == _counts(one_shot)


def test_a_racer_refused_rows_sits_out(dense, monkeypatch):
    data, queries = dense
    for query in queries:
        session = MatchSession(data)
        plan, prepared, calls, matches = _incumbent(session, query, data, None)
        assert prepared.kernel_used == "rows"
        aux = prepared.auxiliary
        budget = aux.row_bytes(_backward_pairs(query, prepared.order))
        # Distinct (order, failing sets) configurations other than the
        # incumbent's: a repeated one is never raced twice.
        distinct = {
            (tuple(order), fs)
            for _, order, fs in _configurations(query, data, prepared.candidates)
        } - {(tuple(prepared.order), plan.algorithm.failing_sets)}
        over = {
            config for config in distinct
            if aux.row_bytes(_backward_pairs(query, config[0])) > budget
        }
        if over:
            break
    else:
        pytest.skip("every racer's rows fit the incumbent's")
    # The auto policy's budget is now exactly the incumbent's rows.
    monkeypatch.setattr("repro.utils.kernels._bitset_cache_budget", lambda: budget)
    tracer = Tracer()
    with tracing(tracer):
        winner = race_orders(plan, query, data, prepared, calls, matches).raced
    assert _race_span(tracer)["racers"] == len(distinct) - len(over)
    assert (tuple(winner.prepared.order), winner.failing_sets) not in over
    assert winner.prepared.kernel_used == "rows"


def test_service_stats_carry_the_race_counters(dense):
    from repro.serve import MatchService

    data, queries = dense
    with MatchService(workers=1) as service:
        service.add_graph("g", data)
        assert "session.races" not in service.stats()["counters"]
        for _ in range(3):
            service.match(queries[4], graph="g", match_limit=5000, store_limit=0)
        counters = service.stats()["counters"]
    assert counters["session.races"] == 1
    assert counters["session.race_calls"] > 0
    assert "session.race_switches" in counters
