"""Caller-runs ``MatchService.match`` under contention: nothing leaks.

``match`` runs a lone caller's execution on the caller's thread and sends
everyone else through the pool, with one ``workers``-slot semaphore over
both. More client threads than cores, a switch interval short enough to
interleave them inside every critical section, and a mix of duplicate and
distinct queries: afterwards every count the two paths share must balance
— a lost update to the caller count, a slot not handed back or an entry
left in flight would each show here.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core.session import MatchSession
from repro.graph import erdos_renyi_graph, extract_query
from repro.serve import MatchService

CLIENTS = 8
ROUNDS = 40
WORKERS = 2


@pytest.fixture(scope="module")
def data():
    return erdos_renyi_graph(100, 5.0, 4, seed=44)


@pytest.fixture(scope="module")
def queries(data):
    return [extract_query(data, 5, seed=seed) for seed in (2, 3, 4)]


def test_mixed_caller_run_and_pooled_executions_balance(data, queries):
    reference = [MatchSession(data).match(q).num_matches for q in queries]
    service = MatchService(workers=WORKERS, max_queue_depth=CLIENTS + 1)
    service.add_graph("g", data)
    session = service.session_for("public", "g")
    inner, gauge = session.match, threading.Lock()
    inside = peak = 0

    def counted_match(*args, **kwargs):
        nonlocal inside, peak
        with gauge:
            inside += 1
            peak = max(peak, inside)
        try:
            return inner(*args, **kwargs)
        finally:
            with gauge:
                inside -= 1

    session.match = counted_match
    wrong, errors = [], []
    barrier = threading.Barrier(CLIENTS)

    def client(cid):
        try:
            barrier.wait(timeout=30)
            for i in range(ROUNDS):
                which = (i + (cid % 2)) % len(queries)
                response = service.match(queries[which], graph="g")
                if response.result.num_matches != reference[which]:
                    wrong.append((cid, i))
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client, args=(c,)) for c in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=100)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
        service.close()
    assert not errors and not wrong
    stats = service.stats()
    counters = stats["counters"]
    total = CLIENTS * ROUNDS
    assert counters["serve.requests"] == counters["serve.admitted"] == total
    assert counters["serve.completed"] == total
    assert counters["serve.executed"] + counters.get("serve.coalesced", 0) == total
    assert (stats["pending"], stats["inflight"]) == (0, 0)
    assert service._callers == 0
    assert 1 <= peak <= WORKERS
    # Every slot came back: all of them can be taken again, and no more.
    assert all(service._slots.acquire(blocking=False) for _ in range(WORKERS))
    assert not service._slots.acquire(blocking=False)
