#!/usr/bin/env python3
"""Sessions: serve many queries against one resident data graph.

A ``MatchSession`` owns the data graph and amortizes everything that can
be amortized: an exact repeat of a query reuses its compiled plan and its
prepared candidates and order, skipping compilation, filtering and
ordering entirely and going straight to enumeration. Run with::

    PYTHONPATH=src python examples/session_throughput.py
"""

import time

from repro import Graph, MatchSession, match

# A ring of user/group vertices with chords — small but structured.
data = Graph(
    labels=[i % 2 for i in range(24)],
    edges=[(i, (i + 1) % 24) for i in range(24)]
    + [(i, (i + 4) % 24) for i in range(0, 24, 3)],
)

# Three patterns, submitted over and over (a service workload).
patterns = [
    Graph(labels=[1, 0, 1, 0], edges=[(0, 1), (1, 2), (2, 3)]),
    Graph(labels=[0, 1, 0], edges=[(0, 1), (1, 2)]),
    Graph(labels=[0, 1, 0, 1], edges=[(0, 1), (1, 2), (2, 3), (3, 0)]),
]
workload = [patterns[i % len(patterns)] for i in range(60)]


def main() -> None:
    # --- One-shot: every call resolves, filters and orders from scratch.
    start = time.perf_counter()
    one_shot = [match(q, data, algorithm="GQLfs") for q in workload]
    one_shot_s = time.perf_counter() - start

    # --- Session: compile once per pattern, reuse on every repeat.
    session = MatchSession(data, algorithm="GQLfs")
    start = time.perf_counter()
    results = session.match_many(workload)
    session_s = time.perf_counter() - start

    assert [r.num_matches for r in results] == [r.num_matches for r in one_shot]

    print(f"workload       : {len(workload)} queries, {len(patterns)} distinct")
    print(f"one-shot       : {one_shot_s * 1000:.1f} ms")
    print(f"session        : {session_s * 1000:.1f} ms "
          f"({one_shot_s / session_s:.1f}x)")

    # Each result's metrics say whether its plan was cached.
    first, later = results[0], results[-1]
    print(f"first query    : {dict(first.metrics.counters)['plan.cache_miss']} miss")
    print(f"last query     : {dict(later.metrics.counters)['plan.cache_hit']} hit")

    # The session keeps aggregate counters and cache introspection.
    print("session metrics:", dict(session.metrics.counters))
    print("cache info     :", session.cache_info())


if __name__ == "__main__":
    main()
