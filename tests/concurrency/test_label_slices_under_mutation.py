"""Row fills on spliced snapshots while a writer keeps splicing.

A snapshot's inherited label-pair neighbour slices trust the dynamic
graph's rewrite stamps, which the writer moves up under its lock while
readers of older snapshots keep reading them. A racing reader may only
see a vertex as more rewritten than it is, so every row it builds must
still equal the row built from that snapshot's own CSR. More reader
threads than cores and a shortened switch interval make the
interleavings dense; the suite watchdog (conftest) catches deadlocks.
"""

from __future__ import annotations

import random
import sys
import threading

from repro.dynamic import ADD_EDGE, REMOVE_EDGE, DynamicGraph, Mutation
from repro.filtering import LDFFilter
from repro.filtering.auxiliary import AuxiliaryStructure
from repro.graph import erdos_renyi_graph, extract_query

READERS = 6
ROUNDS = 10
BATCHES = 40


def whole_run_rows(query, data, candidates, auxiliary):
    """Every row of every pair, from each candidate's whole CSR run."""
    rows = {}
    for u_from, u_to in auxiliary.pairs():
        position = {x: j for j, x in enumerate(candidates[u_to])}
        table = []
        for v in candidates[u_from]:
            row = 0
            for x in data.neighbors(v).tolist():
                if x in position:
                    row |= 1 << position[x]
            table.append(row)
        rows[(u_from, u_to)] = table
    return rows


def test_rows_on_racing_snapshots_equal_their_own_csr():
    base = erdos_renyi_graph(80, 5.0, 3, seed=21)
    queries = [extract_query(base, 4, seed=s) for s in (1, 2, 3)]
    dyn = DynamicGraph(base)
    done = threading.Event()
    errors = []
    checked = [0] * READERS

    def writer():
        rng = random.Random(5)
        try:
            for _ in range(BATCHES):
                u, v = rng.sample(range(dyn.num_vertices), 2)
                op = REMOVE_EDGE if dyn.has_edge(u, v) else ADD_EDGE
                w, x = rng.sample(range(dyn.num_vertices), 2)
                dyn.apply([Mutation(op, u, v), Mutation(ADD_EDGE, w, x)])
                dyn.snapshot()
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)
        finally:
            done.set()

    def reader(tid):
        try:
            for round_ in range(ROUNDS):
                data = dyn.snapshot()
                query = queries[(tid + round_) % len(queries)]
                candidates = LDFFilter().run(query, data)
                auxiliary = AuxiliaryStructure.build(query, data, candidates, "all")
                got = {pair: auxiliary.rows(*pair) for pair in auxiliary.pairs()}
                assert got == whole_run_rows(query, data, candidates, auxiliary)
                checked[tid] += 1
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=writer, daemon=True)] + [
        threading.Thread(target=reader, args=(tid,), daemon=True)
        for tid in range(READERS)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]
    assert done.is_set() and checked == [ROUNDS] * READERS
    assert dyn.snapshot()._generation == BATCHES
