"""Row fills and NLF columns on spliced snapshots while a writer keeps
splicing.

A snapshot's inherited label-pair neighbour slices and neighbour-label
columns trust the dynamic graph's rewrite stamps, which the writer moves
up under its lock, and extends as it appends vertices, while readers of
older snapshots keep reading them. A racing reader may only see a vertex
as more rewritten than it is, so every row it builds and every column it
patches must still equal the one built from that snapshot's own CSR, and
no reader may hold the stamps in a way that stops the writer extending
them. More reader threads than cores and a shortened switch interval make
the interleavings dense; the suite watchdog (conftest) catches deadlocks.
"""

from __future__ import annotations

import random
import sys
import threading

import numpy as np

from repro.dynamic import ADD_EDGE, ADD_VERTEX, REMOVE_EDGE, DynamicGraph, Mutation
from repro.filtering import LDFFilter
from repro.filtering.auxiliary import AuxiliaryStructure
from repro.graph import erdos_renyi_graph, extract_query
from repro.graph import graph as graph_module

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


def own_column(data, label):
    """``|N(v, label)|`` for every ``v``, counted from ``data``'s CSR."""
    offsets, neighbors = data.csr
    owner = np.repeat(np.arange(data.num_vertices), np.diff(offsets))
    hits = owner[data.labels[neighbors] == label]
    return np.bincount(hits, minlength=data.num_vertices).astype(np.int32)


def test_rows_and_columns_on_racing_snapshots_equal_their_own_csr(monkeypatch):
    base = erdos_renyi_graph(80, 5.0, 3, seed=21)
    queries = [extract_query(base, 4, seed=s) for s in (1, 2, 3)]
    labels = sorted(base.label_set)
    for label in labels:  # inherited by every snapshot, patched on read
        base.neighbor_label_counts(label)
    dyn = DynamicGraph(base)
    count_labels = graph_module._count_labels

    def resizing(codes, bounds, k):
        # The resize of the stamps an appending splice makes, landed in
        # the middle of every count a reader makes: it raises
        # BufferError while that reader exports the stamps' buffer.
        with dyn._lock:
            dyn._stamps.append(0)
            dyn._stamps.pop()
        return count_labels(codes, bounds, k)

    monkeypatch.setattr(graph_module, "_count_labels", resizing)
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
                # An appended vertex makes the splice extend the stamps.
                new = dyn.num_vertices
                dyn.apply([
                    Mutation(op, u, v),
                    Mutation(ADD_EDGE, w, x),
                    Mutation(ADD_VERTEX, rng.choice(labels)),
                    Mutation(ADD_EDGE, new, rng.randrange(new)),
                ])
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
                for label in labels[tid % len(labels):] + labels[:tid % len(labels)]:
                    column = data.neighbor_label_counts(label)
                    assert column.tobytes() == own_column(data, label).tobytes()
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
