"""Compiled search: a static bitmap-row order as generated Python.

The frame machine (:mod:`repro.enumeration.frames`) interprets every
search node: a frame's masks are slots of per-depth lists
(``f_valid[d]``, ``f_bad[d]``), positions live in ``pos[w]``, and the row
and translation tables are looked up by depth. For Algorithm 5 on bitmap
rows under a static order none of that changes from node to node, so the
search can be written out as Python source and compiled — the standard
answer to interpretation overhead in query plans (T. Neumann,
"Efficiently Compiling Efficient Query Plans for Modern Hardware",
VLDB 2011). Two generators share that form:

* the **generic search** (:func:`compile_generic`) is the shape of
  Algorithm 1 for one number of query vertices and one failing-sets
  flag. Everything a query supplies is data, unpacked into locals at
  entry (:func:`generic_tables`): per depth the ``ones`` mask, the row
  tables with the depth of their source vertex, the clash translation
  tables with the neighbours' bits, ``1 << u``, the backward mask and
  the emptyset class, plus the universes. Positions go in a
  preallocated list ``P``; whether a frame has conflicts and whether a
  failing set prunes are tested as the search runs. One source per
  ``(n, failing_sets)`` compiles once per process, so a first sighting
  pays at most that shared compile;
* the **specialised search** (:func:`compile_search`) writes one bound
  order out: the tables are closure constants, each query vertex's bit
  and backward mask integer literals, positions the locals ``p<d>``, and
  the conflict and failing-set branches are resolved while generating.
  It costs a compile per query (milliseconds) and runs fastest.

Both generate:

* one nested ``while`` per depth; the frame's masks are locals;
* holes filled through :meth:`~repro.filtering.auxiliary.AuxiliaryStructure.build_row`,
  exactly as the machine fills them;
* a failing-set prune as a ``break`` out of the frame's loop, whose
  ``else`` branch is the frame's exhaustion;
* counters in locals, returned to the machine with the match count, the
  poll countdown and whether the search finished;
* the machine's :meth:`~repro.enumeration.frames.FrameMachine._expired`
  every :data:`~repro.enumeration.support.DEADLINE_STRIDE` nodes, on the
  same nodes, so ``time_limit`` and ``cancel`` stop the search where the
  machine would;
* the leaf batch of the machine — ``match_limit`` cut, stored embeddings
  built from the positions in the same order (:func:`leaf_rows`).

Each is the machine's ``_loop`` for ``emit_rows=False`` with the
depth-indexed lookups resolved: same nodes, same five counters, same
embeddings in the same order. The parity suite
(``tests/property/test_prop_compiled.py``) holds both to that.

**No request string reaches the source.** The generators format only
integers — the number of query vertices, depths, query vertices and
their bit masks, ``DEADLINE_STRIDE`` — into fixed names and statements
(the generic one no query vertex or mask at all). Everything a request
supplies or a graph holds (row and translation tables, universes, masks
over candidates, limits, the deadline) is data — a closure constant or
an argument — never text.

:func:`search_for` is the policy: the first
:meth:`~repro.enumeration.frames.FrameMachine.run` over a prepared
query's :class:`~repro.enumeration.local_candidates.StaticOrderInfo`
(``prepared.static``) runs the generic search, the second compiles the
specialised one and caches it there, and neither runs an order deeper than CPython's limit of
statically nested blocks allows (:data:`MAX_COMPILED_VERTICES`).
"""

from __future__ import annotations

import threading
from functools import partial
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.enumeration.local_candidates import StaticOrderInfo
from repro.enumeration.support import DEADLINE_STRIDE, leaf_rows, lowest_bits

__all__ = [
    "MAX_COMPILED_VERTICES",
    "compile_generic",
    "compile_search",
    "generic_tables",
    "search_for",
]

#: CPython compiles at most 20 statically nested blocks in one function.
#: Both searches nest one ``while`` per depth but the leaf's, and the
#: generic one a ``for`` over a depth's extra rows or clashes inside the
#: deepest of them, so orders of up to 20 query vertices compile; deeper
#: ones run on the interpreted machine.
MAX_COMPILED_VERTICES = 20

#: A compiled search: ``search(machine, build_row, data, window, limit,
#: room, store_rows)`` returns ``(calls, conflicts, prunes, num_matches,
#: next_poll, solved)``.
Search = Callable[..., Tuple[int, int, int, int, int, bool]]

#: Which search a run ran, as the ``enumerate`` span reports it.
INTERPRETED, GENERIC, SPECIALISED = "interpreted", "generic", "specialised"

#: Generic searches of this process, by ``(n, failing_sets)``.
_GENERIC: Dict[Tuple[int, bool], Search] = {}
_GENERIC_LOCK = threading.Lock()


def search_for(
    static: StaticOrderInfo, failing_sets: bool
) -> Tuple[Optional[Search], str, float]:
    """The search to run ``static`` under ``failing_sets``, which one it
    is, and the seconds this call spent compiling.

    ``None`` (``"interpreted"``) when the order does not compile
    (list-answering methods, or deeper than
    :data:`MAX_COMPILED_VERTICES`). The first call for the pair runs the
    generic search of its size, compiled here if this process has not
    yet; the second compiles the specialised search and caches it on
    ``static``. Two threads that race the specialised compile each build
    an equal search, and either one is kept.
    """
    if static.rows is None or len(static.order) > MAX_COMPILED_VERTICES:
        return None, INTERPRETED, 0.0
    cache: Optional[Dict[bool, Optional[Search]]] = static.compiled
    if cache is None:
        cache = static.compiled = {}
    search = cache.get(failing_sets)
    if search is not None:
        return search, SPECIALISED, 0.0
    started = perf_counter()
    if failing_sets not in cache:
        cache[failing_sets] = None  # a first sighting runs the generic search
        generic, paid = _generic(len(static.order), failing_sets)
        seconds = perf_counter() - started if paid else 0.0
        return partial(generic, generic_tables(static)), GENERIC, seconds
    search = cache[failing_sets] = compile_search(static, failing_sets)
    return search, SPECIALISED, perf_counter() - started


def _generic(n: int, failing_sets: bool) -> Tuple[Search, bool]:
    """This process's generic search for ``(n, failing_sets)``, and
    whether this call compiled it (once per process: the lock keeps a
    racing thread from paying it twice)."""
    key = (n, failing_sets)
    search = _GENERIC.get(key)
    if search is not None:
        return search, False
    with _GENERIC_LOCK:
        search = _GENERIC.get(key)
        if search is not None:
            return search, False
        search = _GENERIC[key] = compile_generic(n, failing_sets)
        return search, True


def _build(lines: List[str], constants: Dict[str, object]) -> Search:
    names = sorted(constants)
    source = "\n".join(
        [f"def make({', '.join(names)}):"]
        + ["    " + line for line in lines]
        + ["    return search", ""]
    )
    namespace: Dict[str, object] = {}
    exec(compile(source, "<compiled search>", "exec"), namespace)
    return namespace["make"](**constants)  # type: ignore[operator]


def compile_search(static: StaticOrderInfo, failing_sets: bool) -> Search:
    """Generate and compile the specialised search of a bound bitmap-row
    order."""
    constants: Dict[str, object] = {}
    return _build(_Specialised(static, failing_sets, constants).lines(), constants)


def compile_generic(n: int, failing_sets: bool) -> Search:
    """Generate and compile the generic search of ``n``-vertex orders;
    it takes :func:`generic_tables` as its first argument."""
    constants: Dict[str, object] = {"lowest_bits": lowest_bits, "leaf_rows": leaf_rows}
    return _build(_Generic(n, failing_sets).lines(), constants)


#: The per-depth values of :func:`generic_tables`, in unpacking order.
_DEPTH_NAMES = ("O", "V", "L", "R", "S", "W", "RT", "X", "B", "M", "E")


def generic_tables(static: StaticOrderInfo) -> tuple:
    """A bound order as the generic search's data: the universes, then per
    depth ``d`` (query vertex ``u``):

    * ``O`` the ones mask, ``V`` ``u`` and ``L`` ``U(u)``'s vertex list;
    * ``R, S, W`` the first row table, the depth of its source vertex and
      that vertex, and ``RT`` the other rows as such triples. A depth
      without rows (the root, or a vertex an order places before all its
      neighbours) gets an all-ones row read at ``P[n]``, which stays 0;
    * ``X`` ``(translation, source depth, source bit)`` per clash;
    * ``B`` ``1 << u``, ``M`` the backward mask and ``E`` the emptyset
      class ``B | M``.
    """
    order = static.order
    n = len(order)
    universes = static.universes
    depth_of = {u: d for d, u in enumerate(order)}
    tables: List[object] = [universes]
    for d, u in enumerate(order):
        rows = [(table, depth_of[w], w) for w, table in static.rows[d]]
        first = rows[0] if rows else ([-1], n, u)
        backward = static.backward_mask[d]
        tables += (
            static.ones[d],
            u,
            universes[u],
            *first,
            tuple(rows[1:]),
            tuple((table, depth_of[w], 1 << w) for w, table in static.clash[d]),
            1 << u,
            backward,
            (1 << u) | backward,
        )
    return tuple(tables)


class _Source:
    """The lines of one generated search and the statements both
    generators share."""

    def __init__(self, fs: bool, last: int) -> None:
        self.fs = fs
        self.last = last
        self.out: List[str] = []

    def emit(self, level: int, text: str) -> None:
        self.out.append("    " * level + text)

    def prologue(self, signature: str) -> None:
        emit = self.emit
        emit(0, f"def search({signature}):")
        emit(1, "stop = m._expired")
        # The machine's tick counts down to its next poll; calls and tick
        # always move together, so the poll falls due at a call count.
        emit(1, "next_poll = m._tick")
        emit(1, "num_matches = m._num_matches")
        emit(1, "calls = conflicts = prunes = 0")

    def finish(self, level: int, solved: bool) -> None:
        self.emit(
            level, f"return calls, conflicts, prunes, num_matches, next_poll, {solved}"
        )

    def poll(self, level: int) -> None:
        emit = self.emit
        emit(level, "if calls >= next_poll:")
        emit(level + 1, f"next_poll = calls + {DEADLINE_STRIDE}")
        emit(level + 1, "if stop():")
        self.finish(level + 2, False)

    def skip(self, d: int, level: int, below: str) -> None:
        """Scan the conflicts of frame ``d`` under the mask ``below`` (an
        expression), as consuming the candidate above them does."""
        emit = self.emit
        emit(level, f"if bad{d}:")
        emit(level + 1, f"skipped = bad{d} & ({below})")
        emit(level + 1, "if skipped:")
        emit(level + 2, "conflicts += skipped.bit_count()")
        emit(level + 2, f"bad{d} ^= skipped")

    def take(self, d: int, level: int, has_bad: bool) -> None:
        """The leaf batch of frame ``d``: cut at the match limit (clamped
        to at least one match) and stop there, or record all of it."""
        emit = self.emit
        emit(level, f"take = valid{d}.bit_count()")
        emit(level, "if take >= limit - num_matches:")
        cut = level + 1
        emit(cut, "room_m = limit - num_matches")
        emit(cut, "if room_m < 1:")
        emit(cut + 1, "room_m = 1")
        emit(cut, f"taken = valid{d}")
        emit(cut, "if take > room_m:")
        emit(cut + 1, "take = room_m")
        emit(cut + 1, f"taken = lowest_bits(valid{d}, room_m)")
        self.batch(d, cut, has_bad, "taken")
        self.finish(cut, True)
        self.batch(d, level, has_bad, f"valid{d}")

    def batch(self, d: int, level: int, has_bad: bool, taken: str) -> None:
        """Record the leaf batch ``taken`` of ``take`` matches."""
        emit = self.emit
        if has_bad:
            self.skip(d, level, f"(1 << ({taken}.bit_length() - 1)) - 1")
        emit(level, "calls += take")
        emit(level, "num_matches += take")
        self.poll(level)
        emit(level, "if room:")
        emit(level + 1, "count = take if take < room else room")
        self.store(d, level + 1, taken)
        emit(level + 1, "room -= count")

    def store(self, d: int, level: int, taken: str) -> None:
        raise NotImplementedError


class _Specialised(_Source):
    """One bound order, depth by depth.

    Depth ``d``'s code sits inside the loop body of depth ``d - 1``, so a
    frame hands its failing set up where it knows it: a constant one (the
    emptyset class, or "every vertex" after a leaf batch) resolves the
    parent's prune test while generating, a computed one goes through
    ``ret`` and the test runs.
    """

    def __init__(
        self,
        static: StaticOrderInfo,
        failing_sets: bool,
        constants: Dict[str, object],
    ) -> None:
        super().__init__(failing_sets, len(static.order) - 1)
        self.static = static
        self.constants = constants
        self.order = static.order
        self.depth_of = {u: d for d, u in enumerate(static.order)}
        constants["lowest_bits"] = lowest_bits
        constants["leaf_rows"] = leaf_rows
        constants["U"] = static.universes

    def lines(self) -> List[str]:
        self.prologue("m, build_row, data, window, limit, room, store_rows")
        self.depth(0, 1)
        self.finish(1, True)
        return self.out

    def constant(self, name: str, value: object) -> str:
        self.constants[name] = value
        return name

    def give(self, d: int, level: int, value: Optional[int] = None) -> bool:
        """Frame ``d`` returns the failing set ``value`` (``ret`` when
        None) to frame ``d - 1``, whose loop body this is: a set without
        the parent's vertex prunes the parent's remaining siblings. True
        when the emitted code always leaves the parent's loop."""
        if not self.fs or d == 0:
            return False
        emit = self.emit
        bit = 1 << self.order[d - 1]
        if value is None:
            emit(level, f"if not ret & {bit}:")
            emit(level + 1, "prunes += 1")
            emit(level + 1, "break")
            emit(level, f"fset{d - 1} |= ret")
            return False
        if value & bit:
            emit(level, f"fset{d - 1} |= {value}")
            return False
        emit(level, f"ret = {value}")
        emit(level, "prunes += 1")
        emit(level, "break")
        return True

    def depth(self, d: int, level: int) -> None:
        """Depth ``d``'s search node, entered at indentation ``level``:
        open it, then run its loop (or its leaf batch)."""
        emit, static, fs = self.emit, self.static, self.fs
        u = self.order[d]
        # (1) Enter the node: count it, poll at the stride, AND the rows.
        emit(level, "calls += 1")
        self.poll(level)
        full = self.constant(f"O{d}", static.ones[d])
        for j, (w, table) in enumerate(static.rows[d]):
            rows, p = self.constant(f"R{d}_{j}", table), f"p{self.depth_of[w]}"
            emit(level, f"row = {rows}[{p}]")
            emit(level, "if row is None:")
            emit(level + 1, f"row = {rows}[{p}] = build_row(data, {w}, {u}, {p})")
            emit(level, f"full = {full} & row")
            full = "full"
        if d == 0:
            emit(level, f"full = {full} & window")
            emit(level, "if full:")
            level += 1
        else:
            if full != "full":
                emit(level, f"full = {full}")
            # An empty frame scans nothing and returns its emptyset class.
            emit(level, "if not full:")
            if not self.give(d, level + 1, (1 << u) | static.backward_mask[d]):
                emit(level + 1, "continue")
        # Injectivity: the position of M[w] in U(u) for every earlier w
        # whose universe overlaps U(u); the ws that hit are the frame's
        # conflict class.
        clash = static.clash[d]
        if clash:
            emit(level, f"bad{d} = 0")
            if fs:
                emit(level, f"owners{d} = 0")
            for j, (w, translation) in enumerate(clash):
                table = self.constant(f"X{d}_{j}", translation)
                emit(level, f"at = {table}[p{self.depth_of[w]}]")
                emit(level, "if at >= 0 and full >> at & 1:")
                emit(level + 1, f"bad{d} |= 1 << at")
                if fs:
                    emit(level + 1, f"owners{d} |= {1 << w}")
            emit(level, f"valid{d} = full ^ bad{d}")
        else:
            emit(level, f"valid{d} = full")
        if d == self.last:
            self.leaf(d, level, bool(clash))
        else:
            self.interior(d, level, bool(clash))

    def interior(self, d: int, level: int, has_bad: bool) -> None:
        emit, fs, u = self.emit, self.fs, self.order[d]
        if fs:
            emit(level, f"fset{d} = 0")
        # (2b) Interior steps: consume the lowest valid candidate (scanning
        # the conflicts skipped below it), descend.
        emit(level, f"while valid{d}:")
        body = level + 1
        emit(body, f"low = valid{d} & -valid{d}")
        emit(body, f"valid{d} ^= low")
        if has_bad:
            self.skip(d, body, "low - 1")
        emit(body, f"p{d} = low.bit_length() - 1")
        self.depth(d + 1, body)
        # (2c) Exhausted (a pruned frame breaks out and skips this): the
        # conflicts above the last consumed candidate are the frame's
        # tail, and its failing set joins the children's, the backward
        # neighbours and — if any candidate conflicted — its vertex and
        # the conflict class.
        if not fs:
            if has_bad:
                emit(level, f"if bad{d}:")
                emit(level + 1, f"conflicts += bad{d}.bit_count()")
            return
        if d == 0 and not has_bad:
            return
        emit(level, "else:")
        if has_bad:
            emit(level + 1, f"if bad{d}:")
            emit(level + 2, f"conflicts += bad{d}.bit_count()")
        if d > 0:
            conflict_class = (
                f" | ({1 << u} | owners{d} if owners{d} else 0)" if has_bad else ""
            )
            emit(
                level + 1,
                f"ret = fset{d} | {self.static.backward_mask[d]}{conflict_class}",
            )
        self.give(d, level)

    def leaf(self, d: int, level: int, has_bad: bool) -> None:
        emit, fs = self.emit, self.fs
        u = self.order[d]
        # (2a) Leaf batch: every valid candidate completes a match.
        if has_bad:
            emit(level, f"if valid{d}:")
            level += 1
        self.take(d, level, has_bad)
        if has_bad:
            emit(level, f"if bad{d}:")
            emit(level + 1, f"conflicts += bad{d}.bit_count()")
        if d == 0:
            return
        self.give(d, level, (1 << len(self.order)) - 1)  # the leaf matched
        if not has_bad:
            return
        emit(level, "continue")
        # Every candidate conflicted: the tail is all of them, and the
        # failing set the conflict class with the backward neighbours.
        level -= 1
        emit(level, f"conflicts += bad{d}.bit_count()")
        if fs:
            emit(level, f"ret = {(1 << u) | self.static.backward_mask[d]} | owners{d}")
            self.give(d, level)

    def store(self, d: int, level: int, taken: str) -> None:
        mapping = ", ".join(
            "-1" if w == self.order[d] else self._value(w)
            for w in range(len(self.order))
        )
        self.emit(
            level,
            f"store_rows(leaf_rows([{mapping}], {self.order[d]}, U, {taken}, count))",
        )

    def _value(self, w: int) -> str:
        """The data vertex mapped to query vertex ``w``, as an expression."""
        lst = self.constant(f"L{w}", self.static.universes[w])
        return f"{lst}[p{self.depth_of[w]}]"


class _Generic(_Source):
    """The search of every ``n``-vertex order, depth by depth: the
    specialised search's statements over the per-depth locals of
    :func:`generic_tables`, with its generation-time branches as tests.
    """

    def __init__(self, n: int, failing_sets: bool) -> None:
        super().__init__(failing_sets, n - 1)
        self.n = n

    def lines(self) -> List[str]:
        emit = self.emit
        self.prologue("tables, m, build_row, data, window, limit, room, store_rows")
        names = ["U"] + [f"{name}{d}" for d in range(self.n) for name in _DEPTH_NAMES]
        emit(1, f"{', '.join(names)}, = tables")
        emit(1, f"P = [0] * {self.n + 1}")
        self.depth(0, 1)
        self.finish(1, True)
        return self.out

    def give(self, d: int, level: int) -> None:
        """Frame ``d`` returns ``ret`` to frame ``d - 1``, whose loop body
        this is: a set without the parent's vertex prunes its siblings."""
        emit = self.emit
        emit(level, f"if not ret & B{d - 1}:")
        emit(level + 1, "prunes += 1")
        emit(level + 1, "break")
        emit(level, f"fset{d - 1} |= ret")

    def depth(self, d: int, level: int) -> None:
        emit, fs = self.emit, self.fs
        # (1) Enter the node: count it, poll at the stride, AND the rows.
        emit(level, "calls += 1")
        self.poll(level)
        if d == 0:
            # The root has no rows and no earlier vertex to clash with.
            emit(level, "full = O0 & window")
            emit(level, "if full:")
            level += 1
            emit(level, "valid0 = full")
        else:
            emit(level, f"at = P[S{d}]")
            emit(level, f"row = R{d}[at]")
            emit(level, "if row is None:")
            emit(level + 1, f"row = R{d}[at] = build_row(data, W{d}, V{d}, at)")
            emit(level, f"full = O{d} & row")
            emit(level, f"if RT{d}:")
            emit(level + 1, f"for rows, s, w in RT{d}:")
            emit(level + 2, "at = P[s]")
            emit(level + 2, "row = rows[at]")
            emit(level + 2, "if row is None:")
            emit(level + 3, f"row = rows[at] = build_row(data, w, V{d}, at)")
            emit(level + 2, "full &= row")
            # An empty frame scans nothing and returns its emptyset class.
            emit(level, "if not full:")
            if fs:
                emit(level + 1, f"ret = E{d}")
                self.give(d, level + 1)
            emit(level + 1, "continue")
            # Injectivity: the ws whose M[w] sits in ``full`` are the
            # frame's conflict class.
            emit(level, f"bad{d} = 0")
            if fs:
                emit(level, f"owners{d} = 0")
            emit(level, f"if X{d}:")
            emit(level + 1, f"for table, s, bit in X{d}:")
            emit(level + 2, "at = table[P[s]]")
            emit(level + 2, "if at >= 0 and full >> at & 1:")
            emit(level + 3, f"bad{d} |= 1 << at")
            if fs:
                emit(level + 3, f"owners{d} |= bit")
            emit(level, f"valid{d} = full ^ bad{d}")
        if d == self.last:
            self.leaf(d, level)
        else:
            self.interior(d, level)

    def interior(self, d: int, level: int) -> None:
        emit, fs = self.emit, self.fs
        if fs:
            emit(level, f"fset{d} = 0")
        # (2b) Interior steps: consume the lowest valid candidate, descend.
        emit(level, f"while valid{d}:")
        body = level + 1
        emit(body, f"low = valid{d} & -valid{d}")
        emit(body, f"valid{d} ^= low")
        if d > 0:
            self.skip(d, body, "low - 1")
        emit(body, f"P[{d}] = low.bit_length() - 1")
        self.depth(d + 1, body)
        # (2c) Exhausted: the conflict tail, then the failing set.
        if d == 0:
            return
        if not fs:
            emit(level, f"if bad{d}:")
            emit(level + 1, f"conflicts += bad{d}.bit_count()")
            return
        emit(level, "else:")
        emit(level + 1, f"if bad{d}:")
        emit(level + 2, f"conflicts += bad{d}.bit_count()")
        emit(level + 1, f"ret = fset{d} | M{d} | (B{d} | owners{d} if owners{d} else 0)")
        self.give(d, level)

    def leaf(self, d: int, level: int) -> None:
        emit, fs = self.emit, self.fs
        # (2a) Leaf batch: every valid candidate completes a match.
        if d == 0:
            self.take(d, level, False)
            return
        emit(level, f"if valid{d}:")
        self.take(d, level + 1, True)
        emit(level + 1, f"if bad{d}:")
        emit(level + 2, f"conflicts += bad{d}.bit_count()")
        if fs:
            emit(level + 1, f"fset{d - 1} |= {(1 << self.n) - 1}")  # the leaf matched
        emit(level + 1, "continue")
        # Every candidate conflicted: the tail is all of them, and the
        # failing set the conflict class with the backward neighbours.
        emit(level, f"conflicts += bad{d}.bit_count()")
        if fs:
            emit(level, f"ret = E{d} | owners{d}")
            self.give(d, level)

    def store(self, d: int, level: int, taken: str) -> None:
        emit = self.emit
        emit(level, f"mapping = [-1] * {self.n}")
        for s in range(d):
            emit(level, f"mapping[V{s}] = L{s}[P[{s}]]")
        emit(level, f"store_rows(leaf_rows(mapping, V{d}, U, {taken}, count))")
