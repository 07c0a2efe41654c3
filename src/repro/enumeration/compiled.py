"""Compiled search: one static bitmap-row order as generated Python.

The frame machine (:mod:`repro.enumeration.frames`) interprets every
search node: a frame's masks are slots of per-depth lists
(``f_valid[d]``, ``f_bad[d]``), positions live in ``pos[w]``, and the row
and translation tables are looked up by depth. For Algorithm 5 on bitmap
rows under a static order none of that changes from node to node, so the
order can be written out once as Python source and compiled — the
standard answer to interpretation overhead in query plans (T. Neumann,
"Efficiently Compiling Efficient Query Plans for Modern Hardware",
VLDB 2011). :func:`compile_search` generates:

* one nested ``while`` per depth; the frame's masks and its position
  ``p<d>`` in ``U(order[d])`` are local variables;
* the row tables, translation tables, universes and ``ones`` masks bound
  as closure constants, and each query vertex's bit (``1 << u``) and
  backward mask as integer literals;
* holes filled through :meth:`~repro.filtering.auxiliary.AuxiliaryStructure.build_row`,
  exactly as the machine fills them;
* a failing-set prune as a ``break`` out of the frame's loop, whose
  ``else`` branch is the frame's exhaustion;
* counters in locals, written back in a ``finally``;
* the machine's :meth:`~repro.enumeration.frames.FrameMachine._poll` every
  :data:`~repro.enumeration.support.DEADLINE_STRIDE` nodes, on the same
  nodes, so ``time_limit`` and ``cancel`` stop the search where the
  machine would;
* the leaf batch of the machine — ``match_limit`` cut, stored embeddings
  built from the positions in the same order (:func:`leaf_rows`).

It is the machine's ``_loop`` for ``emit_rows=False`` with every
depth-indexed lookup resolved: same nodes, same five counters, same
embeddings in the same order. The parity suite
(``tests/property/test_prop_compiled.py``) holds it to that.

**No request string reaches the source.** The generator formats only
integers — depths, query vertices and their bit masks, ``DEADLINE_STRIDE``
— into fixed names and statements. Everything a request supplies or a
graph holds (row and translation tables, universes, masks over
candidates, limits, the deadline) is a closure constant or an argument,
never text.

:func:`search_for` is the policy: an order compiles on the second
:meth:`~repro.enumeration.frames.FrameMachine.run` over the same bound
:class:`~repro.enumeration.local_candidates.StaticOrderInfo` (so a
first sighting never pays the compile), and only when it fits CPython's
limit of statically nested blocks (:data:`MAX_COMPILED_VERTICES`).
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.enumeration.local_candidates import StaticOrderInfo
from repro.enumeration.support import DEADLINE_STRIDE, leaf_rows, lowest_bits

__all__ = ["MAX_COMPILED_VERTICES", "compile_search", "search_for"]

#: CPython compiles at most 20 statically nested blocks in one function.
#: The generated search uses one ``try`` and one ``while`` per depth but
#: the leaf's, so orders of up to 20 query vertices compile; deeper ones
#: run on the interpreted machine.
MAX_COMPILED_VERTICES = 20

#: A compiled search: ``search(machine, build_row, data, window, limit,
#: room, store_rows)``.
Search = Callable[..., None]


def search_for(
    static: StaticOrderInfo, failing_sets: bool
) -> Tuple[Optional[Search], float]:
    """The compiled search of ``static`` under ``failing_sets`` and the
    seconds this call spent compiling it.

    ``(None, 0.0)`` when the order does not compile (list-answering
    methods, or deeper than :data:`MAX_COMPILED_VERTICES`) and on the
    first call for the pair, which only records the sighting; the second
    call compiles and caches the search on ``static``. Two threads that
    race the compile each build an equal search, and either one is kept.
    """
    if static.rows is None or len(static.order) > MAX_COMPILED_VERTICES:
        return None, 0.0
    cache: Optional[Dict[bool, Optional[Search]]] = static.compiled
    if cache is None:
        cache = static.compiled = {}
    search = cache.get(failing_sets)
    if search is not None:
        return search, 0.0
    if failing_sets not in cache:
        cache[failing_sets] = None  # a first sighting runs interpreted
        return None, 0.0
    started = perf_counter()
    search = cache[failing_sets] = compile_search(static, failing_sets)
    return search, perf_counter() - started


def compile_search(static: StaticOrderInfo, failing_sets: bool) -> Search:
    """Generate and compile the search of a bound bitmap-row order."""
    constants: Dict[str, object] = {}
    lines = _Source(static, failing_sets, constants).lines()
    names = sorted(constants)
    source = "\n".join(
        [f"def make({', '.join(names)}):"]
        + ["    " + line for line in lines]
        + ["    return search", ""]
    )
    namespace: Dict[str, object] = {}
    exec(compile(source, "<compiled search>", "exec"), namespace)
    return namespace["make"](**constants)  # type: ignore[operator]


class _Source:
    """The generated lines of one search, depth by depth.

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
        self.static = static
        self.fs = failing_sets
        self.constants = constants
        self.order = static.order
        self.last = len(static.order) - 1
        self.depth_of = {u: d for d, u in enumerate(static.order)}
        self.out: List[str] = []
        constants["lowest_bits"] = lowest_bits
        constants["leaf_rows"] = leaf_rows
        constants["U"] = static.universes

    def lines(self) -> List[str]:
        emit = self.emit
        emit(0, "def search(m, build_row, data, window, limit, room, store_rows):")
        emit(1, "poll = m._poll")
        # The machine's tick counts down to its next poll; calls and tick
        # always move together, so the poll falls due at a call count.
        emit(1, "next_poll = m._tick")
        emit(1, "num_matches = m._num_matches")
        emit(1, "calls = conflicts = prunes = 0")
        emit(1, "try:")
        self.depth(0, 2)
        emit(1, "finally:")
        emit(2, "stats = m._stats")
        emit(2, "stats.recursion_calls += calls")
        # Every scanned candidate that is not a conflict opened one node
        # (a leaf batch's take counts as its calls), and nothing opened
        # the root, which is always entered.
        emit(2, "stats.candidates_scanned += calls - 1 + conflicts")
        emit(2, "stats.conflicts += conflicts")
        emit(2, "stats.failing_set_prunes += prunes")
        emit(2, "m._tick = next_poll - calls")
        emit(2, "m._num_matches = num_matches")
        return self.out

    def emit(self, level: int, text: str) -> None:
        self.out.append("    " * level + text)

    def bind(self, name: str, value: object) -> str:
        self.constants[name] = value
        return name

    def poll(self, level: int) -> None:
        emit = self.emit
        emit(level, "if calls >= next_poll:")
        emit(level + 1, f"next_poll = calls + {DEADLINE_STRIDE}")
        emit(level + 1, "poll()")

    def skip(self, d: int, level: int, below: str) -> None:
        """Scan the conflicts of frame ``d`` under the mask ``below`` (an
        expression), as consuming the candidate above them does."""
        emit = self.emit
        emit(level, f"if bad{d}:")
        emit(level + 1, f"skipped = bad{d} & ({below})")
        emit(level + 1, "if skipped:")
        emit(level + 2, "conflicts += skipped.bit_count()")
        emit(level + 2, f"bad{d} ^= skipped")

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
        full = self.bind(f"O{d}", static.ones[d])
        for j, (w, table) in enumerate(static.rows[d]):
            rows, p = self.bind(f"R{d}_{j}", table), f"p{self.depth_of[w]}"
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
                table = self.bind(f"X{d}_{j}", translation)
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
        emit(level, f"take = valid{d}.bit_count()")
        emit(level, "if take >= limit - num_matches:")
        # The batch reaches the match limit (cut at it, clamped to at
        # least one match): record it and stop.
        cut = level + 1
        emit(cut, "room_m = limit - num_matches")
        emit(cut, "if room_m < 1:")
        emit(cut + 1, "room_m = 1")
        emit(cut, f"taken = valid{d}")
        emit(cut, "if take > room_m:")
        emit(cut + 1, "take = room_m")
        emit(cut + 1, f"taken = lowest_bits(valid{d}, room_m)")
        self.batch(d, cut, has_bad, "taken")
        emit(cut, "return")
        self.batch(d, level, has_bad, f"valid{d}")
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

    def batch(self, d: int, level: int, has_bad: bool, taken: str) -> None:
        """Record the leaf batch ``taken`` of ``take`` matches."""
        emit = self.emit
        if has_bad:
            self.skip(d, level, f"(1 << ({taken}.bit_length() - 1)) - 1")
        emit(level, "calls += take")
        emit(level, "num_matches += take")
        self.poll(level)
        emit(level, "if room:")
        mapping = ", ".join(
            "-1" if w == self.order[d] else self._value(w)
            for w in range(len(self.order))
        )
        emit(level + 1, "count = take if take < room else room")
        emit(
            level + 1,
            f"store_rows(leaf_rows([{mapping}], {self.order[d]}, U, {taken}, count))",
        )
        emit(level + 1, "room -= count")

    def _value(self, w: int) -> str:
        """The data vertex mapped to query vertex ``w``, as an expression."""
        lst = self.bind(f"L{w}", self.static.universes[w])
        return f"{lst}[p{self.depth_of[w]}]"
