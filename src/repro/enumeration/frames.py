"""The enumeration engine: Algorithm 1 as an iterative frame machine.

The one engine every plan, parallel worker and study run constructs. It
runs a :class:`~repro.core.plan.PreparedQuery` — the one artifact the
paper's preprocessing (filter, order, auxiliary structure) produces — and
replaces the recursive descent of the reference implementation
(:mod:`repro.enumeration.engine`) with an explicit machine over per-depth
*frames*. A DFS visits at most one search node per depth at a time, so the
"stack" is a set of preallocated per-depth slots.

**Position space.** A frame never holds candidate arrays. Every frame is
a set of integer masks over the positions of its query vertex's fixed
*universe* ``U(u)`` — ``C(u)``, or LDF(u) for the presets that run no
filter (:func:`~repro.enumeration.local_candidates.universe_sets`):
``full`` (the local candidates ``LC(u, M)``), ``bad`` (the members of
``full`` already used by an ancestor) and ``valid = full & ~bad``. The
next candidate is ``valid & -valid``, a leaf batch is
``valid.bit_count()`` matches, and nothing is decoded unless embeddings
are stored or emitted — then each is a tuple of plain ints built straight
from the mapping (:func:`~repro.enumeration.support.leaf_rows`). The
machine tracks ``pos[w]``, the position of ``M[w]`` in ``U(w)``, beside
``mapping[w]``.

* ``full`` is, for **Algorithm 5 on bitmap rows** (a static order under
  the ``rows`` kernel, what ``auto`` resolves to), the AND of the
  backward neighbors' rows ``A_u^w`` at their mapped positions: row
  tables are bound once per prepared query (``prepared.static``) as
  holes the AND fills on first read, and a search node costs a few
  integer ANDs and no numpy call. Every other method (Algorithms 2–4,
  ``2PP-LC``, Algorithm 5 under an explicit array kernel, the adaptive
  selector) keeps answering in a sorted list inside ``U(u)``, which the
  frame places into ``U(u)`` positions when it opens.
* ``bad`` ORs, for each earlier query vertex ``w`` whose universe
  overlaps ``U(u)``, the position of ``M[w]`` in ``U(u)`` — one
  translation table per such pair
  (:meth:`~repro.filtering.candidates.CandidateSets.translation`), bound
  with the static order or, under an adaptive one, looked up as the frame
  opens.

**Counters from popcounts.** ``candidates_scanned`` and ``conflicts``
count, per frame, the members of ``full`` up to the last consumed bit:
each consumed candidate scans itself plus the ``bad`` bits skipped below
it (a popcount, taken only in frames that have conflicts at all), and an
exhausted frame scans its remaining ``bad`` bits as a tail. A frame
pruned by failing sets returns mid-list and accounts no tail. The
failing-set *conflict class* of a frame is exactly the set of earlier
vertices whose bit hit ``full``. Parity with the recursive reference is
exact — ``recursion_calls``, ``candidates_scanned``, ``conflicts``,
``failing_set_prunes`` and ``adaptive_lc_reused`` all match, as do the
embeddings byte-for-byte; a checked-in golden table
(``tests/corpus/engine_goldens.json``) and the engine-parity property
suite, which runs both classes over the same prepared query, enforce
this.

Pause/resume: the machine's state lives on the object, so
:meth:`FrameMachine.advance` yields one leaf batch at a time —
:func:`repro.enumeration.streaming.iter_matches` is a thin generator over
it — and :meth:`FrameMachine.step` runs a count-only machine a few nodes
at a time (the order race).

**Compiled search.** For Algorithm 5 on bitmap rows under a static
order, :meth:`FrameMachine.run` runs the order as generated Python
(:mod:`repro.enumeration.compiled`): one nested loop per depth with the
frame's masks in locals — the same nodes, counters and embeddings as
:meth:`FrameMachine._loop`. The first :meth:`~FrameMachine.run` of a
prepared query's :class:`~repro.enumeration.local_candidates.StaticOrderInfo`
runs the generic search of its size (compiled once per process, the
query's tables passed as data); the second compiles the order's
specialised search (the tables bound as constants) and caches it there. ``_loop``
stays the definition and runs everything else: adaptive orders,
list-answering ComputeLC methods, ``emit_rows=True`` streaming,
:meth:`~FrameMachine.step` and orders deeper than
:data:`~repro.enumeration.compiled.MAX_COMPILED_VERTICES` (CPython's
limit on nested blocks). The generated sources format only integers
(sizes, depths, query vertices, their bit masks) into fixed names; every
table, limit and callable a request or graph supplies is a constant or
an argument, so no request string reaches them.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

import numpy as np

from repro.errors import BudgetExceeded
from repro.graph.graph import Graph
from repro.enumeration.compiled import INTERPRETED, Search, search_for
from repro.enumeration.local_candidates import (
    LCContext,
    clash_partners,
    universe_sets,
)
from repro.enumeration.stats import EnumerationOutcome, EnumerationStats
from repro.enumeration.support import (
    DEADLINE_STRIDE,
    AdaptiveSelector,
    EmbeddingStore,
    leaf_rows,
    lowest_bits,
)
from repro.utils.kernels import RowsKernel
from repro.utils.timer import Deadline, Timer

if TYPE_CHECKING:  # the plan layer imports this module
    from repro.core.plan import PreparedQuery

__all__ = ["FrameMachine"]

#: A list answer of at most this many vertices is placed into ``U(u)``
#: one ``bisect`` per vertex; a longer one with one ``searchsorted`` and
#: a packed flag array (the crossover on a 2-CPU x86 box, for universes
#: of 50 to 5 000 vertices).
NARROW_LIST = 16


class FrameMachine:
    """Iterative Algorithm 1: frames instead of recursion.

    Runs one :class:`~repro.core.plan.PreparedQuery` — its candidates,
    auxiliary structure, ComputeLC method and either its static order's
    tables (``prepared.static``) or its adaptive state — with the same
    embeddings and counters as the recursive reference
    (:mod:`repro.enumeration.engine`) over the same artifacts.
    Additionally exposes the incremental :meth:`start` / :meth:`advance`
    protocol for streaming consumers.
    """

    def __init__(
        self, prepared: "PreparedQuery", use_failing_sets: bool = False
    ) -> None:
        self.prepared = prepared
        self.use_failing_sets = use_failing_sets
        #: Which search the last :meth:`run` ran (``"interpreted"``,
        #: ``"generic"`` or ``"specialised"``), and the seconds it spent
        #: compiling one (0.0 unless it paid a compile).
        self.search = INTERPRETED
        self.compile_seconds = 0.0

    # ------------------------------------------------------------------
    # One-shot API (the recursive reference's run, over a prepared query)
    # ------------------------------------------------------------------

    def run(
        self,
        query: Graph,
        data: Graph,
        match_limit: Optional[int] = None,
        time_limit: Optional[float] = None,
        store_limit: int = 10_000,
        cancel: Optional[Callable[[], bool]] = None,
        root_window: Optional[Tuple[int, int]] = None,
    ) -> EnumerationOutcome:
        """Enumerate matches of ``query`` in ``data``; see the recursive
        engine for the parameter contract. ``cancel`` is polled at the
        deadline stride; returning True aborts the search as unsolved.
        ``root_window`` restricts the search to a slice of the root
        vertex's local candidates (see :meth:`start`). A static
        bitmap-row order runs compiled (:mod:`repro.enumeration.compiled`):
        the generic search of its size on the prepared query's first run,
        its specialised search from the second on; a compile, when this
        run pays it, is inside ``elapsed``."""
        self.start(
            query,
            data,
            match_limit=match_limit,
            time_limit=time_limit,
            store_limit=store_limit,
            emit_rows=False,
            cancel=cancel,
            root_window=root_window,
        )
        with Timer() as timer:
            search, self.search, self.compile_seconds = (
                search_for(self._static, self.use_failing_sets)
                if self._static is not None
                else (None, INTERPRETED, 0.0)
            )
            if search is not None:
                self._run_compiled(search)
            else:
                while self.advance() is not None:
                    pass
        return EnumerationOutcome(
            num_matches=self._num_matches,
            solved=self._solved,
            embeddings=self._store.as_tuples(),
            stats=self._stats,
            elapsed=timer.elapsed,
        )

    # ------------------------------------------------------------------
    # Incremental API
    # ------------------------------------------------------------------

    def start(
        self,
        query: Graph,
        data: Graph,
        match_limit: Optional[int] = None,
        time_limit: Optional[float] = None,
        store_limit: int = 10_000,
        emit_rows: bool = False,
        cancel: Optional[Callable[[], bool]] = None,
        root_window: Optional[Tuple[int, int]] = None,
    ) -> "FrameMachine":
        """Initialize the machine at the root of the search tree of the
        prepared query on ``data``, the graph this run reads (a cached
        prepared query may outlive the graph object it was prepared on).

        With ``emit_rows=True`` each :meth:`advance` call returns the next
        leaf batch as a list of plain-int tuples (one per match, indexed
        by query vertex); with ``emit_rows=False`` matches are only
        counted/stored and :meth:`advance` runs to completion.

        ``cancel`` (a zero-argument callable) is polled together with the
        deadline every :data:`~repro.enumeration.support.DEADLINE_STRIDE`
        expansion steps; once it returns True the machine stops where it
        stands — between leaf batches — and reports ``solved=False``.
        This is the cooperative preemption hook the serving tier maps
        request deadlines and shutdown onto.

        ``root_window=(lo, hi)`` restricts the search to the half-open
        range ``[lo, hi)`` of the root frame's local candidates (a bit
        range of the root mask, ``0 <= lo <= hi``). The machine then
        explores exactly the subtrees rooted at those candidates, in the
        same order the full search would visit them — the partitioning
        primitive behind :mod:`repro.parallel`: windows covering
        ``[0, len)`` without overlap reproduce the full run's matches (and
        all depth-local counters) as the concatenation of the per-window
        runs. Static orders only (adaptive selection has no fixed root
        list).
        """
        prepared = self.prepared
        static, adaptive = prepared.static, prepared.adaptive_state
        if root_window is not None and adaptive is not None:
            raise ValueError("root_window requires a static matching order")
        n = query.num_vertices
        self._n = n
        self._mapping = [-1] * n
        self._pos = [0] * n
        candidates = prepared.candidates
        ctx = LCContext(
            query=query,
            data=data,
            candidates=candidates,
            auxiliary=prepared.auxiliary,
            mapping=self._mapping,
        )
        prepared.lc.prepare(ctx)

        self._ctx = ctx
        self._stats = EnumerationStats()
        self._deadline = Deadline(time_limit) if time_limit else None
        self._cancel = cancel
        self._root_window = root_window
        self._tick = DEADLINE_STRIDE
        self._match_limit = match_limit
        self._num_matches = 0
        self._pausing = False
        self._store = EmbeddingStore(store_limit)
        self._emit_rows = emit_rows
        self._full_mask = (1 << n) - 1
        self._solved = True
        self._done = False

        if adaptive is None:
            universes = static.universes
            self._selector = None
            self._f_u = list(static.order)
            self._f_bmask = list(static.backward_mask)
        else:
            static = None
            universes = universe_sets(query, data, candidates)
            self._selector = AdaptiveSelector(
                prepared.lc, adaptive, ctx, self._stats
            )
            #: Per query vertex u, (w, translation of U(w) into U(u)) for
            #: every other w whose universe overlaps U(u) (same-label
            #: vertices only, by the label invariant).
            self._overlaps = [
                [
                    (w, table)
                    for w in partners
                    for table in (universes.translation(w, u),)
                    if table is not None
                ]
                for u, partners in enumerate(clash_partners(query, data, universes))
            ]
            self._f_u = [0] * n
            self._f_bmask = [0] * n
        self._static = static
        # Methods read their universes where they read candidate sets.
        ctx.candidates = self._universes = universes
        self._lists = [universes[u] for u in range(n)]

        self._f_valid = [0] * n
        self._f_bad = [0] * n
        self._f_fs = [0] * n
        self._f_cbits = [0] * n
        self._depth = 0
        #: The frame at ``_depth`` was descended into but not resolved yet
        #: (true of the root until the first :meth:`advance`).
        self._opening = True

        # Only the plan's sets can rule every match out: an empty LDF
        # universe still costs the root its node.
        if candidates is not None and candidates.has_empty_set:
            self._done = True  # no match possible; zero work, zero counters
        return self

    @property
    def done(self) -> bool:
        return self._done

    @property
    def num_matches(self) -> int:
        return self._num_matches

    @property
    def solved(self) -> bool:
        return self._solved

    @property
    def stats(self) -> EnumerationStats:
        return self._stats

    def advance(self) -> Optional[List[Tuple[int, ...]]]:
        """Run until the next leaf batch (``emit_rows=True``) or to
        completion. Returns the batch's embeddings, or ``None`` when the
        search is exhausted (or the time budget expired — ``solved`` goes
        False)."""
        if self._done:
            return None
        try:
            return self._loop()
        except BudgetExceeded:
            self._solved = False
            self._done = True
            return None

    def step(self, calls: int) -> bool:
        """Count-only (``emit_rows=False``): run about ``calls`` (≥ 1)
        more search nodes, then pause before the next one; True once the
        search is over (exhausted, at its match limit, or stopped by the
        budget). :attr:`stats` and :attr:`num_matches` are current
        between steps, so a caller can interleave machines and stop the
        ones it no longer needs — how :func:`~repro.core.plan.race_orders`
        runs its racers side by side."""
        self._tick = calls + 1  # the node that spends the last one pauses
        self._pausing = True
        try:
            self.advance()
        finally:
            self._pausing = False
        return self._done

    # ------------------------------------------------------------------
    # Machine internals
    # ------------------------------------------------------------------

    def _expired(self) -> bool:
        # The stride's check: the deadline passed or `cancel` said stop.
        return (self._deadline is not None and self._deadline.expired()) or (
            self._cancel is not None and self._cancel()
        )

    def _poll(self) -> bool:
        # Raise when expired; True when `step` asked for a pause.
        if self._expired():
            raise BudgetExceeded
        return self._pausing

    def _run_compiled(self, search: Search) -> None:
        """:meth:`run`'s search on a compiled form of the bound order:
        the same nodes, counters and stored embeddings as :meth:`_loop`."""
        if self._done:
            return
        store = self._store
        calls, conflicts, prunes, self._num_matches, next_poll, self._solved = search(
            self,
            self._ctx.auxiliary.build_row,
            self._ctx.data,
            self._window_mask() if self._root_window is not None else -1,
            # No limit is a limit no search reaches.
            self._match_limit if self._match_limit is not None else sys.maxsize,
            store.room,
            store.extend,
        )
        stats = self._stats
        stats.recursion_calls += calls
        # Every scanned candidate that is not a conflict opened one node
        # (a leaf batch's take counts as its calls), and nothing opened
        # the root, which is always entered.
        stats.candidates_scanned += calls - 1 + conflicts
        stats.conflicts += conflicts
        stats.failing_set_prunes += prunes
        self._tick = next_poll - calls
        self._done = True

    def _open_lists(self, depth: int) -> int:
        """``full`` of frame ``depth`` from a method that answers in a
        list: the list is sorted and inside ``U(u)``, so placing it is a
        ``bisect`` per vertex or one ``searchsorted``. Under an adaptive
        order this first selects ``u`` and records the frame's vertex and
        backward mask."""
        static = self._static
        if static is not None:
            u = static.order[depth]
            lc = self.prepared.lc.compute(
                self._ctx, u, static.backward[depth], static.parent[depth]
            )
        else:
            selection = self._selector.select()
            assert (
                selection is not None
            ), "connected query always has an extendable vertex"
            u, lc, backward = selection
            bmask = 0
            for w in backward:
                bmask |= 1 << w
            self._f_u[depth] = u
            self._f_bmask[depth] = bmask
        universe = self._lists[u]
        if len(lc) > NARROW_LIST:
            flags = np.zeros(len(universe), dtype=bool)
            flags[np.searchsorted(self._universes.array(u), lc)] = True
            return RowsKernel.pack_flags(flags)
        full = 0
        for v in lc.tolist() if isinstance(lc, np.ndarray) else lc:
            full |= 1 << bisect_left(universe, v)
        return full

    def _clash(self, depth: int) -> List[Tuple[int, List[int]]]:
        """The ``(w, translation of U(w) into U(u))`` pairs of frame
        ``depth`` under an adaptive order: the overlapping vertices mapped
        above it (a static order binds them per depth)."""
        mapping = self._mapping
        return [
            (w, table)
            for w, table in self._overlaps[self._f_u[depth]]
            if mapping[w] >= 0
        ]

    def _window_mask(self) -> int:
        # Partitioned run: only this bit range of the root candidates
        # belongs to us. Masking before any accounting keeps every counter
        # window-local, so disjoint covering windows sum exactly to the
        # sequential totals.
        lo, hi = self._root_window
        return (1 << hi) - (1 << lo) if hi > lo else 0

    def _loop(self) -> Optional[List[Tuple[int, ...]]]:
        # One iteration = (1) resolve the frame if it was just descended
        # into, (2) continue it — leaf batch, interior step or exhaustion —
        # and (3) hand a returned failing set up the stack.
        #
        # The frame slot lists are bound once: they are mutated in place.
        # Counters, the budget tick and the match count run in locals and
        # are written back on every way out.
        last = self._n - 1
        fs = self.use_failing_sets
        full_mask = self._full_mask
        static = self._static
        row_tables = clash = None
        if static is not None:
            clash = static.clash
            row_tables = static.rows
            if row_tables is not None:
                ones = static.ones
                build_row, data = self._ctx.auxiliary.build_row, self._ctx.data
        window = self._window_mask() if self._root_window is not None else -1
        lists = self._lists
        mapping = self._mapping
        pos = self._pos
        store = self._store
        emit = self._emit_rows
        wants_rows = emit or not store.full
        match_limit = self._match_limit
        f_u = self._f_u
        f_valid = self._f_valid
        f_bad = self._f_bad
        f_fs = self._f_fs
        f_bmask = self._f_bmask
        f_cbits = self._f_cbits
        d = self._depth
        opening = self._opening
        tick = self._tick
        num_matches = self._num_matches
        calls = scanned = conflicts = prunes = 0
        try:
            while True:
                ret = -1  # the failing set a node returned; -1: none did
                if opening:
                    # (1) Enter a search node: resolve (full, bad).
                    opening = False
                    calls += 1
                    tick -= 1
                    if tick <= 0:
                        tick = DEADLINE_STRIDE
                        if self._poll():
                            # Pause before this node: resuming enters it.
                            opening = True
                            calls -= 1
                            return None
                    if row_tables is not None:
                        # LC(u, M) is the AND of the backward neighbours'
                        # rows at their mapped positions, built on first read.
                        full = ones[d]
                        for w, rows in row_tables[d]:
                            row = rows[pos[w]]
                            if row is None:
                                row = rows[pos[w]] = build_row(data, w, f_u[d], pos[w])
                            full &= row
                    else:
                        full = self._open_lists(d)
                    if d == 0:
                        full &= window
                    if fs and not full:
                        ret = (1 << f_u[d]) | f_bmask[d]  # emptyset class
                    else:
                        # Injectivity: the position of M[w] in U(u), for
                        # every earlier w whose universe overlaps U(u). The
                        # ws that hit are the frame's conflict class:
                        # conflict children are u_bit | w_bit, they never
                        # prune, so their union only matters at
                        # exhaustion; ancestors are constant for the
                        # frame's life.
                        bad = owners = 0
                        for w, translation in (
                            clash[d] if clash is not None else self._clash(d)
                        ):
                            at = translation[pos[w]]
                            if at >= 0 and full >> at & 1:
                                bad |= 1 << at
                                owners |= 1 << w
                        f_valid[d] = full ^ bad
                        f_bad[d] = bad
                        if fs:
                            f_fs[d] = 0
                            f_cbits[d] = (1 << f_u[d]) | owners if bad else 0

                if ret < 0:
                    valid = f_valid[d]
                    if valid and d == last:
                        # (2a) Leaf batch: every remaining valid candidate
                        # completes a match. The recursive reference stops
                        # only after recording the match that reaches the
                        # limit, so room is clamped to at least one.
                        take = valid.bit_count()
                        taken = valid
                        if match_limit is not None:
                            room = match_limit - num_matches
                            if room < 1:
                                room = 1
                            if take > room:
                                take = room
                                taken = lowest_bits(valid, room)
                        f_valid[d] = valid ^ taken
                        bad = f_bad[d]
                        if bad:
                            skipped = bad & ((1 << (taken.bit_length() - 1)) - 1)
                            if skipped:
                                f_bad[d] = bad ^ skipped
                                skipped = skipped.bit_count()
                                scanned += skipped
                                conflicts += skipped
                        scanned += take
                        calls += take
                        num_matches += take
                        tick -= take
                        if tick <= 0:
                            tick = DEADLINE_STRIDE
                            if self._poll():
                                tick = 0  # pause at the next node's entry
                        if fs:
                            f_fs[d] |= full_mask
                        batch = None
                        if wants_rows:
                            batch = leaf_rows(
                                mapping,
                                f_u[d],
                                self._universes,
                                taken,
                                take if emit else min(take, store.room),
                            )
                            store.extend(batch)
                            wants_rows = emit or not store.full
                        if match_limit is not None and num_matches >= match_limit:
                            self._done = True
                        if emit:
                            return batch
                        if self._done:
                            return None
                        continue

                    if valid:
                        # (2b) Interior step: consume the lowest valid
                        # candidate (scanning the conflicts skipped below
                        # it), map it, descend.
                        low = valid & -valid
                        f_valid[d] = valid ^ low
                        bad = f_bad[d]
                        if bad:
                            skipped = bad & (low - 1)
                            if skipped:
                                f_bad[d] = bad ^ skipped
                                skipped = skipped.bit_count()
                                scanned += skipped
                                conflicts += skipped
                        scanned += 1
                        u = f_u[d]
                        at = low.bit_length() - 1
                        mapping[u] = lists[u][at]
                        pos[u] = at
                        d += 1
                        opening = True
                        continue

                    # (2c) Frame exhausted: the conflicts above the last
                    # consumed candidate are its tail; build the failing
                    # set and return it to the parent.
                    bad = f_bad[d]
                    if bad:
                        bad = bad.bit_count()
                        scanned += bad
                        conflicts += bad
                    ret = f_fs[d] | f_cbits[d] | f_bmask[d] if fs else 0

                # (3) The child of frame d-1 returned ``ret``: unmap that
                # frame's current candidate, then apply the failing-set
                # prune test.
                d -= 1
                while d >= 0:
                    u = f_u[d]
                    mapping[u] = -1
                    if fs:
                        if not ret & (1 << u):
                            # The failure below does not involve u: every
                            # sibling candidate fails identically — skip
                            # them all. The frame returns mid-list, so no
                            # tail is accounted.
                            prunes += 1
                            d -= 1
                            continue
                        f_fs[d] |= ret
                    break
                if d < 0:
                    self._done = True
                    return None
        finally:
            stats = self._stats
            stats.recursion_calls += calls
            stats.candidates_scanned += scanned
            stats.conflicts += conflicts
            stats.failing_set_prunes += prunes
            self._depth = max(d, 0)
            self._opening = opening
            self._tick = tick
            self._num_matches = num_matches
