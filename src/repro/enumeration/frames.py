"""The enumeration engine: Algorithm 1 as an iterative frame machine.

The one engine every plan, parallel worker and study run constructs. It
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
from the mapping (:meth:`FrameMachine._leaf_batch`). The machine tracks
``pos[w]``, the position of ``M[w]`` in ``U(w)``, beside ``mapping[w]``.

* ``full`` is, for **Algorithm 5 on bitmap rows** (a static order under
  the ``rows`` kernel, what ``auto`` resolves to), the AND of the
  backward neighbors' rows ``A_u^w`` at their mapped positions: row
  tables are bound once per prepared query as holes the AND fills on
  first read, and a search node costs a few integer ANDs and no numpy
  call. Every other method (Algorithms 2–4, ``2PP-LC``, Algorithm 5 under
  an explicit array kernel, the adaptive selector) keeps answering in a
  sorted list inside ``U(u)``, which the frame places into ``U(u)``
  positions when it opens.
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
it. :meth:`FrameMachine.save_state` / :meth:`FrameMachine.restore_state`
snapshot and rewind the full search position for checkpointing and fair
scheduling; masks are immutable ints, so a snapshot is a few lists of
ints and copies no candidate data.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, fields, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import BudgetExceeded
from repro.filtering.auxiliary import AuxiliaryStructure
from repro.filtering.candidates import CandidateSets
from repro.graph.graph import Graph
from repro.enumeration.local_candidates import (
    LCContext,
    LocalCandidateMethod,
    universe_sets,
)
from repro.enumeration.stats import EnumerationOutcome, EnumerationStats
from repro.enumeration.support import (
    DEADLINE_STRIDE,
    AdaptiveSelector,
    EmbeddingStore,
)
from repro.ordering.dpiso import DPisoAdaptiveState
from repro.utils.kernels import RowsKernel
from repro.utils.timer import Deadline, Timer

__all__ = ["FrameMachine", "FrameSnapshot"]

#: Leaf batches that build more than this many embeddings decode the
#: leaf column with one numpy call; narrower ones walk the mask bit by
#: bit, one ``tuple(mapping)`` per match, as interior steps do (and a
#: ``match_limit`` cut inside a batch is found the same way). Per batch
#: of ``k`` (2-CPU x86 box, 3-12 query vertices): the walk costs ~0.21 µs
#: per match, the decode ~5-7 µs plus ~0.1 µs per match. Crossover ~48,
#: measured between 8 and 64; at 32 the machine stays within 1.2x of the
#: better choice. Typical batches hold ~3 matches (the e2e pools),
#: hub-shaped ones hundreds.
WIDE_LEAF_BATCH = 32

#: A list answer of at most this many vertices is placed into ``U(u)``
#: one ``bisect`` per vertex; a longer one with one ``searchsorted`` and
#: a packed flag array (the crossover on a 2-CPU x86 box, for universes
#: of 50 to 5 000 vertices).
NARROW_LIST = 16


@dataclass
class FrameSnapshot:
    """A full search position, produced by :meth:`FrameMachine.save_state`.

    Restoring rewinds the machine to exactly this node of the search tree
    (mapping, frames, counters, retained-embedding count). Every field is
    an int, a flag or a list of ints — frame masks index the fixed
    universes, which the snapshot does not copy. The adaptive selector's
    memo cache is deliberately not captured — entries self-validate
    against the current mapping, so a stale cache is semantically inert
    (only ``adaptive_lc_reused`` may differ after a rewind).
    """

    depth: int
    opening: bool
    f_u: List[int]
    f_valid: List[int]
    f_bad: List[int]
    f_fs: List[int]
    f_bmask: List[int]
    f_cbits: List[int]
    mapping: List[int]
    pos: List[int]
    num_matches: int
    solved: bool
    done: bool
    tick: int
    stats: EnumerationStats
    store_count: int


class FrameMachine:
    """Iterative Algorithm 1: frames instead of recursion.

    Same constructor and :meth:`run` contract as the recursive
    reference (:mod:`repro.enumeration.engine`), same embeddings and
    counters. Additionally exposes the incremental
    :meth:`start` / :meth:`advance` protocol for streaming consumers.
    """

    def __init__(
        self,
        lc_method: LocalCandidateMethod,
        use_failing_sets: bool = False,
        adaptive: Optional[DPisoAdaptiveState] = None,
    ) -> None:
        self.lc_method = lc_method
        self.use_failing_sets = use_failing_sets
        self.adaptive = adaptive

    # ------------------------------------------------------------------
    # One-shot API (mirrors the recursive reference's run)
    # ------------------------------------------------------------------

    def run(
        self,
        query: Graph,
        data: Graph,
        candidates: Optional[CandidateSets],
        auxiliary: Optional[AuxiliaryStructure],
        order: Optional[Sequence[int]],
        tree_parent: Optional[Sequence[int]] = None,
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
        vertex's local candidates (see :meth:`start`)."""
        self.start(
            query,
            data,
            candidates,
            auxiliary,
            order,
            tree_parent=tree_parent,
            match_limit=match_limit,
            time_limit=time_limit,
            store_limit=store_limit,
            emit_rows=False,
            cancel=cancel,
            root_window=root_window,
        )
        with Timer() as timer:
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
        candidates: Optional[CandidateSets],
        auxiliary: Optional[AuxiliaryStructure],
        order: Optional[Sequence[int]],
        tree_parent: Optional[Sequence[int]] = None,
        match_limit: Optional[int] = None,
        time_limit: Optional[float] = None,
        store_limit: int = 10_000,
        emit_rows: bool = False,
        cancel: Optional[Callable[[], bool]] = None,
        root_window: Optional[Tuple[int, int]] = None,
    ) -> "FrameMachine":
        """Initialize the machine at the root of the search tree.

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
        if root_window is not None and self.adaptive is not None:
            raise ValueError("root_window requires a static matching order")
        n = query.num_vertices
        self._n = n
        self._mapping = [-1] * n
        self._pos = [0] * n
        ctx = LCContext(
            query=query,
            data=data,
            candidates=candidates,
            auxiliary=auxiliary,
            mapping=self._mapping,
        )
        self.lc_method.prepare(ctx)

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

        if self.adaptive is None:
            if order is None:
                raise ValueError("static mode requires a matching order")
            static = self.lc_method.static_info(
                query, data, candidates, auxiliary, order, tree_parent
            )
            universes = static.universes
            self._selector = None
            self._f_u = list(static.order)
            self._f_bmask = list(static.backward_mask)
        else:
            static = None
            universes = universe_sets(query, data, candidates)
            self._selector = AdaptiveSelector(
                self.lc_method, self.adaptive, ctx, self._stats
            )
            #: Per query vertex u, (w, translation of U(w) into U(u)) for
            #: every other w whose universe overlaps U(u).
            self._overlaps = [
                [
                    (w, table)
                    for w in range(n)
                    if w != u
                    for table in (universes.translation(w, u),)
                    if table is not None
                ]
                for u in range(n)
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

    def _poll(self) -> bool:
        # The stride's check: raise on an expired deadline or a `cancel`;
        # True when `step` asked for a pause.
        if self._deadline is not None and self._deadline.expired():
            raise BudgetExceeded
        if self._cancel is not None and self._cancel():
            raise BudgetExceeded
        return self._pausing

    def _open_lists(self, depth: int) -> int:
        """``full`` of frame ``depth`` from a method that answers in a
        list: the list is sorted and inside ``U(u)``, so placing it is a
        ``bisect`` per vertex or one ``searchsorted``. Under an adaptive
        order this first selects ``u`` and records the frame's vertex and
        backward mask."""
        static = self._static
        if static is not None:
            u = static.order[depth]
            lc = self.lc_method.compute(
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

    def _leaf_batch(
        self, depth: int, taken: int, count: int
    ) -> List[Tuple[int, ...]]:
        """The first ``count`` matches the leaf batch ``taken`` completes,
        as plain-int tuples: the current mapping with the leaf vertex's
        column set to each taken candidate in turn."""
        u = self._f_u[depth]
        mapping = self._mapping
        if count > WIDE_LEAF_BATCH:
            # One decode of the whole mask; the tuples come out of one
            # C-level zip over per-vertex columns.
            universe = self._universes.array(u)
            columns = [[v] * count for v in mapping]
            columns[u] = universe[RowsKernel.decode(taken)[:count]].tolist()
            return list(zip(*columns))
        universe = self._lists[u]
        batch = []
        for _ in range(count):
            low = taken & -taken
            taken ^= low
            mapping[u] = universe[low.bit_length() - 1]
            batch.append(tuple(mapping))
        mapping[u] = -1
        return batch

    def _loop(self) -> Optional[List[Tuple[int, ...]]]:
        # One iteration = (1) resolve the frame if it was just descended
        # into, (2) continue it — leaf batch, interior step or exhaustion —
        # and (3) hand a returned failing set up the stack.
        #
        # The frame slot lists are bound once: they are mutated in place,
        # and restore_state (which writes into them) cannot run while this
        # loop owns the machine. Counters, the budget tick and the match
        # count run in locals and are written back on every way out.
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
                                # The batch is the lowest `room` bits: cleared
                                # one at a time when few (no numpy call), cut
                                # at the room-th bit of one decode when many.
                                take = room
                                if room > WIDE_LEAF_BATCH:
                                    cut = int(RowsKernel.decode(valid)[room - 1])
                                    taken = valid & ((2 << cut) - 1)
                                else:
                                    rest = valid
                                    for _ in range(room):
                                        rest &= rest - 1
                                    taken = valid ^ rest
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
                            batch = self._leaf_batch(
                                d, taken, take if emit else min(take, store.room)
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

    # ------------------------------------------------------------------
    # Pause / resume
    # ------------------------------------------------------------------

    def save_state(self) -> FrameSnapshot:
        """Snapshot the full search position: O(|V(q)|) ints."""
        return FrameSnapshot(
            depth=self._depth,
            opening=self._opening,
            f_u=list(self._f_u),
            f_valid=list(self._f_valid),
            f_bad=list(self._f_bad),
            f_fs=list(self._f_fs),
            f_bmask=list(self._f_bmask),
            f_cbits=list(self._f_cbits),
            mapping=list(self._mapping),
            pos=list(self._pos),
            num_matches=self._num_matches,
            solved=self._solved,
            done=self._done,
            tick=self._tick,
            stats=replace(self._stats),
            store_count=len(self._store),
        )

    def restore_state(self, snapshot: FrameSnapshot) -> None:
        """Rewind to a snapshot taken by :meth:`save_state` on this run.

        Everything is copied *into* the live lists (the LC context holds a
        reference to the mapping); retained embeddings are truncated back
        to the snapshot's count.
        """
        self._depth = snapshot.depth
        self._opening = snapshot.opening
        self._f_u[:] = snapshot.f_u
        self._f_valid[:] = snapshot.f_valid
        self._f_bad[:] = snapshot.f_bad
        self._f_fs[:] = snapshot.f_fs
        self._f_bmask[:] = snapshot.f_bmask
        self._f_cbits[:] = snapshot.f_cbits
        self._mapping[:] = snapshot.mapping
        self._pos[:] = snapshot.pos
        self._num_matches = snapshot.num_matches
        self._solved = snapshot.solved
        self._done = snapshot.done
        self._tick = snapshot.tick
        for f in fields(EnumerationStats):
            setattr(self._stats, f.name, getattr(snapshot.stats, f.name))
        self._store.truncate(snapshot.store_count)
