"""The Glasgow subgraph solver, re-implemented as described in Section 3.5.

Glasgow models subgraph matching as constraint programming: query vertices
are variables, query edges are constraints, and domains range over data
vertices. Per the paper's description:

* initial domains come from labels and the degrees of ``u' ∈ N(u)``
  (we implement the neighbourhood degree-sequence dominance test) — no
  edges between candidates are maintained;
* no matching order is generated in advance: at each search node the
  unassigned variable with the *minimum remaining domain* is selected;
* values are tried *largest data-vertex degree first* (Glasgow is tuned
  for decision queries, where high-degree vertices succeed sooner);
* each assignment triggers inference — adjacency propagation into
  neighboring domains, all-different filtering, and a Hall-style pigeonhole
  check;
* the solver copies all domains at every search node, the status the paper
  blames for Glasgow's large memory footprint (it ran out of memory on
  the bigger datasets in Figure 16).

Domains are bitsets packed into Python big-ints, so propagation is a few
``&`` operations per neighbor regardless of graph size.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.result import MatchResult
from repro.enumeration.support import DEFAULT_MATCH_LIMIT, DEFAULT_STORE_LIMIT
from repro.errors import BudgetExceeded
from repro.graph.graph import Graph
from repro.utils.timer import Deadline, Timer

__all__ = ["GlasgowSolver", "glasgow_match"]


class _StopSearch(Exception):
    """Match cap reached; unwind."""


def _degree_sequence_dominates(
    needed: List[int], available: List[int]
) -> bool:
    """Whether ``available`` (desc) dominates ``needed`` (desc) pointwise."""
    if len(needed) > len(available):
        return False
    return all(a >= n for n, a in zip(needed, available))


class GlasgowSolver:
    """A constraint-programming subgraph enumerator in the Glasgow style.

    One instance is bound to a query/data pair; :meth:`solve` runs the
    search. ``peak_domain_copies`` tracks how many per-node domain copies
    were live at once — the memory behaviour the paper calls out.
    """

    def __init__(self, query: Graph, data: Graph) -> None:
        self.query = query
        self.data = data
        self._neighbor_mask: List[int] = self._build_neighbor_masks(data)
        self._degree_order: List[int] = sorted(
            data.vertices(), key=lambda v: (-data.degree(v), v)
        )
        self._rank = {v: i for i, v in enumerate(self._degree_order)}
        self.nodes_explored = 0
        self.peak_domain_copies = 0

    @staticmethod
    def _build_neighbor_masks(data: Graph) -> List[int]:
        masks = []
        for v in data.vertices():
            bits = 0
            for w in data.neighbors(v).tolist():
                bits |= 1 << w
            masks.append(bits)
        return masks

    # ------------------------------------------------------------------
    # Initial domains
    # ------------------------------------------------------------------

    def initial_domains(self) -> List[int]:
        """Label + neighbourhood-degree-sequence domains, as bitsets."""
        query, data = self.query, self.data
        degree_sequences: Dict[int, List[int]] = {}

        def data_sequence(v: int) -> List[int]:
            seq = degree_sequences.get(v)
            if seq is None:
                seq = sorted(
                    (data.degree(w) for w in data.neighbors(v).tolist()),
                    reverse=True,
                )
                degree_sequences[v] = seq
            return seq

        domains = []
        for u in query.vertices():
            needed = sorted(
                (query.degree(w) for w in query.neighbors(u).tolist()),
                reverse=True,
            )
            bits = 0
            for v in data.vertices_with_label(query.label(u)).tolist():
                if data.degree(v) < query.degree(u):
                    continue
                if _degree_sequence_dominates(needed, data_sequence(v)):
                    bits |= 1 << v
            domains.append(bits)
        return domains

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def solve(
        self,
        match_limit: Optional[int] = None,
        time_limit: Optional[float] = None,
        store_limit: int = DEFAULT_STORE_LIMIT,
    ) -> MatchResult:
        """Enumerate all matches (up to the limits)."""
        self.nodes_explored = 0
        self.peak_domain_copies = 0
        self._match_limit = match_limit
        self._store_limit = store_limit
        self._deadline = Deadline(time_limit) if time_limit else None
        self._tick = 512
        self._matches: List[Tuple[int, ...]] = []
        self._num_matches = 0
        self._assignment: List[int] = [-1] * self.query.num_vertices
        self._live_copies = 0

        with Timer() as prep_timer:
            domains = self.initial_domains()

        solved = True
        with Timer() as timer:
            try:
                if all(domains):
                    self._search(domains, 0)
            except _StopSearch:
                pass
            except BudgetExceeded:
                solved = False

        return MatchResult(
            algorithm="GLW",
            num_matches=self._num_matches,
            solved=solved,
            embeddings=self._matches,
            order=None,
            preprocessing_seconds=prep_timer.elapsed,
            enumeration_seconds=timer.elapsed,
            candidate_average=None,
            memory_bytes=self._estimate_memory(),
        )

    def _estimate_memory(self) -> int:
        """Peak bytes in domain copies: n_q bitsets of |V(G)| bits per node."""
        per_copy = self.query.num_vertices * (self.data.num_vertices // 8 + 1)
        return self.peak_domain_copies * per_copy

    def _search(self, domains: List[int], assigned_count: int) -> None:
        self.nodes_explored += 1
        self._tick -= 1
        if self._tick <= 0:
            self._tick = 512
            if self._deadline is not None and self._deadline.expired():
                raise BudgetExceeded

        n = self.query.num_vertices
        if assigned_count == n:
            self._record()
            return

        # Smallest-domain variable selection.
        variable = -1
        best_size = None
        for u in range(n):
            if self._assignment[u] != -1:
                continue
            size = domains[u].bit_count()
            if best_size is None or size < best_size:
                variable, best_size = u, size
        if best_size == 0:
            return

        # Largest-degree-first value ordering.
        values = self._decode_by_degree(domains[variable])
        query_neighbors = self.query.neighbors(variable).tolist()

        for v in values:
            child = list(domains)  # Glasgow copies all domains per node.
            self._live_copies += 1
            self.peak_domain_copies = max(
                self.peak_domain_copies, self._live_copies
            )
            if self._propagate(child, variable, v, query_neighbors):
                self._assignment[variable] = v
                self._search(child, assigned_count + 1)
                self._assignment[variable] = -1
            self._live_copies -= 1

    def _decode_by_degree(self, bits: int) -> List[int]:
        values = []
        while bits:
            low = bits & -bits
            values.append(low.bit_length() - 1)
            bits ^= low
        values.sort(key=lambda v: self._rank[v])
        return values

    def _propagate(
        self,
        domains: List[int],
        variable: int,
        value: int,
        query_neighbors: List[int],
    ) -> bool:
        """Inference after assigning ``variable := value``.

        Fixes the assigned domain to a singleton, removes ``value``
        everywhere else (all-different), intersects neighboring domains
        with ``N(value)``, then runs a Hall-style pigeonhole check over the
        unassigned domains. Returns False on wipe-out.
        """
        value_bit = 1 << value
        domains[variable] = value_bit
        neighbor_mask = self._neighbor_mask[value]
        not_value = ~value_bit

        neighbor_set = set(query_neighbors)
        for u in range(self.query.num_vertices):
            if u == variable or self._assignment[u] != -1:
                continue
            d = domains[u] & not_value
            if u in neighbor_set:
                d &= neighbor_mask
            if not d:
                return False
            domains[u] = d

        return self._halls_check(domains)

    def _halls_check(self, domains: List[int]) -> bool:
        """Pigeonhole all-different filter over the unassigned variables.

        Walking domains in ascending size, if the union of the first k
        covers fewer than k values there is no injective assignment.
        """
        unassigned = [
            domains[u]
            for u in range(self.query.num_vertices)
            if self._assignment[u] == -1
        ]
        unassigned.sort(key=int.bit_count)
        union = 0
        for count, bits in enumerate(unassigned, start=1):
            union |= bits
            if union.bit_count() < count:
                return False
        return True

    def _record(self) -> None:
        self._num_matches += 1
        if len(self._matches) < self._store_limit:
            self._matches.append(tuple(self._assignment))
        if (
            self._match_limit is not None
            and self._num_matches >= self._match_limit
        ):
            raise _StopSearch


def glasgow_match(
    query: Graph,
    data: Graph,
    match_limit: Optional[int] = DEFAULT_MATCH_LIMIT,
    time_limit: Optional[float] = None,
    store_limit: int = DEFAULT_STORE_LIMIT,
) -> MatchResult:
    """Convenience wrapper: build a solver and enumerate matches."""
    return GlasgowSolver(query, data).solve(
        match_limit=match_limit,
        time_limit=time_limit,
        store_limit=store_limit,
    )
