"""BFS-root selection rules of CFL, CECI and DP-iso.

Each preprocessing-enumeration algorithm roots its BFS tree differently
(Section 3.2):

* **CFL** — among core vertices, take the three minimizing
  ``|{v : L(v) = L(u)}| / d(u)``, then the one with the fewest NLF
  candidates.
* **CECI** — ``argmin_u |C_NLF(u)| / d(u)``.
* **DP-iso** — ``argmin_u |C_LDF(u)| / d(u)``.

Ties break toward the smaller vertex id so runs are deterministic.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.filtering.base import ldf_candidates_for, nlf_candidates_for
from repro.graph.graph import Graph
from repro.graph.ops import two_core

__all__ = ["cfl_root", "ceci_root", "dpiso_root"]


def _argmin(vertices: Iterable[int], key) -> int:
    best = None
    best_key = None
    for u in vertices:
        k = key(u)
        if best_key is None or k < best_key:
            best, best_key = u, k
    assert best is not None, "argmin over empty vertex set"
    return best


def cfl_root(query: Graph, data: Graph) -> int:
    """CFL's root: rarest-label-per-degree core vertex with fewest NLF candidates."""
    core = sorted(two_core(query))
    pool: List[int] = core if core else list(query.vertices())

    def rarity(u: int) -> float:
        return data.label_frequency(query.label(u)) / max(1, query.degree(u))

    top3 = sorted(pool, key=lambda u: (rarity(u), u))[:3]
    return _argmin(top3, lambda u: (len(nlf_candidates_for(query, u, data)), u))


def ceci_root(query: Graph, data: Graph) -> int:
    """CECI's root: ``argmin |C_NLF(u)| / d(u)``."""
    return _argmin(
        query.vertices(),
        lambda u: (len(nlf_candidates_for(query, u, data)) / max(1, query.degree(u)), u),
    )


def dpiso_root(query: Graph, data: Graph) -> int:
    """DP-iso's root: ``argmin |C_LDF(u)| / d(u)``."""
    return _argmin(
        query.vertices(),
        lambda u: (len(ldf_candidates_for(query, u, data)) / max(1, query.degree(u)), u),
    )
