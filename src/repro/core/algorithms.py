"""The preset tables: every algorithm configuration the paper studies.

Three families, all expressed as declarative :class:`PresetDef` rows over
the component registries in :mod:`repro.core.registry` (no hardcoded
constructor calls — the rows *are* the configuration):

* **Originals** — the eight algorithms re-implemented inside the common
  framework, each with its own filtering/ordering/ComputeLC combination
  exactly as analysed in Section 3 (Glasgow lives in
  :mod:`repro.glasgow` because it cannot be decomposed into Algorithm 1).
* **Optimized** — the Section 5.2 variants: candidate adjacency for *all*
  query edges and the set-intersection ComputeLC (Algorithm 5); QSI, RI
  and 2PP additionally adopt GraphQL's filter so the Section 5.3 ordering
  comparison is apples-to-apples, and 2PP drops its extra filtering rules.
* **fs variants** — the failing-sets-enabled configurations of Sections
  5.4–5.5 (``GQLfs``, ``RIfs``, …).

``get_algorithm(name)`` resolves any of these (plus user presets added
via :func:`repro.core.registry.register_algorithm`) by name;
``recommended_spec(query, data)`` builds the Section 6 recommendation for
one query/data pair; ``algorithm_components(name)`` returns the
component breakdown the ``repro algorithms`` CLI prints.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.registry import (
    PresetDef,
    build_spec,
    describe_preset,
    get_registered_algorithm,
    registered_algorithms,
)
from repro.core.spec import AlgorithmSpec
from repro.errors import ConfigurationError
from repro.graph.graph import Graph
from repro.graph.query_gen import DENSE_THRESHOLD

#: A data graph of at least this average degree is dense: the
#: recommendation orders it with GraphQL's ordering, a sparser one with RI's.
DENSE_DEGREE = 10.0

__all__ = [
    "ORIGINAL_NAMES",
    "OPTIMIZED_NAMES",
    "PRESETS",
    "available_algorithms",
    "get_algorithm",
    "algorithm_components",
    "recommended_spec",
    "resolve",
]


#: Section 3's original compositions (Table 1 of the framework analysis).
_ORIGINAL_PRESETS = (
    PresetDef(name="QSI", filter=None, ordering="QSI", lc="ALG2"),
    PresetDef(name="GQL", filter="GQL", ordering="GQL", lc="ALG3"),
    PresetDef(
        name="CFL",
        filter="CFL",
        ordering="CFL",
        lc="ALG4",
        aux_scope="tree",
        tree_source="CFL",
    ),
    PresetDef(
        name="CECI", filter="CECI", ordering="CECI", lc="ALG5", aux_scope="all"
    ),
    PresetDef(
        name="DP",
        filter="DP",
        ordering="DP",
        lc="ALG5",
        aux_scope="all",
        adaptive=True,
    ),
    PresetDef(name="RI", filter=None, ordering="RI", lc="ALG2"),
    PresetDef(name="2PP", filter=None, ordering="2PP", lc="2PP-LC"),
)

#: Section 5.2's optimization applied to each algorithm: Algorithm 5 over
#: an all-edges auxiliary structure. QSI, RI and 2PP — which natively have
#: no filter — get GraphQL's candidate sets (the Section 5.3 setup "to
#: make a fair comparison of the ordering methods"); 2PP's extra filtering
#: rules are removed. The two ``-ldf`` rows are the Section 5.2
#: enumeration study's LDF-based QSI/2PP ("we use C(u) generated by LDF as
#: the candidate vertex set of QSI and 2PP") before the ordering
#: experiments switch them to GQL's.
_OPTIMIZED_PRESETS = (
    PresetDef(
        name="QSI-opt", filter="GQL", ordering="QSI", lc="ALG5", aux_scope="all"
    ),
    PresetDef(
        name="GQL-opt", filter="GQL", ordering="GQL", lc="ALG5", aux_scope="all"
    ),
    PresetDef(
        name="CFL-opt", filter="CFL", ordering="CFL", lc="ALG5", aux_scope="all"
    ),
    PresetDef(
        name="CECI-opt",
        filter="CECI",
        ordering="CECI",
        lc="ALG5",
        aux_scope="all",
    ),
    PresetDef(
        name="DP-opt",
        filter="DP",
        ordering="DP",
        lc="ALG5",
        aux_scope="all",
        adaptive=True,
    ),
    PresetDef(
        name="RI-opt", filter="GQL", ordering="RI", lc="ALG5", aux_scope="all"
    ),
    PresetDef(
        name="2PP-opt", filter="GQL", ordering="2PP", lc="ALG5", aux_scope="all"
    ),
    PresetDef(
        name="QSI-opt-ldf",
        filter="LDF",
        ordering="QSI",
        lc="ALG5",
        aux_scope="all",
    ),
    PresetDef(
        name="2PP-opt-ldf",
        filter="LDF",
        ordering="2PP",
        lc="ALG5",
        aux_scope="all",
    ),
)

#: Failing-set variants of the Section 5.4/5.5 headliners: base → name.
_FS_VARIANTS = (
    ("GQL-opt", "GQLfs"),
    ("RI-opt", "RIfs"),
    ("QSI-opt", "QSIfs"),
    ("CFL-opt", "CFLfs"),
    ("CECI-opt", "CECIfs"),
    ("DP-opt", "DPfs"),
    ("2PP-opt", "2PPfs"),
)


def _preset_table() -> Dict[str, PresetDef]:
    table: Dict[str, PresetDef] = {}
    for preset in _ORIGINAL_PRESETS + _OPTIMIZED_PRESETS:
        table[preset.name] = preset
    for base, fs_name in _FS_VARIANTS:
        table[fs_name] = table[base].with_failing_sets(fs_name)
    return table


#: The built-in preset rows (name → row). User presets live in the
#: registry (:func:`repro.core.registry.register_algorithm`) and are
#: consulted by :func:`get_algorithm` after this table.
PRESETS: Dict[str, PresetDef] = _preset_table()

ORIGINAL_NAMES = ("QSI", "GQL", "CFL", "CECI", "DP", "RI", "2PP")
OPTIMIZED_NAMES = (
    "QSI-opt",
    "GQL-opt",
    "CFL-opt",
    "CECI-opt",
    "DP-opt",
    "RI-opt",
    "2PP-opt",
)


def available_algorithms() -> List[str]:
    """All resolvable preset names (built-in, user, ``"recommended"``)."""
    return sorted(set(PRESETS) | set(registered_algorithms())) + ["recommended"]


def get_algorithm(name: str) -> AlgorithmSpec:
    """Resolve a preset by name; raises ConfigurationError on unknowns.

    Built-in rows take precedence; user-registered presets are consulted
    next.
    """
    preset = PRESETS.get(name) or get_registered_algorithm(name)
    if preset is None:
        known = ", ".join(available_algorithms())
        raise ConfigurationError(
            f"unknown algorithm {name!r}; available: {known}"
        ) from None
    return build_spec(preset)


def algorithm_components(name: str) -> Dict[str, str]:
    """Component breakdown of one preset (for the CLI listing).

    Read from the same :class:`PresetDef` row :func:`get_algorithm`
    builds, so the listing cannot drift from what runs. ``"recommended"``
    is described symbolically (it resolves per query/data pair).
    """
    if name == "recommended":
        return {
            "name": "recommended",
            "filter": "NLF",
            "ordering": "GQL|RI",
            "lc": "ALG5",
            "aux": "all",
            "adaptive": "-",
            "failing_sets": "auto",
        }
    preset = PRESETS.get(name) or get_registered_algorithm(name)
    if preset is None:
        known = ", ".join(available_algorithms())
        raise ConfigurationError(
            f"unknown algorithm {name!r}; available: {known}"
        ) from None
    return describe_preset(preset)


def recommended_spec(query: Graph, data: Graph) -> AlgorithmSpec:
    """The Section 6 recommendation, instantiated for one query/data pair.

    The NLF filter; GraphQL's ordering on dense data graphs and RI's on
    sparse ones; CECI/DP-iso-style all-edges auxiliary structure with the
    set-intersection ComputeLC; failing sets enabled only on large queries
    (the paper: "Enable the failing sets pruning on large queries, but
    disable it on small ones").

    The paper recommends GraphQL's filter. At radius 1 its local pruning
    yields exactly NLF's sets (same cost, identical on every query of the
    four end-to-end workloads), so the two differ only in GraphQL's
    semi-perfect-matching sweep. Under the 1 000-match cap of the
    filter-bound workloads that sweep costs more than it saves. Measured
    in process, ``recommended`` with each filter, best of 3 per query
    (2-CPU x86 box; e2e query pools, ``mutate_match`` on its initial
    graph):

    ==================================  ====================  ================
    per query                           ``cold_sparse`` (s7)  ``mutate_match``
    ==================================  ====================  ================
    total, NLF / GraphQL                0.83x                 0.79x
    median preprocessing, GQL -> NLF    2.14 -> 0.94 ms       1.45 -> 0.67 ms
    median enumeration, GQL -> NLF      1.45 -> 1.58 ms       1.16 -> 1.32 ms
    queries where the sweep pays > 5 %  34 / 320              4 / 64
    per-query oracle, share of NLF      0.911                 0.976
    best threshold rule, share of NLF   0.997                 0.982
    ==================================  ====================  ================

    The rules tried choose the sweep by one pre-sweep feature above or
    below a threshold: query size, local candidates, or neighbours the
    sweep would gather. Each is its best threshold fitted in sample. None
    beats the constant by 3 %, so the constant stands. The GQL ordering
    still reads ``|C(u)|``. The e2e "sparse" graph has average degree 12,
    above :data:`DENSE_DEGREE`, so every e2e workload orders with GQL, and a
    capped reply may list other (equally valid) embeddings than it did
    under GraphQL's filter. Counts never change. The ``GQL``/``GQLfs``
    presets and every study figure keep GraphQL's filter.

    A repeated query still gets the sweep: a session's order race on its
    second count-only sighting runs over GraphQL-refined candidates
    (:func:`repro.core.plan.race_orders`), so the steady state of a
    repeated count (the ``enum_dense`` workload) searches the same sets
    as under GraphQL's filter. The session then keeps the winner's
    prepared query alone, and prepares the NLF one again only for a reply
    that runs it (embeddings, or another cap).

    The inputs are the query's vertex count and the data graph's average
    degree, nothing else of either. A session caches the compiled plan
    beside the prepared query, keyed on the exact query with the
    algorithm, kernel name and graph epoch (see
    :mod:`repro.core.session`); nothing on the request path fingerprints
    the query.
    """
    dense = data.average_degree >= DENSE_DEGREE
    large_query = query.num_vertices >= 3 * DENSE_THRESHOLD  # >= 9 vertices
    return build_spec(
        PresetDef(
            name="recommended",
            filter="NLF",
            ordering="GQL" if dense else "RI",
            lc="ALG5",
            aux_scope="all",
            failing_sets=large_query,
        )
    )


def resolve(name_or_spec, query: Optional[Graph] = None, data: Optional[Graph] = None) -> AlgorithmSpec:
    """Accept a spec or a name (including ``"recommended"``)."""
    if isinstance(name_or_spec, AlgorithmSpec):
        return name_or_spec
    if name_or_spec == "recommended":
        if query is None or data is None:
            raise ConfigurationError(
                "'recommended' needs the query and data graphs to resolve"
            )
        return recommended_spec(query, data)
    return get_algorithm(name_or_spec)
