"""The differential runner: one case, every configuration, zero tolerance.

:func:`run_case` runs a planted case through one table of
``(reference, config, contract)`` rows:

===============================  =========  =============================
rows                             contract   reference
===============================  =========  =============================
every registry preset            set        the first preset
every kernel on one ALG5 preset  set        the first preset
fan-out over ``worker_counts``   exact      the same preset, sequential
each storage backend             exact      the first preset
VF2; brute force if tiny         oracle     the first preset
session (miss, hit, repeats)     session    one-shot run of its preset
===============================  =========  =============================

``set`` and ``oracle`` compare counts and order-free embedding sets,
``exact`` also the order; all three compare nothing when a side hit the
match cap. ``session`` holds a :class:`MatchSession` run to its own
cache hit, to the one-shot list and, on every count-only repeat (the
last runs the order race's winner), to the one-shot count, capped or
not. :func:`_differ` is that one rule and :func:`divergence_reproduces`
replays through it too, so each finding re-executes as the comparison
that found it. Every configuration runs once per case; its crash, an
invalid embedding or a missing planted embedding is a finding of its
own. Beside the rows run the metamorphic transforms of
:mod:`repro.qa.generator` on the first preset and, given a mutation
script, the mutate-then-match differential (:func:`run_mutation_config`)
over a slice of the same configurations.

Each :class:`Divergence` carries a serializable ``record`` (kind,
configs, transform, a non-default match cap) that
:func:`divergence_reproduces` re-executes on a shrunk or reloaded
(query, data) pair.
"""

from __future__ import annotations

import tempfile
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.baselines import brute_force_matches, vf2_matches
from repro.core.algorithms import PRESETS
from repro.core.api import match
from repro.core.session import MatchSession
from repro.core.verify import verify_embedding
from repro.dynamic import (
    DynamicGraph,
    IncrementalCandidates,
    MutationScript,
    sanitize_batch,
    script_from_json,
    script_to_json,
)
from repro.graph.fingerprint import query_fingerprint
from repro.graph.graph import Graph
from repro.graph.store import MmapStore, SharedMemoryStore, write_rgf
from repro.qa.generator import PlantedCase, apply_transform
from repro.utils.kernels import available_kernels

__all__ = [
    "DIVERGENCE_KINDS",
    "MUTATION_KINDS",
    "Config",
    "Divergence",
    "Outcome",
    "run_config",
    "run_mutation_config",
    "run_case",
    "normalize_embeddings",
    "divergence_reproduces",
]

#: Every divergence class the fuzzer can emit. Corpus fixtures pin one
#: regression per class (tests/corpus), and the property suite replays
#: them — keep this tuple and those fixtures in sync.
DIVERGENCE_KINDS: Tuple[str, ...] = (
    "count_mismatch",      # two framework presets disagree on the count
    "set_mismatch",        # counts agree, normalized embedding sets do not
    "missing_planted",     # the ground-truth planted embedding is absent
    "oracle_mismatch",     # framework vs brute-force/VF2 oracle
    "session_mismatch",    # MatchSession vs one-shot, or cache hit vs miss
    "metamorphic_mismatch",  # result changed under an invariant transform
    "invalid_embedding",   # a returned embedding fails verify_embedding
    "crash",               # a configuration raised an exception
    "mutation_mismatch",   # incremental mutate-then-match vs from-scratch rebuild
    "candidate_drift",     # incremental candidate maintenance vs full rebuild
    "subscription_mismatch",  # subscription delta vs the full-match difference
)

#: The divergence classes the mutation axis can emit; their replay path
#: is :func:`run_mutation_config` rather than a pair of ordinary runs.
MUTATION_KINDS: Tuple[str, ...] = (
    "mutation_mismatch",
    "candidate_drift",
    "subscription_mismatch",
)

#: Embeddings are compared as sets of per-query-vertex tuples; both the
#: cap and the store limit default high enough that tiny fuzz cases are
#: never truncated (capped runs are excluded from set comparisons).
DEFAULT_MATCH_LIMIT = 20_000

#: The modes that run an independent oracle instead of the framework.
ORACLES = ("vf2", "bruteforce")


@dataclass(frozen=True)
class Config:
    """One executable configuration of a case.

    ``mode`` is ``"oneshot"`` (plain :func:`match`), ``"session"``
    (:class:`MatchSession`, run twice to cover cache miss and hit),
    ``"vf2"`` or ``"bruteforce"`` (the oracles; ``algorithm``/``kernel``
    are ignored there). The later axes default to ``None`` so that
    historical corpus records replay unchanged, and :meth:`from_dict`
    ignores the key of a retired axis (``"engine"``): ``n_workers``
    ``None`` (sequential), the intra-query parallelism axis
    (:mod:`repro.parallel`), and ``storage`` ``None`` (the in-memory
    arrays), the residency axis: ``"rgf"`` round-trips
    the data graph through the binary format and runs off the memmap
    view, ``"shm"`` runs off a shared-memory segment
    (:mod:`repro.graph.store`). ``mutations`` ``None`` (the static
    default; legacy corpus records replay unchanged) versus a mutation
    *script* — a tuple of batches of :class:`~repro.dynamic.Mutation`
    ops — the dynamic axis: :func:`run_mutation_config` applies the
    script batch by batch to a :class:`~repro.dynamic.DynamicGraph` and
    cross-checks incremental state against a from-scratch rebuild after
    every batch.
    """

    algorithm: str = "GQL"
    kernel: Optional[str] = None
    mode: str = "oneshot"
    n_workers: Optional[int] = None
    storage: Optional[str] = None
    mutations: Optional[MutationScript] = None

    def to_dict(self) -> Dict[str, Optional[str]]:
        return {
            "algorithm": self.algorithm,
            "kernel": self.kernel,
            "mode": self.mode,
            "n_workers": self.n_workers,
            "storage": self.storage,
            "mutations": (
                script_to_json(self.mutations)
                if self.mutations is not None
                else None
            ),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Optional[str]]) -> "Config":
        n_workers = payload.get("n_workers")
        script = payload.get("mutations")
        return cls(
            algorithm=payload.get("algorithm") or "GQL",
            kernel=payload.get("kernel"),
            mode=payload.get("mode") or "oneshot",
            n_workers=int(n_workers) if n_workers is not None else None,
            storage=payload.get("storage"),
            mutations=script_from_json(script) if script else None,
        )

    def label(self) -> str:
        if self.mode in ORACLES:
            return self.mode
        kernel = f"/{self.kernel}" if self.kernel else ""
        workers = f"|w{self.n_workers}" if self.n_workers else ""
        storage = f"~{self.storage}" if self.storage else ""
        session = "+session" if self.mode == "session" else ""
        mutate = (
            f"+mut{sum(len(b) for b in self.mutations)}"
            if self.mutations
            else ""
        )
        return (
            f"{self.algorithm}{kernel}{workers}{storage}"
            f"{session}{mutate}"
        )


@dataclass
class Outcome:
    """Normalized result of one configuration run."""

    count: int
    emb_set: FrozenSet[Tuple[int, ...]]
    emb_list: List[Tuple[int, ...]]
    solved: bool = True
    capped: bool = False
    #: Session mode only: the embeddings of the second (cache-hit) run.
    repeat_list: Optional[List[Tuple[int, ...]]] = None
    #: Session mode of ``recommended`` only: ``(count, solved)`` of the
    #: count-only repeats after the two runs; the last runs the winner of
    #: the order race the first one triggers.
    count_repeats: Optional[List[Tuple[int, bool]]] = None


def normalize_embeddings(
    embeddings: Sequence[Tuple[int, ...]],
) -> FrozenSet[Tuple[int, ...]]:
    """Order-free, duplicate-free view of an embedding list."""
    return frozenset(tuple(int(v) for v in emb) for emb in embeddings)


@contextmanager
def _stored_data(data: Graph, storage: Optional[str]) -> Iterator[Graph]:
    """Resolve ``data`` through the requested storage backend.

    ``None`` yields the graph untouched; ``"rgf"`` writes it to a
    temporary ``.rgf`` file and yields the memmap-backed view (with
    checksum validation on open); ``"shm"`` publishes it to a
    shared-memory segment and yields the view over that segment. Either
    way the backing store is closed (and the segment unlinked / the
    tempfile removed) when the block exits. The arrays must be
    byte-identical across backends, so a store whose fingerprint differs
    from ``data``'s raises: the configuration crashes, and its record
    replays by running it again.
    """
    if storage is None:
        yield data
        return
    with ExitStack() as stack:
        if storage == "rgf":
            tmp = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-qa-")
            )
            path = Path(tmp) / "data.rgf"
            write_rgf(data, path)
            store = MmapStore(path, validate=True)
        elif storage == "shm":
            store = SharedMemoryStore.publish(data)
        else:
            raise ValueError(f"unknown storage backend: {storage!r}")
        stack.callback(store.close)
        if store.fingerprint() != data.store.fingerprint():
            raise ValueError(
                f"{storage} store fingerprint differs from the in-memory graph"
            )
        yield store.graph()


def run_config(
    query: Graph,
    data: Graph,
    config: Config,
    match_limit: int = DEFAULT_MATCH_LIMIT,
) -> Outcome:
    """Execute one configuration and normalize its result."""
    with _stored_data(data, config.storage) as resident:
        return _run_resident(query, resident, config, match_limit)


def _run_resident(
    query: Graph,
    data: Graph,
    config: Config,
    match_limit: int,
) -> Outcome:
    if config.mode == "vf2":
        found = vf2_matches(query, data, limit=match_limit)
        return Outcome(
            count=len(found),
            emb_set=frozenset(found),
            emb_list=sorted(found),
            capped=len(found) >= match_limit,
        )
    if config.mode == "bruteforce":
        found = brute_force_matches(query, data)
        return Outcome(
            count=len(found), emb_set=frozenset(found), emb_list=sorted(found)
        )
    if config.mode == "session":
        session = MatchSession(
            data,
            algorithm=config.algorithm,
            kernel=config.kernel,
            n_workers=config.n_workers,
        )
        try:
            first = session.match(
                query, match_limit=match_limit, store_limit=match_limit
            )
            second = session.match(
                query, match_limit=match_limit, store_limit=match_limit
            )
            count_repeats = None
            if config.algorithm == "recommended":
                count_repeats = []
                for _ in range(2):
                    repeat = session.match(
                        query, match_limit=match_limit, store_limit=0
                    )
                    count_repeats.append((repeat.num_matches, repeat.solved))
        finally:
            session.close()
        return Outcome(
            count=first.num_matches,
            emb_set=normalize_embeddings(first.embeddings),
            emb_list=list(first.embeddings),
            solved=first.solved and second.solved,
            capped=first.num_matches >= match_limit,
            repeat_list=list(second.embeddings),
            count_repeats=count_repeats,
        )
    result = match(
        query,
        data,
        algorithm=config.algorithm,
        kernel=config.kernel,
        n_workers=config.n_workers,
        match_limit=match_limit,
        store_limit=match_limit,
    )
    return Outcome(
        count=result.num_matches,
        emb_set=normalize_embeddings(result.embeddings),
        emb_list=list(result.embeddings),
        solved=result.solved,
        capped=result.num_matches >= match_limit,
    )


def run_mutation_config(
    query: Graph,
    data: Graph,
    config: Config,
    match_limit: int = DEFAULT_MATCH_LIMIT,
) -> Optional[Tuple[str, str]]:
    """The mutate-then-match differential: first finding or ``None``.

    ``config.mutations`` is applied batch by batch (after sanitizing ops
    against the current vertex count — the shrinker deletes vertices
    underneath recorded scripts) to a :class:`DynamicGraph` resident in
    a :class:`MatchSession`, with a standing subscription riding along.
    After **every** batch, three cross-checks against a from-scratch
    rebuild of the post-batch graph:

    * ``mutation_mismatch`` — the session's incremental match (epoch-
      keyed caches, maintained snapshot) must be byte-identical to a
      one-shot :func:`match` on a freshly constructed :class:`Graph`,
      and the overlay snapshot itself must compare equal to that
      rebuild (CSR is canonical, so equality is byte-parity);
    * ``candidate_drift`` — :class:`IncrementalCandidates` state after
      ``apply_delta`` must equal a ground-up rebuild on the same graph;
    * ``subscription_mismatch`` — the subscription's standing embedding
      set (initial set plus every reported delta) must equal the
      from-scratch match set.
    """
    script = config.mutations or ()
    with _stored_data(data, config.storage) as resident:
        # Materialize the resident view into plain arrays: the dynamic
        # overlay outlives the storage context (mmap/shm close on exit).
        base = Graph(
            labels=resident.labels.tolist(), edges=list(resident.edges())
        )
    dyn = DynamicGraph(base)
    incremental = IncrementalCandidates(query, dyn)
    session = MatchSession(
        dyn,
        algorithm=config.algorithm,
        kernel=config.kernel,
    )
    try:
        subscription = session.subscribe(query, match_limit=match_limit)
        n = dyn.num_vertices
        for index, batch in enumerate(script):
            kept, n = sanitize_batch(batch, n)
            outcome = session.mutate(kept)
            incremental.apply_delta(outcome.delta)

            rebuilt = Graph(
                labels=dyn.labels_list(), edges=list(dyn.edges())
            )
            if dyn.snapshot() != rebuilt:
                return (
                    "mutation_mismatch",
                    f"batch {index}: overlay snapshot differs from the "
                    "from-scratch rebuild",
                )
            inc_result = session.match(
                query, match_limit=match_limit, store_limit=match_limit
            )
            scratch = match(
                query,
                rebuilt,
                algorithm=config.algorithm,
                kernel=config.kernel,
                match_limit=match_limit,
                store_limit=match_limit,
            )
            capped = (
                inc_result.num_matches >= match_limit
                or scratch.num_matches >= match_limit
            )
            if inc_result.num_matches != scratch.num_matches or (
                not capped
                and list(inc_result.embeddings) != list(scratch.embeddings)
            ):
                return (
                    "mutation_mismatch",
                    f"batch {index}: incremental match "
                    f"({inc_result.num_matches}) differs from from-scratch "
                    f"({scratch.num_matches})",
                )
            if not incremental.equal_state(incremental.rebuild()):
                return (
                    "candidate_drift",
                    f"batch {index}: incremental candidate state differs "
                    "from a ground-up rebuild",
                )
            if not capped and set(subscription.matches()) != set(
                normalize_embeddings(scratch.embeddings)
            ):
                return (
                    "subscription_mismatch",
                    f"batch {index}: subscription holds "
                    f"{subscription.num_matches} embeddings, from-scratch "
                    f"found {scratch.num_matches}",
                )
        return None
    finally:
        session.close()


@dataclass
class Divergence:
    """One detected disagreement, with everything needed to replay it.

    ``record`` is the JSON-serializable description (kind, configs,
    transform) that :func:`divergence_reproduces` re-executes; ``query``
    and ``data`` are the graphs it happened on (pre-shrink).
    """

    kind: str
    detail: str
    record: Dict
    query: Graph
    data: Graph
    seed: Optional[int] = None
    planted: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        assert self.kind in DIVERGENCE_KINDS, self.kind

    def __repr__(self) -> str:
        return f"Divergence({self.kind}: {self.detail})"


def _record(
    kind: str,
    config_a: Config,
    config_b: Optional[Config] = None,
    transform: Optional[Dict] = None,
    match_limit: int = DEFAULT_MATCH_LIMIT,
) -> Dict:
    record = {
        "kind": kind,
        "config_a": config_a.to_dict(),
        "config_b": config_b.to_dict() if config_b is not None else None,
        "transform": transform,
    }
    # Only a non-default cap is written, so default records keep their bytes.
    if match_limit != DEFAULT_MATCH_LIMIT:
        record["match_limit"] = match_limit
    return record


def _differ(a: Outcome, b: Outcome, contract: str) -> Optional[str]:
    """What breaks ``contract`` between ``a`` and ``b`` (``None``: nothing).

    ``"set"``, ``"oracle"`` and ``"exact"`` compare nothing when a side is
    capped — different algorithms legally reach different cap subsets —
    and otherwise the counts, then the embedding sets; ``"exact"`` also
    the embedding order. ``"session"`` takes ``a`` from a session run and
    ``b`` from the one-shot run, and compares even when capped: ``a``'s
    cache hit against its miss, ``a``'s list against ``b``'s, and every
    count-only repeat of ``a`` against ``b``'s count and solved flag.
    """
    if contract == "session":
        if a.repeat_list is not None and a.emb_list != a.repeat_list:
            return "cache hit"
        if a.emb_list != b.emb_list:
            return "embedding list"
        if any(r != (b.count, b.solved) for r in a.count_repeats or ()):
            return "count-only repeat"
        return None
    if a.capped or b.capped:
        return None
    if a.count != b.count:
        return "count"
    if a.emb_set != b.emb_set:
        return "embedding set"
    if contract == "exact" and a.emb_list != b.emb_list:
        return "embedding order"
    return None


#: The divergence kind of each way a contract can break. An order-only
#: difference is a ``session_mismatch``: that kind replays by comparing
#: embedding lists.
_KINDS: Dict[Tuple[str, str], str] = {
    ("set", "count"): "count_mismatch",
    ("set", "embedding set"): "set_mismatch",
    ("exact", "count"): "count_mismatch",
    ("exact", "embedding set"): "set_mismatch",
    ("exact", "embedding order"): "session_mismatch",
    ("oracle", "count"): "oracle_mismatch",
    ("oracle", "embedding set"): "oracle_mismatch",
    ("session", "cache hit"): "session_mismatch",
    ("session", "embedding list"): "session_mismatch",
    ("session", "count-only repeat"): "session_mismatch",
}


def default_presets() -> List[str]:
    """All built-in preset names plus ``"recommended"``."""
    return sorted(PRESETS) + ["recommended"]


def default_kernels() -> List[str]:
    """All registered kernel backends (the concrete ones, not ``auto``)."""
    return [name for name in available_kernels() if name != "auto"]


#: Presets the parallel axis runs: static order with failing sets (root
#: windows under pruning) and adaptive (must fall back to sequential).
PARALLEL_ALGORITHMS = ("GQLfs", "DPfs")


def run_case(
    case: PlantedCase,
    presets: Optional[Sequence[str]] = None,
    kernels: Optional[Sequence[str]] = None,
    kernel_algorithm: str = "CECI",
    session_algorithm: str = "GQL-opt",
    worker_counts: Sequence[int] = (2,),
    storages: Sequence[str] = ("rgf", "shm"),
    oracle: bool = True,
    bruteforce_budget: int = 200_000,
    metamorphic: bool = True,
    mutations: Optional[MutationScript] = None,
    match_limit: int = DEFAULT_MATCH_LIMIT,
) -> List[Divergence]:
    """Run one planted case through the full configuration matrix.

    Returns every divergence found (empty list = the case is clean). The
    rows are the module docstring's table. The first preset is the
    reference of the preset, kernel, storage and oracle rows, so a
    systematic framework bug still surfaces as an ``oracle_mismatch``;
    its crash ends the case. ``mutations`` adds the mutate-then-match
    differential over the first preset, the session preset, the first
    kernel, a failing-sets preset and every storage backend.
    """
    presets = list(presets) if presets is not None else default_presets()
    kernels = list(kernels) if kernels is not None else default_kernels()
    divergences: List[Divergence] = []
    outcomes: Dict[Config, Optional[Outcome]] = {}
    valid = lru_cache(None)(partial(verify_embedding, case.query, case.data))

    def found(
        kind: str,
        detail: str,
        a: Config,
        b: Optional[Config] = None,
        transform: Optional[Dict] = None,
    ) -> None:
        labels = a.label() if b is None else f"{a.label()} vs {b.label()}"
        divergences.append(
            Divergence(
                kind=kind,
                detail=f"{labels}: {detail}",
                record=_record(kind, a, b, transform, match_limit),
                query=case.query,
                data=case.data,
                seed=case.seed,
                planted=case.planted,
            )
        )

    def attempt(config: Config, runner):
        try:
            return runner(case.query, case.data, config, match_limit)
        except Exception as exc:  # noqa: BLE001 — any crash is a finding
            found("crash", f"raised {type(exc).__name__}: {exc}", config)
            return None

    def run(config: Config) -> Optional[Outcome]:
        """The outcome of ``config``, run and checked once per case."""
        if config in outcomes:
            return outcomes[config]
        outcome = outcomes[config] = attempt(config, run_config)
        if outcome is None or outcome.capped or config.mode in ORACLES:
            return outcome
        for emb in outcome.emb_list:
            if not valid(emb):
                found("invalid_embedding", f"returned non-match {emb}", config)
                break
        if case.planted is not None and case.planted not in outcome.emb_set:
            found(
                "missing_planted",
                f"missed the planted embedding {case.planted}",
                config,
            )
        return outcome

    base = Config(algorithm=presets[0])
    base_outcome = run(base)
    if base_outcome is None:
        return divergences

    rows: List[Tuple[Config, Config, str]] = [
        *((base, Config(name), "set") for name in presets[1:]),
        *(
            (base, Config(kernel_algorithm, kernel=kernel), "set")
            for kernel in kernels
        ),
        *(
            (Config(algo), Config(algo, n_workers=n_workers), "exact")
            for algo in PARALLEL_ALGORITHMS
            for n_workers in worker_counts
        ),
        *((base, replace(base, storage=s), "exact") for s in storages),
        *(
            (Config(algo, mode="session"), Config(algo), "session")
            for algo in dict.fromkeys((session_algorithm, "recommended"))
        ),
    ]
    if oracle:
        rows.append((base, Config(mode="vf2"), "oracle"))
        if _bruteforce_feasible(case.query, case.data, bruteforce_budget):
            rows.append((base, Config(mode="bruteforce"), "oracle"))
    for reference, config, contract in rows:
        a, b = run(reference), run(config)
        if a is None or b is None:
            continue
        reason = _differ(a, b, contract)
        if reason is not None:
            found(
                _KINDS[contract, reason],
                f"{reason} differs ({a.count} vs {b.count} matches)",
                reference,
                config,
            )

    # Metamorphic invariants on the first preset.
    if metamorphic and not base_outcome.capped:
        for transform in ("relabel", "renumber", "edge_shuffle"):
            t_seed = case.seed * 31 + len(transform)
            violation = _metamorphic_violation(
                case.query, case.data, base, transform, t_seed,
                match_limit, base_outcome,
            )
            if violation:
                found(
                    "metamorphic_mismatch",
                    f"under {transform}: {violation}",
                    base,
                    transform={"name": transform, "seed": t_seed},
                )

    # Mutation axis: a slice of the same configurations, each run as a
    # session through the script. Every finding replays through
    # run_mutation_config, so the records need no second side.
    if mutations:
        swept = [
            base,
            Config(session_algorithm),
            *(Config(kernel_algorithm, kernel=k) for k in kernels[:1]),
            Config(PARALLEL_ALGORITHMS[0]),
            *(replace(base, storage=s) for s in storages),
        ]
        for config in dict.fromkeys(
            replace(c, mode="session", mutations=mutations) for c in swept
        ):
            finding = attempt(config, run_mutation_config)
            if finding is not None:
                found(*finding, config)

    return divergences


def _bruteforce_feasible(query: Graph, data: Graph, budget: int) -> bool:
    """Whether the label-restricted assignment space fits the budget."""
    total = 1
    for u in query.vertices():
        total *= max(1, data.label_frequency(query.label(u)))
        if total > budget:
            return False
    return True


def _metamorphic_violation(
    query: Graph,
    data: Graph,
    config: Config,
    transform: str,
    seed: int,
    match_limit: int,
    base: Optional[Outcome] = None,
) -> Optional[str]:
    """Check one transform invariant; returns the violation (or None).

    * ``relabel``: counts and embedding sets identical;
    * ``renumber``: counts identical, embedding set maps through the
      permutation, and the *query* fingerprint is renumbering-invariant;
    * ``edge_shuffle``: the rebuilt graphs compare equal and the
      embedding lists are byte-identical.
    """
    if base is None:
        base = run_config(query, data, config, match_limit)
    q2, d2, perm = apply_transform(transform, query, data, seed)
    after = run_config(q2, d2, config, match_limit)
    if base.capped or after.capped:
        return None
    if transform == "relabel":
        if base.count != after.count:
            return f"count changed {base.count} -> {after.count}"
        if base.emb_set != after.emb_set:
            return "embedding set changed under label permutation"
    elif transform == "renumber":
        assert perm is not None
        if query_fingerprint(query) != query_fingerprint(
            renumbered_query(query, seed)
        ):
            return "query fingerprint not renumbering-invariant"
        if base.count != after.count:
            return f"count changed {base.count} -> {after.count}"
        mapped = frozenset(
            tuple(perm[v] for v in emb) for emb in base.emb_set
        )
        if mapped != after.emb_set:
            return "embedding set does not map through the permutation"
    elif transform == "edge_shuffle":
        if q2 != query or d2 != data:
            return "edge-shuffled graph does not compare equal"
        if base.emb_list != after.emb_list:
            return "embedding order changed under edge shuffle"
    return None


def renumbered_query(query: Graph, seed: int) -> Graph:
    """The query under a seeded vertex renumbering (fingerprint probe)."""
    from repro.qa.generator import renumber_vertices

    return renumber_vertices(query, seed)[0]


# ----------------------------------------------------------------------
# Replaying a recorded divergence on (possibly mutated) graphs
# ----------------------------------------------------------------------


def divergence_reproduces(record: Dict, query: Graph, data: Graph) -> bool:
    """Re-execute the comparison described by ``record`` on fresh graphs.

    This is the single predicate behind both the shrinker (does the
    divergence survive this deletion?) and corpus replay (is this
    historical bug still fixed?). Any configuration that *crashes* counts
    as reproducing for ``kind="crash"`` and as reproducing for every
    other kind too — a shrink step must never turn a miscount into a
    crash and be declared "fixed".
    """
    kind = record["kind"]
    config_a = Config.from_dict(record["config_a"])
    match_limit = int(record.get("match_limit") or DEFAULT_MATCH_LIMIT)

    if kind == "crash":
        runner = run_mutation_config if config_a.mutations else run_config
        try:
            runner(query, data, config_a, match_limit)
        except Exception:  # noqa: BLE001
            return True
        return False

    try:
        if kind in MUTATION_KINDS:
            # Any of the mutation differential's cross-checks firing counts,
            # so a shrink step that morphs e.g. a mutation_mismatch into
            # candidate_drift is never declared "fixed".
            finding = run_mutation_config(query, data, config_a, match_limit)
            return finding is not None

        if kind == "invalid_embedding":
            outcome = run_config(query, data, config_a, match_limit)
            return any(
                not verify_embedding(query, data, emb)
                for emb in outcome.emb_list
            )

        if kind == "metamorphic_mismatch":
            transform = record["transform"]
            return (
                _metamorphic_violation(
                    query, data, config_a,
                    transform["name"], int(transform["seed"]), match_limit,
                )
                is not None
            )

        if kind == "missing_planted":
            # The planted tuple does not survive shrinking (vertex ids
            # shift), so replay against an independent reference: the
            # algorithm must produce exactly the oracle's match set.
            reference = Config(
                mode="bruteforce"
                if config_a.mode == "vf2"
                or _bruteforce_feasible(query, data, 200_000)
                else "vf2"
            )
            a = run_config(query, data, config_a, match_limit)
            b = run_config(query, data, reference, match_limit)
            return _differ(a, b, "set") is not None

        # count/set/oracle/session mismatches: rerun both sides under the
        # runner's own rule. Only a session_mismatch compares lists.
        config_b = Config.from_dict(record["config_b"])
        a = run_config(query, data, config_a, match_limit)
        b = run_config(query, data, config_b, match_limit)
        contract = "session" if kind == "session_mismatch" else "set"
        return _differ(a, b, contract) is not None
    except Exception:  # noqa: BLE001 — shrink must not mask a crash
        return True
