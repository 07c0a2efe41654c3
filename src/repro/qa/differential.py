"""The differential runner: one case, every configuration, zero tolerance.

For a planted case this module executes the query across

* every built-in registry preset (plus ``"recommended"``),
* every kernel backend on an Algorithm 5 preset,
* sequential vs chunked parallel enumeration on static-failing-sets and
  adaptive presets, compared byte-for-byte,
* :class:`~repro.core.session.MatchSession` (cache miss *and* cache hit)
  vs the one-shot :func:`~repro.core.api.match`, for ``"recommended"``
  plus count-only repeats whose last runs the order race's winner,
* the independent :mod:`repro.baselines` oracles — VF2 always (cases are
  small by construction), brute force when the assignment space is tiny,
* the metamorphic transforms of :mod:`repro.qa.generator`,
* the mutate-then-match differential (:func:`run_mutation_config`): a
  seeded mutation script applied batch by batch to a
  :class:`~repro.dynamic.DynamicGraph`, with the incremental match, the
  incrementally maintained candidate sets and the standing subscription
  each cross-checked against a from-scratch rebuild after every batch,

normalizes embeddings to order-free sets and reports every disagreement
as a :class:`Divergence`. Each divergence carries a serializable
``record`` (configs + transform + kind) so that :mod:`repro.qa.shrink`
and :mod:`repro.qa.corpus` can re-execute *exactly* the failing
comparison on a mutated or reloaded (query, data) pair via
:func:`divergence_reproduces`.
"""

from __future__ import annotations

import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
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
        if self.mode in ("vf2", "bruteforce"):
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
    tempfile removed) when the block exits.
    """
    if storage is None:
        yield data
        return
    if storage == "rgf":
        with tempfile.TemporaryDirectory(prefix="repro-qa-") as tmp:
            path = Path(tmp) / "data.rgf"
            write_rgf(data, path)
            store = MmapStore(path, validate=True)
            try:
                yield store.graph()
            finally:
                store.close()
        return
    if storage == "shm":
        store = SharedMemoryStore.publish(data)
        try:
            yield store.graph()
        finally:
            store.close()
        return
    raise ValueError(f"unknown storage backend: {storage!r}")


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
                    repeat = session.match(query, match_limit=match_limit, store_limit=0)
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
) -> Dict:
    return {
        "kind": kind,
        "config_a": config_a.to_dict(),
        "config_b": config_b.to_dict() if config_b is not None else None,
        "transform": transform,
    }


def _pair_divergence(
    kind: str,
    config_a: Config,
    config_b: Config,
    a: Outcome,
    b: Outcome,
    case: "PlantedCase",
    detail: str,
) -> Divergence:
    return Divergence(
        kind=kind,
        detail=(
            f"{config_a.label()} vs {config_b.label()}: {detail} "
            f"({a.count} vs {b.count} matches)"
        ),
        record=_record(kind, config_a, config_b),
        query=case.query,
        data=case.data,
        seed=case.seed,
        planted=case.planted,
    )


def _outcomes_differ(a: Outcome, b: Outcome) -> Optional[str]:
    """Why two outcomes disagree (``None`` when they agree).

    Capped runs (the match cap truncated enumeration) compare counts
    only — different algorithms legally reach different cap subsets.
    """
    if a.capped or b.capped:
        return None
    if a.count != b.count:
        return "count"
    if a.emb_set != b.emb_set:
        return "set"
    return None


def _count_repeats_differ(session: Outcome, oneshot: Outcome) -> bool:
    """Whether a count-only session repeat disagrees with the one-shot
    outcome on the count or the solved flag."""
    return any(
        repeat != (oneshot.count, oneshot.solved)
        for repeat in session.count_repeats or ()
    )


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
    first preset is the baseline all others are compared against; the
    oracles are compared against the baseline too, so a systematic
    framework bug still surfaces as an ``oracle_mismatch``. When
    ``mutations`` is given, the mutate-then-match differential
    (:func:`run_mutation_config`) additionally sweeps the script over
    the baseline preset, the session preset, one kernel config, a
    failing-sets preset, and every storage backend.
    """
    presets = list(presets) if presets is not None else default_presets()
    kernels = list(kernels) if kernels is not None else default_kernels()
    divergences: List[Divergence] = []

    def run_checked(config: Config) -> Optional[Outcome]:
        try:
            return run_config(case.query, case.data, config, match_limit)
        except Exception as exc:  # noqa: BLE001 — any crash is a finding
            divergences.append(
                Divergence(
                    kind="crash",
                    detail=f"{config.label()} raised {type(exc).__name__}: {exc}",
                    record=_record("crash", config),
                    query=case.query,
                    data=case.data,
                    seed=case.seed,
                    planted=case.planted,
                )
            )
            return None

    base_config = Config(algorithm=presets[0])
    base = run_checked(base_config)
    if base is None:
        return divergences

    def compare(kind: str, config: Config, outcome: Outcome) -> None:
        why = _outcomes_differ(base, outcome)
        if why is None:
            return
        if kind == "count_mismatch" and why == "set":
            kind = "set_mismatch"
        divergences.append(
            _pair_divergence(
                kind, base_config, config, base, outcome, case,
                f"{why} differs",
            )
        )

    def check_planted_and_valid(config: Config, outcome: Outcome) -> None:
        if outcome.capped:
            return
        for emb in outcome.emb_list:
            if not verify_embedding(case.query, case.data, emb):
                divergences.append(
                    Divergence(
                        kind="invalid_embedding",
                        detail=f"{config.label()} returned non-match {emb}",
                        record=_record("invalid_embedding", config),
                        query=case.query,
                        data=case.data,
                        seed=case.seed,
                        planted=case.planted,
                    )
                )
                break
        if case.planted is not None and case.planted not in outcome.emb_set:
            divergences.append(
                Divergence(
                    kind="missing_planted",
                    detail=(
                        f"{config.label()} missed the planted embedding "
                        f"{case.planted}"
                    ),
                    record=_record("missing_planted", config),
                    query=case.query,
                    data=case.data,
                    seed=case.seed,
                    planted=case.planted,
                )
            )

    check_planted_and_valid(base_config, base)

    # Every registry preset against the baseline.
    for name in presets[1:]:
        config = Config(algorithm=name)
        outcome = run_checked(config)
        if outcome is None:
            continue
        compare("count_mismatch", config, outcome)
        check_planted_and_valid(config, outcome)

    # Every kernel backend on one Algorithm 5 preset.
    for kernel in kernels:
        config = Config(algorithm=kernel_algorithm, kernel=kernel)
        outcome = run_checked(config)
        if outcome is None:
            continue
        why = _outcomes_differ(base, outcome)
        if why is not None:
            divergences.append(
                _pair_divergence(
                    "count_mismatch" if why == "count" else "set_mismatch",
                    base_config, config, base, outcome, case,
                    f"{why} differs",
                )
            )

    # Parallel enumeration against the sequential run of the same
    # preset, held to a *byte identical* contract (embedding order
    # included), stronger than the set equality presets are held to:
    # chunked fan-out must reassemble the exact sequential embedding
    # order. Order-only differences are reported as ``session_mismatch``,
    # whose replay path compares embedding lists. Small cases fall below
    # the parallel eligibility floor and silently run sequentially — that
    # degenerate comparison passing is fine; the axis earns its keep on
    # the cases with enough root candidates.
    for algo in PARALLEL_ALGORITHMS:
        first_config = Config(algorithm=algo)
        first = run_checked(first_config)
        if first is None:
            continue
        for n_workers in worker_counts:
            config = Config(algorithm=algo, n_workers=n_workers)
            outcome = run_checked(config)
            if outcome is None:
                continue
            why = _outcomes_differ(first, outcome)
            if why is not None:
                divergences.append(
                    _pair_divergence(
                        "count_mismatch" if why == "count" else "set_mismatch",
                        first_config, config, first, outcome, case,
                        f"{why} differs between sequential and parallel runs",
                    )
                )
            elif not (first.capped or outcome.capped) and (
                first.emb_list != outcome.emb_list
            ):
                divergences.append(
                    _pair_divergence(
                        "session_mismatch", first_config, config,
                        first, outcome, case,
                        "parallel run reordered embeddings",
                    )
                )

    # Storage-backend axis: the baseline preset rerun with the data
    # graph resident in each alternate backend (``.rgf`` memmap,
    # shared memory). The CSR arrays are byte-identical by construction
    # (store fingerprints are compared first), so the match itself is
    # held to the byte-identical contract: order-only differences are
    # ``session_mismatch``, like the parallel sweep.
    base_fingerprint = case.data.store.fingerprint()
    for storage in storages:
        config = Config(algorithm=presets[0], storage=storage)
        try:
            with _stored_data(case.data, storage) as resident:
                fingerprint = resident.store.fingerprint()
        except Exception as exc:  # noqa: BLE001 — any crash is a finding
            divergences.append(
                Divergence(
                    kind="crash",
                    detail=(
                        f"{config.label()} backend raised "
                        f"{type(exc).__name__}: {exc}"
                    ),
                    record=_record("crash", config),
                    query=case.query,
                    data=case.data,
                    seed=case.seed,
                    planted=case.planted,
                )
            )
            continue
        if fingerprint != base_fingerprint:
            divergences.append(
                _pair_divergence(
                    "session_mismatch", base_config, config,
                    base, base, case,
                    f"{storage} store fingerprint differs from in-memory",
                )
            )
            continue
        outcome = run_checked(config)
        if outcome is None:
            continue
        why = _outcomes_differ(base, outcome)
        if why is not None:
            divergences.append(
                _pair_divergence(
                    "count_mismatch" if why == "count" else "set_mismatch",
                    base_config, config, base, outcome, case,
                    f"{why} differs across storage backends",
                )
            )
        elif not (base.capped or outcome.capped) and (
            base.emb_list != outcome.emb_list
        ):
            divergences.append(
                _pair_divergence(
                    "session_mismatch", base_config, config,
                    base, outcome, case,
                    f"{storage} backend reordered embeddings",
                )
            )

    # MatchSession (miss then hit) vs the one-shot result of the same
    # preset; for ``recommended`` also its count-only repeats, the last
    # of which runs the order race's winner.
    for algorithm in dict.fromkeys((session_algorithm, "recommended")):
        session_config = Config(algorithm=algorithm, mode="session")
        oneshot_config = Config(algorithm=algorithm)
        session_outcome = run_checked(session_config)
        oneshot_outcome = run_checked(oneshot_config)
        if session_outcome is None or oneshot_outcome is None:
            continue
        if session_outcome.repeat_list is not None and (
            session_outcome.emb_list != session_outcome.repeat_list
        ):
            divergences.append(
                Divergence(
                    kind="session_mismatch",
                    detail=(
                        f"{session_config.label()}: cache hit returned "
                        "different embeddings than cache miss"
                    ),
                    record=_record("session_mismatch", session_config,
                                   oneshot_config),
                    query=case.query,
                    data=case.data,
                    seed=case.seed,
                    planted=case.planted,
                )
            )
        elif session_outcome.emb_list != oneshot_outcome.emb_list:
            divergences.append(
                _pair_divergence(
                    "session_mismatch", session_config, oneshot_config,
                    session_outcome, oneshot_outcome, case,
                    "session and one-shot results differ",
                )
            )
        elif _count_repeats_differ(session_outcome, oneshot_outcome):
            divergences.append(
                _pair_divergence(
                    "session_mismatch", session_config, oneshot_config,
                    session_outcome, oneshot_outcome, case,
                    "a count-only repeat differs from the one-shot count",
                )
            )

    # Independent oracles. VF2 always (cases are small); brute force only
    # when the label-restricted assignment space is tiny.
    if oracle:
        vf2_config = Config(mode="vf2")
        vf2_outcome = run_checked(vf2_config)
        if vf2_outcome is not None:
            why = _outcomes_differ(base, vf2_outcome)
            if why is not None:
                divergences.append(
                    _pair_divergence(
                        "oracle_mismatch", base_config, vf2_config,
                        base, vf2_outcome, case, f"{why} differs",
                    )
                )
        if _bruteforce_feasible(case.query, case.data, bruteforce_budget):
            bf_config = Config(mode="bruteforce")
            bf_outcome = run_checked(bf_config)
            if bf_outcome is not None:
                why = _outcomes_differ(base, bf_outcome)
                if why is not None:
                    divergences.append(
                        _pair_divergence(
                            "oracle_mismatch", base_config, bf_config,
                            base, bf_outcome, case, f"{why} differs",
                        )
                    )

    # Metamorphic invariants on the baseline preset.
    if metamorphic and not base.capped:
        for transform in ("relabel", "renumber", "edge_shuffle"):
            t_seed = case.seed * 31 + len(transform)
            violation = _metamorphic_violation(
                case.query, case.data, base_config, transform, t_seed,
                match_limit, base,
            )
            if violation:
                divergences.append(
                    Divergence(
                        kind="metamorphic_mismatch",
                        detail=(
                            f"{base_config.label()} under {transform}: "
                            f"{violation}"
                        ),
                        record=_record(
                            "metamorphic_mismatch", base_config,
                            transform={"name": transform, "seed": t_seed},
                        ),
                        query=case.query,
                        data=case.data,
                        seed=case.seed,
                        planted=case.planted,
                    )
                )

    # Mutation axis: the mutate-then-match differential, swept across a
    # representative slice of the matrix. Every config replays through
    # run_mutation_config, so the records need no second side.
    if mutations:
        mutation_configs: List[Config] = [
            Config(algorithm=presets[0], mode="session", mutations=mutations),
            Config(
                algorithm=session_algorithm, mode="session",
                mutations=mutations,
            ),
        ]
        if kernels:
            mutation_configs.append(
                Config(
                    algorithm=kernel_algorithm, kernel=kernels[0],
                    mode="session", mutations=mutations,
                )
            )
        mutation_configs.append(
            Config(
                algorithm=PARALLEL_ALGORITHMS[0], mode="session",
                mutations=mutations,
            )
        )
        for storage in storages:
            mutation_configs.append(
                Config(
                    algorithm=presets[0], storage=storage,
                    mode="session", mutations=mutations,
                )
            )
        for config in dict.fromkeys(mutation_configs):
            try:
                finding = run_mutation_config(
                    case.query, case.data, config, match_limit
                )
            except Exception as exc:  # noqa: BLE001 — any crash is a finding
                divergences.append(
                    Divergence(
                        kind="crash",
                        detail=(
                            f"{config.label()} raised "
                            f"{type(exc).__name__}: {exc}"
                        ),
                        record=_record("crash", config),
                        query=case.query,
                        data=case.data,
                        seed=case.seed,
                        planted=case.planted,
                    )
                )
                continue
            if finding is not None:
                kind, detail = finding
                divergences.append(
                    Divergence(
                        kind=kind,
                        detail=f"{config.label()}: {detail}",
                        record=_record(kind, config),
                        query=case.query,
                        data=case.data,
                        seed=case.seed,
                        planted=case.planted,
                    )
                )

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
        try:
            if config_a.mutations:
                run_mutation_config(query, data, config_a, match_limit)
            else:
                run_config(query, data, config_a, match_limit)
        except Exception:  # noqa: BLE001
            return True
        return False

    try:
        if kind in MUTATION_KINDS:
            # The mutation differential is self-contained: any of its
            # three cross-checks firing (on any batch) counts as
            # reproducing, so a shrink step that morphs e.g. a
            # mutation_mismatch into candidate_drift is never declared
            # "fixed".
            return run_mutation_config(query, data, config_a, match_limit) \
                is not None

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
            return _outcomes_differ(a, b) is not None

        # count/set/oracle/session mismatches: rerun both sides.
        config_b = Config.from_dict(record["config_b"])
        a = run_config(query, data, config_a, match_limit)
        b = run_config(query, data, config_b, match_limit)
        if kind == "session_mismatch":
            if a.repeat_list is not None and a.emb_list != a.repeat_list:
                return True
            return a.emb_list != b.emb_list or _count_repeats_differ(a, b)
        return _outcomes_differ(a, b) is not None
    except Exception:  # noqa: BLE001 — shrink must not mask a crash
        return True
