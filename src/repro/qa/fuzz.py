"""The seeded, time-boxed fuzz loop behind ``repro fuzz``.

Each iteration derives an independent case seed, generates a planted
workload (:func:`repro.qa.generator.plant_case`), runs the differential
matrix (:func:`repro.qa.differential.run_case`), and — on any divergence
— shrinks the case (:func:`repro.qa.shrink.shrink_case`) and writes a
replayable JSON repro into the corpus directory. Wholly deterministic
given ``(cases, seed)``; the time box only decides how far the loop gets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.qa.corpus import iter_corpus, make_record, replay_repro, save_repro
from repro.qa.differential import Divergence, run_case
from repro.qa.generator import plant_case, plant_mutation_script
from repro.qa.shrink import shrink_case

__all__ = ["FuzzReport", "run_fuzz", "replay_corpus"]

#: Case seeds are spread with the same multiplier the query-set generator
#: uses, so independent fuzz runs with nearby base seeds do not overlap.
SEED_STRIDE = 1_000_003


@dataclass
class FuzzReport:
    """Outcome of one fuzz run."""

    seed: int
    cases_requested: int
    cases_run: int = 0
    elapsed_seconds: float = 0.0
    #: True when the ``max_seconds`` box stopped the loop early.
    time_boxed: bool = False
    divergences: List[Divergence] = field(default_factory=list)
    #: Repro files written (shrunk), in discovery order.
    repro_files: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """Whether the run finished without a single divergence."""
        return not self.divergences

    def summary(self) -> str:
        status = "clean" if self.clean else f"{len(self.divergences)} divergence(s)"
        boxed = " (time-boxed)" if self.time_boxed else ""
        return (
            f"fuzz seed={self.seed}: {self.cases_run}/{self.cases_requested} "
            f"cases in {self.elapsed_seconds:.1f}s{boxed} — {status}"
        )


def run_fuzz(
    cases: int = 200,
    seed: int = 0,
    max_seconds: Optional[float] = None,
    corpus_dir: Optional[str] = None,
    shrink: bool = True,
    shrink_seconds: float = 30.0,
    max_failures: int = 10,
    case_options: Optional[Dict] = None,
    run_options: Optional[Dict] = None,
    mutate: bool = False,
) -> FuzzReport:
    """Fuzz ``cases`` planted workloads; returns the full report.

    Parameters
    ----------
    cases:
        Number of planted cases to generate and differentially run.
    seed:
        Base seed; case ``i`` uses ``seed * SEED_STRIDE + i``.
    max_seconds:
        Wall-clock box for the whole loop (``None`` = unbounded). The
        case in flight finishes; no new case starts past the box.
    corpus_dir:
        Where shrunk repro files are written (``None`` = don't write).
    shrink, shrink_seconds:
        Minimize failing cases (each within its own time budget).
    max_failures:
        Stop after this many divergent *cases* — a systematic bug fails
        every case, and thousands of copies of it help nobody.
    case_options / run_options:
        Extra keyword arguments forwarded to
        :func:`~repro.qa.generator.plant_case` and
        :func:`~repro.qa.differential.run_case`.
    mutate:
        Also exercise the mutation axis: each case gets a seeded
        mutation script (:func:`~repro.qa.generator.plant_mutation_script`)
        and the mutate-then-match differential runs after every batch.
        An explicit ``run_options["mutations"]`` wins over the generated
        script.
    """
    start = time.perf_counter()
    report = FuzzReport(seed=seed, cases_requested=cases)
    case_options = dict(case_options or {})
    run_options = dict(run_options or {})
    failing_cases = 0

    for i in range(cases):
        if max_seconds is not None and time.perf_counter() - start > max_seconds:
            report.time_boxed = True
            break
        case_seed = seed * SEED_STRIDE + i
        case = plant_case(case_seed, **case_options)
        options = run_options
        if mutate and "mutations" not in options:
            options = dict(options, mutations=plant_mutation_script(case))
        divergences = run_case(case, **options)
        report.cases_run += 1
        if not divergences:
            continue

        failing_cases += 1
        report.divergences.extend(divergences)
        if corpus_dir is not None:
            for j, divergence in enumerate(divergences):
                path = _write_repro(
                    corpus_dir, divergence, j,
                    shrink=shrink, shrink_seconds=shrink_seconds,
                )
                report.repro_files.append(path)
        if failing_cases >= max_failures:
            break

    report.elapsed_seconds = time.perf_counter() - start
    return report


def _write_repro(
    corpus_dir: str,
    divergence: Divergence,
    index: int,
    shrink: bool,
    shrink_seconds: float,
) -> str:
    """Shrink one divergence and persist it as a corpus JSON file."""
    query, data = divergence.query, divergence.data
    if shrink:
        query, data, _ = shrink_case(
            divergence.record, query, data, max_seconds=shrink_seconds
        )
    record = make_record(
        kind=divergence.kind,
        query=query,
        data=data,
        config_a=divergence.record["config_a"],
        config_b=divergence.record.get("config_b"),
        transform=divergence.record.get("transform"),
        seed=divergence.seed,
        detail=divergence.detail,
        # The planted tuple refers to pre-shrink vertex ids; only keep it
        # when the data graph was not reduced.
        planted=(
            divergence.planted
            if data.num_vertices == divergence.data.num_vertices
            else None
        ),
        match_limit=divergence.record.get("match_limit"),
    )
    suffix = f"-{index}" if index else ""
    name = f"repro-{divergence.kind}-{divergence.seed}{suffix}.json"
    return save_repro(f"{corpus_dir.rstrip('/')}/{name}", record)


def replay_corpus(directory: str) -> List[Tuple[str, bool]]:
    """Replay every repro in ``directory``; returns (path, reproduces).

    ``reproduces=True`` means the historical divergence is back (a
    regression); a healthy tree replays every file ``False``.
    """
    return [
        (path, replay_repro(record)) for path, record in iter_corpus(directory)
    ]
