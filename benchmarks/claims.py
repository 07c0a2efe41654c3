"""The floors, ceilings and cross-field facts benchmark records must hold.

``CLAIMS`` is the one table of them: each row names a suite, states a
claim and holds a predicate over one run's records of that suite, looked
up by record name (``run["coalescing_on"]``). :func:`check` validates
every record against the record contract of :mod:`repro.obs.schema`,
then evaluates the suite's rows; a row that reads a missing field or
divides by zero fails like a false one.

Run directly to check record files (a run writes each record name once,
so a repeated name starts the next run)::

    python benchmarks/claims.py benchmarks/results/*.jsonl
"""

from __future__ import annotations

import json
import sys
from fnmatch import fnmatch
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional

if __name__ == "__main__":  # standalone run: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs.schema import TraceSchemaError, validate_record

#: The 4-worker speedup floor of the parallel fan-out.
MIN_PARALLEL_SPEEDUP = 2.5

#: Warm memmap matching may cost at most this multiple of in-memory.
MAX_MMAP_WARM_OVERHEAD = 1.3

#: Out-of-core peak RSS must be at most this fraction of the
#: materialized run's peak RSS.
MAX_OUT_OF_CORE_RSS_RATIO = 0.5

#: Per-batch incremental candidate maintenance must beat a from-scratch
#: rebuild by at least this factor on the benchmark's 1%-churn workload:
#: in counted candidate-state entries here, and in seconds in CI's
#: dynamic-smoke job.
MIN_DYNAMIC_SPEEDUP = 5.0

#: One run's records of one suite, by record name.
Run = Dict[str, dict]


class Claim(NamedTuple):
    """One row: ``holds(run)`` is true of every good run of ``suite``."""

    suite: str
    text: str
    holds: Callable[[Run], bool]


def _ratio(value: float, numerator: float, denominator: float) -> bool:
    """A recorded ratio equals the quotient it was derived from."""
    return abs(value - numerator / denominator) < 1e-6


def _each(run: Run, fact: Callable[[dict, dict, dict], bool]) -> bool:
    """``fact(key, metrics, counters)`` holds for every record of the run."""
    return all(fact(r["key"], r["metrics"], r["counters"]) for r in run.values())


def _queries(run: Run) -> List[dict]:
    return [r for name, r in run.items() if name.startswith("query")]


def _chunks(record: dict, section: str, prefix: str) -> int:
    return sum(1 for name in record[section] if name.startswith(prefix))


def _positive(suite: str, fields: Dict[str, str]) -> Claim:
    """The row: every metric or counter listed for a record is present
    and above zero (``*`` in a record name matches like a glob)."""

    def holds(run: Run) -> bool:
        return all(
            {**r["counters"], **r["metrics"]}[field] > 0
            for pattern, names in fields.items()
            for r in ([rec for n, rec in run.items() if fnmatch(n, pattern)]
                      if "*" in pattern else [run[pattern]])
            for field in names.split()
        )

    listed = "; ".join(f"{pattern}: {names}" for pattern, names in fields.items())
    return Claim(suite, f"present and above zero, {listed}", holds)


def _no_leaks(*counters: str) -> Callable[[Run], bool]:
    return lambda run: _each(run, lambda k, m, c: all(c[n] == 0 for n in counters))


CLAIMS = (
    # bench_kernels: one record per registry backend.
    Claim("kernels", "each backend's record names the kernel that ran",
          lambda run: _each(run, lambda k, m, c: isinstance(k["kernel"], str))),
    Claim("kernels", "speedup_vs_scalar = scalar's seconds_per_call / the backend's",
          lambda run: _each(run, lambda k, m, c: _ratio(
              m["speedup_vs_scalar"],
              run["scalar"]["metrics"]["seconds_per_call"], m["seconds_per_call"]))),
    # bench_session: one record, repeated_queries.
    Claim("session", "total_queries = distinct x repeats",
          lambda run: _each(run, lambda k, m, c:
                            c["total_queries"] == k["distinct"] * k["repeats"])),
    Claim("session", "prep cache hits + misses = total_queries",
          lambda run: _each(run, lambda k, m, c:
                            c["prep_hits"] + c["prep_misses"] == c["total_queries"])),
    Claim("session", "one-shot and session match counts agree",
          lambda run: _each(run, lambda k, m, c: c["matches_agree"] == 1)),
    Claim("session", "speedup_session_vs_one_shot = one_shot_seconds / session_seconds",
          lambda run: _each(run, lambda k, m, c: _ratio(
              m["speedup_session_vs_one_shot"],
              m["one_shot_seconds"], m["session_seconds"]))),
    _positive("session", {"repeated_queries": "data_vertices total_queries prep_size "
                          "one_shot_seconds session_seconds one_shot_seconds_per_query "
                          "session_seconds_per_query speedup_session_vs_one_shot"}),
    # bench_server: coalescing_on and coalescing_off.
    Claim("server", "total_requests = clients x requests_per_client",
          lambda run: _each(run, lambda k, m, c: c["total_requests"]
                            == k["clients"] * k["requests_per_client"])),
    Claim("server", "p99_ms >= p50_ms",
          lambda run: _each(run, lambda k, m, c: m["p99_ms"] + 1e-9 >= m["p50_ms"])),
    Claim("server", "serve.completed = total_requests",
          lambda run: _each(run, lambda k, m, c:
                            c["serve.completed"] == c["total_requests"])),
    Claim("server", "coalescing executes no more often than no coalescing",
          lambda run: run["coalescing_on"]["counters"]["serve.executed"]
          <= run["coalescing_off"]["counters"]["serve.executed"]),
    Claim("server", "both modes agree on every match count",
          lambda run: run["coalescing_on"]["counters"]["results_agree"] == 1),
    Claim("server", "speedup_effective_qps = qps on / qps off",
          lambda run: _ratio(
              run["coalescing_on"]["metrics"]["speedup_effective_qps"],
              run["coalescing_on"]["metrics"]["qps"],
              run["coalescing_off"]["metrics"]["qps"])),
    _positive("server", {"*": "total_requests serve.admitted seconds_total qps p50_ms "
                         "p99_ms", "coalescing_on": "serve.coalesced"}),
    # bench_parallel: query<i> per query, then overall.
    Claim("parallel", "speedup_source is measured or counted",
          lambda run: _each(run, lambda k, m, c:
                            k["speedup_source"] in ("measured", "counted"))),
    Claim("parallel", "a measured speedup ran on at least 4 CPUs",
          lambda run: all(r["key"]["speedup_source"] != "measured" or r["nproc"] >= 4
                          for r in run.values())),
    Claim("parallel", "one record per query",
          lambda run: len(_queries(run)) == run["overall"]["key"]["queries"]),
    Claim("parallel", "each query ran 1..chunks chunks, each timed and counted",
          lambda run: all(
              1 <= _chunks(r, "counters", "chunk_calls.")
              == _chunks(r, "metrics", "chunk_seconds.") <= r["key"]["chunks"]
              for r in _queries(run))),
    Claim("parallel", "each query has a 4-worker speedup above zero",
          lambda run: all(r["metrics"]["speedup_4"] > 0 for r in _queries(run))),
    Claim("parallel", "parallel embeddings are byte-identical to sequential",
          lambda run: _each(run, lambda k, m, c: c["embeddings_identical"] == 1)),
    Claim("parallel", f"overall 4-worker speedup >= {MIN_PARALLEL_SPEEDUP}",
          lambda run: run["overall"]["metrics"]["speedup_4"] >= MIN_PARALLEL_SPEEDUP),
    Claim("parallel", "no shared-memory segment leaked (shm_segments_leaked = 0)",
          _no_leaks("shm_segments_leaked")),
    _positive("parallel", {"query*": "sequential_seconds speedup_1 speedup_2 num_matches"}),
    # bench_storage: warm and out_of_core.
    Claim("storage", "mmap_overhead = mmap_seconds / in_memory_seconds",
          lambda run: _ratio(
              run["warm"]["metrics"]["mmap_overhead"],
              run["warm"]["metrics"]["mmap_seconds"],
              run["warm"]["metrics"]["in_memory_seconds"])),
    Claim("storage", f"mmap_overhead <= {MAX_MMAP_WARM_OVERHEAD}",
          lambda run: run["warm"]["metrics"]["mmap_overhead"] <= MAX_MMAP_WARM_OVERHEAD),
    Claim("storage", "the out-of-core arrays exceed the memory budget",
          lambda run: run["out_of_core"]["counters"]["array_bytes"]
          > run["out_of_core"]["counters"]["memory_budget_bytes"]),
    Claim("storage", "rss_ratio = mmap_peak_rss_bytes / in_memory_peak_rss_bytes",
          lambda run: _ratio(
              run["out_of_core"]["metrics"]["rss_ratio"],
              run["out_of_core"]["counters"]["mmap_peak_rss_bytes"],
              run["out_of_core"]["counters"]["in_memory_peak_rss_bytes"])),
    Claim("storage", f"rss_ratio <= {MAX_OUT_OF_CORE_RSS_RATIO}",
          lambda run: run["out_of_core"]["metrics"]["rss_ratio"]
          <= MAX_OUT_OF_CORE_RSS_RATIO),
    Claim("storage", "every backend returned identical results",
          lambda run: _each(run, lambda k, m, c: c["results_identical"] == 1)),
    Claim("storage", "nothing leaked",
          _no_leaks("shm_segments_leaked", "tempfiles_leaked")),
    _positive("storage", {"warm": "in_memory_seconds mmap_seconds shm_seconds "
                          "mmap_overhead shm_overhead",
                          "out_of_core": "data_vertices data_edges array_bytes "
                          "memory_budget_bytes in_memory_peak_rss_bytes "
                          "mmap_peak_rss_bytes rss_ratio"}),
    # bench_dynamic: one record, maintenance.
    Claim("dynamic", "churn_fraction <= 1",
          lambda run: _each(run, lambda k, m, c: k["churn_fraction"] <= 1)),
    Claim("dynamic", "speedup_incremental_vs_scratch = scratch / incremental seconds",
          lambda run: _each(run, lambda k, m, c: _ratio(
              m["speedup_incremental_vs_scratch"],
              m["scratch_seconds"], m["incremental_seconds"]))),
    Claim("dynamic", "speedup_counted = scratch_entries / incremental_entries",
          lambda run: _each(run, lambda k, m, c: _ratio(
              m["speedup_counted"], c["scratch_entries"], c["incremental_entries"]))),
    Claim("dynamic", f"speedup_counted >= {MIN_DYNAMIC_SPEEDUP}",
          lambda run: _each(run, lambda k, m, c:
                            m["speedup_counted"] >= MIN_DYNAMIC_SPEEDUP)),
    Claim("dynamic", "the incremental state and final match equal a rebuild's",
          lambda run: _each(run, lambda k, m, c: c["states_identical"] == 1
                            and c["final_match_identical"] == 1)),
    _positive("dynamic", {"maintenance": "data_vertices data_edges query_vertices "
                          "num_batches ops_total incremental_entries scratch_entries "
                          "incremental_seconds scratch_seconds "
                          "incremental_seconds_per_batch scratch_seconds_per_batch "
                          "speedup_incremental_vs_scratch speedup_counted"}),
    Claim("dynamic", "nothing leaked",
          _no_leaks("shm_segments_leaked", "tempfiles_leaked")),
)

#: The suites, in table order.
SUITES = tuple(dict.fromkeys(claim.suite for claim in CLAIMS))


def failures(records: List[dict]) -> List[Claim]:
    """The rows of the records' suite that one run's ``records`` break."""
    run = {r["name"]: r for r in records}
    failed = []
    for claim in CLAIMS:
        if claim.suite != records[0]["suite"]:
            continue
        try:
            holds = claim.holds(run)
        except (KeyError, TypeError, ZeroDivisionError):
            holds = False
        if not holds:
            failed.append(claim)
    return failed


def check(records: List[dict], suite: Optional[str] = None) -> None:
    """Raise :class:`TraceSchemaError` unless ``records`` are one run of
    one known suite (``suite`` if given) that holds every claim."""
    for r in records:
        validate_record(r)
    want = suite or (records[0]["suite"] if records else None)
    names = [r["name"] for r in records]
    if want not in SUITES or {r["suite"] for r in records} != {want}:
        raise TraceSchemaError(
            f"a run's records must all be of one known suite ({want!r} "
            f"expected, of {', '.join(SUITES)})"
        )
    if len(set(names)) != len(names):
        raise TraceSchemaError(f"a run writes each record name once: {names}")
    failed = failures(records)
    if failed:
        raise TraceSchemaError(
            f"{want} claims fail: " + "; ".join(c.text for c in failed)
        )


def load(path: Path) -> List[dict]:
    """The records of a JSON-lines file, in order."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def runs(records: List[dict]) -> Iterator[List[dict]]:
    """Split appended records into runs: a repeated name starts the next."""
    run: List[dict] = []
    for r in records:
        if any(r["name"] == seen["name"] for seen in run):
            yield run
            run = []
        run.append(r)
    if run:
        yield run


def main(argv: List[str]) -> int:
    for path in argv:
        checked = list(runs(load(Path(path))))
        if not checked:
            raise TraceSchemaError(f"{path} holds no records")
        for run in checked:
            check(run)
        suites = sorted({run[0]["suite"] for run in checked})
        print(f"{path}: {len(checked)} run(s) of {', '.join(suites)}; every claim holds")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
