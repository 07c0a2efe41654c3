"""Compare two run sets written by ``run.py --repeat K --out FILE``.

    python3 benchmarks/e2e/compare.py A.json B.json

One row per workload x end-to-end metric: both medians, B as a ratio of
its base A, the wider of the two run-to-run spreads, and a verdict against
the metric's bound in BENCHMARK.json. ``regressed``: B's median is worse
than A's by more than the bound. ``unresolved``: the spread is wider than
the bound, so the medians cannot be told apart, unless every run of B
reads better than every run of A. Exit status 1 when any row regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text(encoding="utf-8")
)


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(a: List[float], b: List[float], better: str, bound: float) -> Tuple[str, float, float]:
    """(``ok`` | ``regressed`` | ``unresolved``, B/A ratio, spread)."""
    sign = 1.0 if better == "lower" else -1.0
    base, new = statistics.median(a), statistics.median(b)
    worse_by = sign * (new - base) / abs(base)
    noise = max(spread(a), spread(b))
    all_better = max(sign * x for x in b) < min(sign * x for x in a)
    all_worse = min(sign * x for x in b) > max(sign * x for x in a)
    if noise > bound and not all_better and not (all_worse and worse_by > bound):
        return "unresolved", new / base, noise
    return ("regressed" if worse_by > bound else "ok"), new / base, noise


def _by_workload(path: Path) -> Dict[str, List[Dict[str, Any]]]:
    runs: Dict[str, List[Dict[str, Any]]] = {}
    for run in json.loads(path.read_text(encoding="utf-8"))["runs"]:
        if not run["trace"]:
            runs.setdefault(run["workload"], []).append(run)
    return runs


def compare(path_a: Path, path_b: Path) -> List[Tuple[str, str, float, float, float, float, str]]:
    """Rows of (workload, metric, A median, B median, B/A, spread, verdict)."""
    runs_a, runs_b = _by_workload(path_a), _by_workload(path_b)
    rows = []
    for workload in runs_a:
        if workload not in runs_b:
            continue
        for metric in SPEC["end_to_end"]:
            a, b = (
                [run["metrics"][metric["name"]]["value"] for run in runs[workload]]
                for runs in (runs_a, runs_b)
            )
            word, ratio, noise = verdict(a, b, metric["better"], metric["bound"])
            rows.append(
                (workload, metric["name"], statistics.median(a), statistics.median(b), ratio, noise, word)
            )
        # Any increase in the share of failed operations is a regression.
        a, b = (
            sum(r["failed"] for r in runs[workload]) / sum(r["attempted"] for r in runs[workload])
            for runs in (runs_a, runs_b)
        )
        rows.append(
            (workload, "failed_share", a, b, b / a if a else float(b > 0), 0.0,
             "regressed" if b > a else "ok")
        )
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    rows = compare(Path(argv[0]), Path(argv[1]))
    print(f"{'workload':14s} {'metric':16s} {'A median':>12s} {'B median':>12s} "
          f"{'B/A':>7s} {'spread':>7s}  verdict")
    for workload, metric, a, b, ratio, noise, word in rows:
        print(f"{workload:14s} {metric:16s} {a:12.4f} {b:12.4f} {ratio:7.3f} {noise:7.3f}  {word}")
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
