"""Socket-to-embeddings benchmark: four workloads, per-layer attribution.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

``--trace 0`` starts the real server, drives it over one connection in a
closed loop for S seconds and prints the end-to-end metrics; ``--trace 1``
replays the head of the same stream over the socket and in-process and
prints the per-layer metrics. Every reply is checked either way. Without
``--workload`` every workload runs in both modes. The last line of each
run is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import harness  # noqa: E402
import layers  # noqa: E402
from check import Checker  # noqa: E402
from workloads import SCALES, WORKLOADS, Inputs, generate, is_match  # noqa: E402

SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
#: Fresh start-ups per run; ``setup_s`` is their median.
STARTUPS = 3
#: ...but no new one begins once this much time went into them.
STARTUP_BUDGET_S = 10.0
#: Size of the yardstick requests timed around each start-up.
SETUP_YARDSTICK_UNITS = 250

Record = harness.Record


def header() -> Dict[str, Any]:
    """What every result is stamped with."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=HERE, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    return {
        "git_sha": sha or "unknown",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _judge(inputs: Inputs, records: List[Record]) -> Tuple[List[bool], List[str]]:
    checker = Checker(inputs)
    verdicts = [checker.judge(inputs.stream[i], reply) for i, _, reply in records]
    checker.save()
    return verdicts, checker.errors


def _is_match(inputs: Inputs, index: int) -> bool:
    return is_match(inputs.stream[index])


def end_to_end(inputs: Inputs, seconds: float, startups: int = STARTUPS) -> Dict[str, Any]:
    """The ``--trace 0`` run: the real server, tracing off."""
    add_graph = harness.add_graph_line(inputs)
    setups: List[float] = []
    spent = 0.0
    server = None
    with harness.Yardstick() as yardstick:
        try:
            while len(setups) < startups and (not setups or spent < STARTUP_BUDGET_S):
                if server is not None:
                    server.stop()
                before = yardstick.sample(SETUP_YARDSTICK_UNITS)
                server, took = harness.start(inputs, add_graph)
                around = before + yardstick.sample(SETUP_YARDSTICK_UNITS)
                setups.append(took * harness.speed(around, SETUP_YARDSTICK_UNITS))
                spent += took
            # A mutation script cannot wrap: its edges are already in the graph.
            slices = harness.measure(
                server, yardstick, inputs.stream, seconds, inputs.workload.yardstick_units,
                wrap=not inputs.workload.dynamic,
            )
            rss = server.peak_rss_mb()
        finally:
            if server is not None:
                server.stop()
    records = [record for piece in slices for record in piece.records]
    verdicts, errors = _judge(inputs, records)
    # Round trips and elapsed time at the speed at which the yardstick takes
    # its nominal time (harness.Slice.speed), slice by slice.
    matches = [
        rtt * piece.speed * 1000.0
        for piece in slices for i, rtt, _ in piece.records if _is_match(inputs, i)
    ]
    elapsed = sum(piece.seconds * piece.speed for piece in slices)
    wall = sum(piece.seconds for piece in slices)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_rps": sum(verdicts) / elapsed,
        "latency_p50_ms": float(np.percentile(matches, 50)),
        "latency_p90_ms": float(np.percentile(matches, 90)),
        "peak_rss_mb": rss,
    }
    return {
        "attempted": len(records), "failed": len(records) - sum(verdicts), "errors": errors,
        "metrics": metrics,
        "samples": {
            "setup_s": len(setups), "latency": len(matches), "timed_s": wall,
            "box_speed": elapsed / wall, "uncalibrated_rps": len(records) / wall,
        },
    }


def _mutate_metrics(inputs: Inputs, records: List[Record]) -> Dict[str, float]:
    """Round trip of ``mutate``, and of ``mutate`` plus the match after it."""
    mutate, visible = [], []
    for (i, rtt, _), following in zip(records, records[1:] + [None]):
        if not _is_match(inputs, i):
            mutate.append(rtt * 1000.0)
            if following is not None:
                visible.append((rtt + following[1]) * 1000.0)
    return {
        "mutate_latency_p50_ms": statistics.median(mutate) if mutate else 0.0,
        "mutate_then_match_p50_ms": statistics.median(visible) if visible else 0.0,
    }


def per_layer(inputs: Inputs, trace_out: Optional[Path]) -> Dict[str, Any]:
    """The ``--trace 1`` run: the stream's head over the socket, then in-process."""
    ops = inputs.workload.trace_ops
    server, _ = harness.start(inputs, harness.add_graph_line(inputs))
    with server:
        records, _ = harness.drive(server, inputs.stream, max_ops=ops)
    verdicts, errors = _judge(inputs, records)
    outside_service = [
        rtt - json.loads(reply)["total_ms"] / 1000.0
        for (i, rtt, reply), ok in zip(records, verdicts)
        if ok and _is_match(inputs, i)
    ]
    wire = (
        statistics.fmean(len(inputs.stream[i]) for i, _, _ in records),
        statistics.fmean(len(reply or b"") for _, _, reply in records),
    )
    metrics, spans = layers.trace(inputs, outside_service, wire)
    metrics.update(_mutate_metrics(inputs, records))
    if trace_out is not None:
        with open(trace_out, "w", encoding="utf-8") as fh:
            for row in spans:
                fh.write(json.dumps(row) + "\n")
    return {
        "attempted": len(records), "failed": len(records) - sum(verdicts), "errors": errors,
        "metrics": metrics, "samples": {"requests": len(records), "spans": len(spans)},
    }


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: int,
    trace_out: Optional[Path] = None,
    scale: str = "full",
) -> Dict[str, Any]:
    """One run of one workload; the dict behind the final JSON line."""
    began = time.perf_counter()
    inputs = generate(workload, seed, scale)
    generated = time.perf_counter() - began
    if trace:
        result = per_layer(inputs, trace_out)
    else:
        result = end_to_end(inputs, seconds, STARTUPS if scale == "full" else 1)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    assert set(units) == set(result["metrics"]), set(units) ^ set(result["metrics"])
    result.update(
        workload=workload, seed=seed, trace=trace, correct=result["failed"] == 0,
        metrics={k: {"value": result["metrics"][k], "unit": units[k]} for k in units},
    )
    result["samples"]["generate_s"] = generated
    return result


def report(result: Dict[str, Any]) -> None:
    """Every metric by name with its unit, then the contract's JSON line."""
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"samples={json.dumps(result['samples'])}")
    for name, metric in result["metrics"].items():
        print(f"{name:36s} {metric['value']:14.4f} {metric['unit']}")
    for error in result["errors"][:10]:
        print(f"! {error}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload and mode")
    parser.add_argument("--scale", choices=sorted(SCALES), default="full",
                        help="smoke: tiny inputs, for test_selftest.py")
    parser.add_argument("--out", type=Path, help="write every run here (compare.py reads it)")
    parser.add_argument("--trace-out", type=Path, help="write the traced run's spans (JSON lines)")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else [w["name"] for w in SPEC["workloads"]]
    modes = [args.trace] if args.trace is not None else [0, 1]
    harness.pin_caller()
    stamp = header()
    print("# " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    runs = []
    for name in names:
        for mode in modes:
            for _ in range(args.repeat):
                result = run(name, args.seed, args.seconds, mode, args.trace_out, args.scale)
                report(result)
                runs.append(result)
    if args.out is not None:
        args.out.write_text(json.dumps({"header": stamp, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
