"""The one writer of benchmark records.

Every ``bench_<suite>.py`` main measures one run and hands the run's
records to :func:`main`, which parses the bench's flags, checks the
records against the record contract and the suite's claims
(``claims.py``), appends them as JSON lines to
``benchmarks/results/<suite>.jsonl`` (or ``--output``) and prints them.
A record is ``{suite, name, key, sha, nproc, metrics, counters}``; see
:mod:`repro.obs.schema` for the contract.

The leak probes live here too: :func:`open_entries` before a run and
:func:`leaks_since` after it count the ``/dev/shm`` segments and
``repro-`` tempdir entries the run left behind.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import claims

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=RESULTS_DIR.parent.parent,
        capture_output=True, text=True, check=True,
    ).stdout.strip()


@functools.lru_cache(maxsize=None)
def head_sha() -> Optional[str]:
    """``git rev-parse HEAD`` of this checkout, or None outside one or
    when a tracked file other than a record file differs from HEAD (the
    run did not measure that commit)."""
    try:
        dirty = _git("status", "--porcelain", "--untracked-files=no", "--",
                     ".", ":(exclude)benchmarks/results")
        return None if dirty else _git("rev-parse", "HEAD") or None
    except (OSError, subprocess.CalledProcessError):
        return None


def record(
    suite: str,
    name: str,
    key: Mapping[str, object],
    metrics: Mapping[str, float],
    counters: Mapping[str, int] = (),
) -> Dict[str, object]:
    """One record of ``suite``, stamped with this checkout and host."""
    return {
        "suite": suite,
        "name": name,
        "key": dict(key),
        "sha": head_sha(),
        "nproc": os.cpu_count() or 1,
        "metrics": dict(metrics),
        "counters": dict(counters),
    }


#: The prefix of every tempdir entry this package and its benches make;
#: the probes count only those, so other processes' files are not leaks.
TEMP_PREFIX = "repro-"


def _entries(directory: str) -> set:
    try:
        return set(os.listdir(directory))
    except OSError:  # e.g. no /dev/shm outside Linux
        return set()


def open_entries() -> Tuple[set, set]:
    """The ``/dev/shm`` segments and ``repro-`` tempdir entries that
    exist now."""
    temp = {n for n in _entries(tempfile.gettempdir()) if n.startswith(TEMP_PREFIX)}
    return _entries("/dev/shm"), temp


def leaks_since(before: Tuple[set, set]) -> Dict[str, int]:
    """Counters of the entries made since :func:`open_entries` returned
    ``before`` that are still there."""
    shm, temp = open_entries()
    return {
        "shm_segments_leaked": len(shm - before[0]),
        "tempfiles_leaked": len(temp - before[1]),
    }


def append(records: List[Dict[str, object]], path: Path) -> str:
    """Append ``records`` to ``path`` as JSON lines; returns the lines."""
    text = "".join(json.dumps(r) + "\n" for r in records)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as fh:
        fh.write(text)
    return text


def main(
    suite: str,
    run: Callable[..., List[Dict[str, object]]],
    parser: argparse.ArgumentParser,
    argv: Optional[List[str]] = None,
) -> int:
    """Run a bench from its flags; check, append and print its records.

    Every flag of ``parser`` is a keyword of ``run``.
    """
    parser.add_argument(
        "--output", type=Path, default=RESULTS_DIR / f"{suite}.jsonl",
        help="JSON-lines file the records are appended to",
    )
    params = vars(parser.parse_args(argv))
    out = params.pop("output")
    records = run(**params)
    claims.check(records, suite)
    print(append(records, out), end="")
    print(f"appended {len(records)} records to {out.resolve()}", file=sys.stderr)
    return 0
