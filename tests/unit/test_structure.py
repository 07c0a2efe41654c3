"""Structure gates: one way to do each thing, held by grep.

Each row names a decision the code made once — one record writer, one
row path, one race, one home for the paper's default limits, … — and
the grep pattern whose matches would mean a second way came back. A row
is ``(name, pattern, paths, allowed)``: ``grep`` runs ``pattern``
(basic regular expressions unless the row's flags say ``-E``) over each
path, recursively; a path ``FILE:ADDRESS`` searches only the lines the
``sed`` address selects, and a path with a wildcard is a glob from the
repository root. Every match must lie in a file ``allowed`` names, and
a count there means that file holds exactly that many matching lines.
A row with an empty pattern says its paths must not exist.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from typing import Mapping, NamedTuple, Optional, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[2]

_BENCHES = tuple(
    f"benchmarks/bench_{suite}.py"
    for suite in ("kernels", "session", "server", "parallel", "storage", "dynamic")
)


class Gate(NamedTuple):
    name: str
    pattern: str
    paths: Tuple[str, ...]
    #: file -> how many matching lines it holds (``None``: any number).
    allowed: Mapping[str, Optional[int]] = {}
    #: grep flags beside the recursive line-numbered search.
    flags: Tuple[str, ...] = ()


GATES = [
    # One benchmark record: no root BENCH_*.json, no per-bench validator
    # or schema version, and records.py the one writer.
    Gate("no root BENCH_*.json", "", ("BENCH_*.json",)),
    Gate("no per-bench validator or schema version",
         r"validate_bench_|BENCH_[A-Z]+_SCHEMA_VERSION", ("src/repro",), flags=("-E",)),
    Gate("benches write through records.py only",
         r"json\.dump\(|write_text\(", _BENCHES, flags=("-E",)),
    # Generated code in one place.
    Gate("exec and compile only in enumeration/compiled.py",
         r"\bexec\(|(^|[^.[:alnum:]_])compile\(", ("src/repro",),
         {"src/repro/enumeration/compiled.py": None}, ("-E", "--include=*.py")),
    Gate("one row path (no eager pack, no batch build_rows)",
         r"def pack(\|RowsKernel\.pack(\|build_rows", ("src/repro",)),
    Gate("one search for NEC (no private loop in query compression)",
         r"combinations(\|Deadline\|BudgetExceeded", ("src/repro/extensions/compression.py",)),
    Gate("one frame form (no list frames, no |V(G)| arrays per machine)",
         r"_VisitedView\|ctx\.used\|_on_rows\|np\.zeros(data\.num_vertices",
         ("src/repro/enumeration/",)),
    # One form per rule.
    Gate("no scalar NLF loop", "nlf_check(", ("src/repro",),
         {"src/repro/filtering/base.py": None, "src/repro/dynamic/incremental.py": 1}),
    Gate("no inline LDF copy", r"degrees\[.*\] >= \|\.degrees >= ", ("src/repro",),
         {"src/repro/filtering/base.py": None, "src/repro/filtering/_common.py": None}),
    Gate("one label recount, in the column build",
         r"_count_labels(\|reduceat(.*== *label", ("src/repro",),
         {"src/repro/graph/graph.py": None}),
    Gate("one label recount function", "^def _count_labels(",
         ("src/repro/graph/graph.py",), {"src/repro/graph/graph.py": 1}),
    Gate("the NLF seed reads the columns and reduces nothing itself",
         r"reduceat\|_gather_neighbors",
         ("src/repro/filtering/_common.py:/^def nlf_keep/,/^def /",)),
    # One gather per GraphQL sweep, translation tables per same-label pair.
    Gate("no per-vertex anchor gather", "anchor_masks", ("src/repro",)),
    Gate("no pairwise intersect1d for translation tables", "np.intersect1d",
         ("src/repro/filtering/candidates.py",)),
    Gate("no sort over all the candidate sets", "_overlapping_pairs", ("src/repro",)),
    Gate("no argsort in the candidate container", "argsort",
         ("src/repro/filtering/candidates.py",)),
    Gate("GraphQL gathers neighbor slices once", "_gather_neighbors(",
         ("src/repro/filtering/graphql.py",), {"src/repro/filtering/graphql.py": 1}),
    Gate("GraphQL gathers in its sweep", "_gather_neighbors(",
         ("src/repro/filtering/graphql.py:/def _global_refinement/,$",),
         {"src/repro/filtering/graphql.py": 1}),
    # The auxiliary structure allocates by candidates: positions in C(u')
    # by binary search, not through a |V(G)| scratch.
    Gate("no |V(G)|-sized scratch in the auxiliary structure",
         r"np\.full(\|num_vertices\|offsets\.size", ("src/repro/filtering/auxiliary.py",)),
    Gate("one race (no second race entry point, no raced copy of a prepared query)",
         r"race_repeated\|raced:", ("src/repro",)),
    Gate("one dynamic graph (no compaction knob, no overlay-derived oracle, "
         "no second dirty set)",
         r"compact_threshold\|def compact(\|labels_list\|_dirty", ("src/repro",)),
    # One staleness rule: NLF columns and label-pair slices are handed to
    # a spliced snapshot by one method and go stale by the same stamps.
    Gate("one inherit method for neighbour-label facts",
         r"_inherit_label_counts\|_inherit_slices\|_StaleColumn", ("src/repro",)),
    # One kernel knob: the request names the backend, by registry name;
    # no environment fallback and no backend held by a ComputeLC method.
    Gate("no kernel environment fallback or spec-held kernel",
         r"REPRO_KERNEL\|uses_default_kernel", ("src/repro",)),
    Gate("no ComputeLC constructed with a kernel",
         r"IntersectionLC(kernel", ("src/repro", "benchmarks")),
    # One request: the paper's default limits are spelled in their
    # constants only (the number format is not an option).
    Gate("the default match and store limits are spelled once",
         r"(=|default=) ?100_000|= ?10_000", ("src/repro",),
         {"src/repro/enumeration/support.py": 2, "src/repro/study/reporting.py": 1},
         ("-E",)),
]


def _grep(args, stdin=None):
    done = subprocess.run(
        ["grep", "-I", *args], cwd=ROOT, input=stdin, capture_output=True, text=True
    )
    assert done.returncode in (0, 1), done.stderr
    return done.stdout.splitlines()


def _matches(gate: Gate):
    """``(file, grep line)`` of every match of the row."""
    found = []
    for spec in gate.paths:
        if "*" in spec:
            files = sorted(p.relative_to(ROOT).as_posix() for p in ROOT.glob(spec))
            if not gate.pattern:
                found += [(f, f) for f in files]
                continue
        else:
            files = [spec]
        for path in files:
            path, _, address = path.partition(":")
            if address:
                section = subprocess.run(
                    ["sed", "-n", f"{address}p", path],
                    cwd=ROOT, capture_output=True, text=True, check=True,
                ).stdout
                lines = _grep([*gate.flags, "-n", "-e", gate.pattern], section)
                found += [(path, f"{spec}:{line}") for line in lines]
            else:
                lines = _grep([*gate.flags, "-rnH", "-e", gate.pattern, path])
                found += [(line.split(":", 1)[0], line) for line in lines]
    return found


@pytest.mark.parametrize("gate", GATES, ids=[gate.name for gate in GATES])
def test_one_way(gate):
    found = _matches(gate)
    stray = [line for path, line in found if path not in gate.allowed]
    assert not stray, "\n".join(stray)
    for path, count in gate.allowed.items():
        if count is not None:
            held = [line for where, line in found if where == path]
            assert len(held) == count, "\n".join(held) or f"{path}: no match"


def test_serving_does_not_import_asyncio():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.serve, repro.cli; assert 'asyncio' not in sys.modules"],
        env=env, check=True,
    )
