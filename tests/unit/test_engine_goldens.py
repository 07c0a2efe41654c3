"""Replay of the engine golden table (``tests/corpus/engine_goldens.json``).

Each row pins what one seeded ``(graph, query, preset, limits, root
window)`` case produced — ``num_matches``, ``solved``, a sha256 of the
stored embeddings (order included) and all five ``EnumerationStats``
counters — so the frame machine's exactness no longer rests on a second
engine being kept alive to compare against.

The table was generated from the commit *before* the candidate-space
rewrite of ``frames.py``; regenerate (only when an intended behaviour
change re-bases it) with the engine you trust on the path::

    PYTHONPATH=src python tests/unit/test_engine_goldens.py --write
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Iterator, List, Optional

import pytest

from repro.core.algorithms import PRESETS
from repro.core.plan import compile_plan, run_plan
from repro.core.registry import PresetDef, build_spec
from repro.graph import extract_query, rmat_graph

GOLDENS = Path(__file__).resolve().parent.parent / "corpus" / "engine_goldens.json"
SCHEMA = "repro.engine-goldens/v1"

#: "all" in the table: unlimited matches, every embedding stored.
STORE_ALL = 10**9
LIMIT_SHAPES = ((None, STORE_ALL), (7, 100), (50, 0), (1, 1))

#: RMAT data graphs. The single-label one makes injectivity conflicts
#: common; it is only ever run under a match cap.
GRAPHS = (
    dict(num_vertices=400, average_degree=6.0, num_labels=2, seed=11, clustering=0.2),
    dict(num_vertices=500, average_degree=8.0, num_labels=4, seed=12, clustering=0.2),
    dict(num_vertices=300, average_degree=10.0, num_labels=3, seed=13, clustering=0.3),
    dict(num_vertices=300, average_degree=8.0, num_labels=1, seed=14, clustering=0.2),
)
SINGLE_LABEL = 3


def _presets() -> List[Dict]:
    """ALG2/3/4/5 × static/adaptive × failing sets on/off, as PresetDef rows."""
    rows = [asdict(PRESETS[name]) for name in (
        "QSI", "RI", "2PP", "GQL", "CFL",                        # ALG2/3/4
        "CECI", "GQL-opt", "RI-opt", "CFL-opt", "QSI-opt-ldf",   # ALG5 static
        "GQLfs", "RIfs", "CECIfs", "CFLfs",
        "DP", "DPfs",                                            # ALG5 adaptive
    )]
    for base in ("QSI", "GQL", "CFL"):
        rows.append(asdict(PRESETS[base].with_failing_sets(base + "+fs")))
    adaptive_scan = PresetDef(
        name="DP/ALG3", filter="DP", ordering="DP", lc="ALG3", adaptive=True
    )
    rows.append(asdict(adaptive_scan))
    rows.append(asdict(adaptive_scan.with_failing_sets("DP/ALG3+fs")))
    return rows


@functools.lru_cache(maxsize=None)
def _data_graph(params: tuple):
    return rmat_graph(**dict(params))


def run_case(case: Dict, with_roots: bool = False) -> Dict:
    """Execute one table row's inputs; returns the fields the row pins."""
    data = _data_graph(tuple(sorted(case["graph"].items())))
    query = extract_query(data, case["query"]["size"], seed=case["query"]["seed"])
    spec = build_spec(PresetDef(**case["preset"]))
    plan = compile_plan(spec, query, data, kernel=case["kernel"])
    window = case["root_window"]
    result, prepared = run_plan(
        plan,
        query,
        data,
        match_limit=case["match_limit"],
        store_limit=case["store_limit"],
        root_window=tuple(window) if window is not None else None,
    )
    rows = json.dumps([list(e) for e in result.embeddings], separators=(",", ":"))
    out = {
        "num_matches": result.num_matches,
        "solved": result.solved,
        "embeddings_sha256": hashlib.sha256(rows.encode()).hexdigest(),
        "stats": asdict(result.stats),
    }
    if with_roots:
        out["roots"] = (
            prepared.candidates.size(prepared.order[0])
            if prepared.candidates is not None and prepared.order is not None
            else None
        )
    return out


#: An unlimited case must finish quickly: its query seed is advanced until
#: the full enumeration holds at most this many matches.
UNLIMITED_CAP = 5_000


def _bounded(case: Dict) -> Dict:
    """``case`` with its query seed advanced until the full run is small."""
    while True:
        probe = {**case, "match_limit": UNLIMITED_CAP + 1, "store_limit": 0}
        if run_case(probe)["num_matches"] <= UNLIMITED_CAP:
            return case
        query = case["query"]
        case = {**case, "query": {**query, "seed": query["seed"] + 1000}}


def _cases() -> Iterator[Dict]:
    """The generation grid (inputs only). Rotations keep it near 150 rows."""
    presets = _presets()
    kernels = (None, None, "numpy", "scalar")
    serial = 0
    for p, preset in enumerate(presets):
        for s, (match_limit, store_limit) in enumerate(LIMIT_SHAPES):
            serial += 1
            unlimited = match_limit is None
            g = (p + s) % (len(GRAPHS) - 1) if unlimited else (p + s) % len(GRAPHS)
            case = {
                "graph": GRAPHS[g],
                "query": {"size": 4 + (p + 2 * s) % 4 + (0 if unlimited else 1),
                          "seed": 100 + serial},
                "preset": preset,
                "kernel": kernels[serial % 4] if preset["lc"] == "ALG5" else None,
                "match_limit": match_limit,
                "store_limit": store_limit,
                "root_window": None,
            }
            yield _bounded(case) if unlimited else case
    # Root windows: two splits of the root candidates per static preset
    # with materialised candidates, at positions that are not byte
    # aligned. Windows of one split concatenate to the unsplit run.
    for p, preset in enumerate(presets):
        if preset["adaptive"] or preset["filter"] is None:
            continue
        match_limit, store_limit = LIMIT_SHAPES[p % 2 * 2]  # (None, all) / (50, 0)
        base = {
            "graph": GRAPHS[p % (len(GRAPHS) - 1)],
            "query": {"size": 5 + p % 3, "seed": 300 + p},
            "preset": preset,
            "kernel": None,
            "match_limit": match_limit,
            "store_limit": store_limit,
            "root_window": None,
        }
        if match_limit is None:
            base = _bounded(base)
        roots = run_case(base, with_roots=True)["roots"]
        for cut in (roots // 3 + 1, (2 * roots) // 3 + 1):
            cut = min(max(cut, 1), roots)
            yield {**base, "root_window": [0, cut]}
            yield {**base, "root_window": [cut, roots]}
    # Failing sets where they bite: large queries on the single-label
    # graph, where conflict classes and empty-LC classes both prune.
    for p, preset in enumerate(presets):
        if not preset["failing_sets"]:
            continue
        for size in (8, 10):
            yield {
                "graph": GRAPHS[SINGLE_LABEL],
                "query": {"size": size, "seed": 500 + p},
                "preset": preset,
                "kernel": None,
                "match_limit": 50,
                "store_limit": 0,
                "root_window": None,
            }


def _write() -> None:
    rows = []
    for case in _cases():
        rows.append({**case, "expected": run_case(case)})
    payload = {"schema": SCHEMA, "cases": rows}
    GOLDENS.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(rows)} cases to {GOLDENS}")


def _load() -> List[Dict]:
    payload = json.loads(GOLDENS.read_text())
    assert payload["schema"] == SCHEMA
    return payload["cases"]


def _case_id(case: Dict) -> str:
    window: Optional[List[int]] = case["root_window"]
    return "{}-g{}q{}-{}-{}/{}{}".format(
        case["preset"]["name"],
        case["graph"]["seed"],
        case["query"]["seed"],
        case["kernel"] or "auto",
        case["match_limit"],
        "all" if case["store_limit"] == STORE_ALL else case["store_limit"],
        "-w{}:{}".format(*window) if window else "",
    )


@pytest.mark.parametrize("case", _load() if GOLDENS.exists() else [], ids=_case_id)
def test_golden_case(case):
    assert run_case(case) == case["expected"]


def test_table_covers_the_axes():
    cases = _load()
    assert len(cases) >= 140
    assert {c["preset"]["lc"] for c in cases} >= {"ALG2", "2PP-LC", "ALG3", "ALG4", "ALG5"}
    assert {c["preset"]["adaptive"] for c in cases} == {True, False}
    assert {c["preset"]["failing_sets"] for c in cases} == {True, False}
    assert {(c["match_limit"], c["store_limit"]) for c in cases} == set(LIMIT_SHAPES)
    assert sum(c["root_window"] is not None for c in cases) >= 40
    # The table must exercise the counters it pins, not just zeros.
    assert sum(c["expected"]["stats"]["conflicts"] > 0 for c in cases) >= 30
    assert sum(c["expected"]["stats"]["failing_set_prunes"] > 0 for c in cases) >= 5
    assert sum(c["expected"]["stats"]["adaptive_lc_reused"] > 0 for c in cases) >= 3


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    _write()
