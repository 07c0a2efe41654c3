"""Headline numbers in the documents are held to the checked-in records.

Each row names a document, the quoted text, and the record field it
quotes: the text must appear in the document, and the last run's field
must equal the quoted number up to the tolerance (a quoted range
``a–b`` must contain the field, widened by the tolerance). A number
that moves when the records are regenerated fails here until the prose
is restated. A row's id names what it holds, not the quoted text, so a
restatement keeps it: ``document/suite/record/field`` and ``range`` or
``point``.
"""

import re
from pathlib import Path

import pytest

import claims
import records

_REPO = Path(__file__).resolve().parents[2]

#: (document, quoted text, suite, record name, field, tolerance)
_QUOTES = [
    ("README.md", "26–41× over six runs", "dynamic", "maintenance",
     "speedup_incremental_vs_scratch", 0.5),
    ("README.md", "625× fewer", "dynamic", "maintenance", "speedup_counted", 0.5),
    ("README.md", "5.5× on", "session", "repeated_queries",
     "speedup_session_vs_one_shot", 0.05),
    ("README.md", "4.8–5.5× over six runs", "session", "repeated_queries",
     "speedup_session_vs_one_shot", 0.05),
    ("EXPERIMENTS.md", "**1.80×**", "server", "coalescing_on",
     "speedup_effective_qps", 0.005),
    ("EXPERIMENTS.md", "(69 executions", "server", "coalescing_on",
     "serve.executed", 0),
    ("EXPERIMENTS.md", "1.80–3.66× over six runs", "server", "coalescing_on",
     "speedup_effective_qps", 0.005),
    ("EXPERIMENTS.md", "**3.85×**", "parallel", "overall", "speedup_4", 0.005),
    ("EXPERIMENTS.md", "(3.97 /", "parallel", "query0", "speedup_4", 0.005),
    ("EXPERIMENTS.md", "/ 3.72 /", "parallel", "query1", "speedup_4", 0.005),
    ("EXPERIMENTS.md", "/ 3.84× per query", "parallel", "query2", "speedup_4", 0.005),
    ("EXPERIMENTS.md", "overhead **1.01×**", "storage", "warm", "mmap_overhead", 0.005),
    ("EXPERIMENTS.md", "ratio **0.42**", "storage", "out_of_core", "rss_ratio", 0.005),
    ("EXPERIMENTS.md", "26–41× over", "dynamic", "maintenance",
     "speedup_incremental_vs_scratch", 0.5),
    ("EXPERIMENTS.md", "**625×** in counted", "dynamic", "maintenance",
     "speedup_counted", 0.5),
]


_RANGE = re.compile(r"\d+(?:\.\d+)?–\d")


def _id(document, quoted, suite, name, field, tolerance):
    kind = "range" if _RANGE.search(quoted) else "point"
    return f"{document}/{suite}/{name}/{field}/{kind}"


_IDS = [_id(*row) for row in _QUOTES]


def test_row_ids_are_unique():
    assert len(set(_IDS)) == len(_IDS)


def _field(suite, name, field):
    *_, run = claims.runs(claims.load(records.RESULTS_DIR / f"{suite}.jsonl"))
    record = next(r for r in run if r["name"] == name)
    return {**record["metrics"], **record["counters"]}[field]


@pytest.mark.parametrize(
    "document, quoted, suite, name, field, tolerance", _QUOTES,
    ids=_IDS,
)
def test_quoted_number_matches_its_record(document, quoted, suite, name, field, tolerance):
    assert quoted in (_REPO / document).read_text(encoding="utf-8")
    numbers = [float(n) for n in re.findall(r"\d+(?:\.\d+)?", quoted)]
    low, high = min(numbers), max(numbers)
    value = _field(suite, name, field)
    assert low - tolerance <= value <= high + tolerance, (quoted, value)
