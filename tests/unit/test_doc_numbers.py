"""Headline numbers in the documents are held to the checked-in records.

Each row names a document, the quoted text, and the record field it
quotes: the text must appear in the document, and the last run's field
must equal the quoted number up to the tolerance (a quoted range
``a–b`` must contain the field, widened by the tolerance). A number
that moves when the records are regenerated fails here until the prose
is restated.
"""

import re
from pathlib import Path

import pytest

import claims
import records

_REPO = Path(__file__).resolve().parents[2]

#: (document, quoted text, suite, record name, field, tolerance)
_QUOTES = [
    ("README.md", "rebuild 40× in wall", "dynamic", "maintenance",
     "speedup_incremental_vs_scratch", 0.5),
    ("README.md", "38–40× over five runs", "dynamic", "maintenance",
     "speedup_incremental_vs_scratch", 0.5),
    ("README.md", "625× fewer", "dynamic", "maintenance", "speedup_counted", 0.5),
    ("README.md", "5.1× on", "session", "repeated_queries",
     "speedup_session_vs_one_shot", 0.05),
    ("README.md", "5.1–5.6× over five runs", "session", "repeated_queries",
     "speedup_session_vs_one_shot", 0.05),
    ("EXPERIMENTS.md", "**2.27×**", "server", "coalescing_on",
     "speedup_effective_qps", 0.005),
    ("EXPERIMENTS.md", "(91 executions", "server", "coalescing_on",
     "serve.executed", 0),
    ("EXPERIMENTS.md", "2.18–2.61× over five runs", "server", "coalescing_on",
     "speedup_effective_qps", 0.005),
    ("EXPERIMENTS.md", "**3.85×**", "parallel", "overall", "speedup_4", 0.005),
    ("EXPERIMENTS.md", "(3.97 /", "parallel", "query0", "speedup_4", 0.005),
    ("EXPERIMENTS.md", "/ 3.72 /", "parallel", "query1", "speedup_4", 0.005),
    ("EXPERIMENTS.md", "/ 3.84× per query", "parallel", "query2", "speedup_4", 0.005),
    ("EXPERIMENTS.md", "overhead **1.01×**", "storage", "warm", "mmap_overhead", 0.005),
    ("EXPERIMENTS.md", "ratio **0.42**", "storage", "out_of_core", "rss_ratio", 0.005),
    ("EXPERIMENTS.md", "**40×** in wall", "dynamic", "maintenance",
     "speedup_incremental_vs_scratch", 0.5),
    ("EXPERIMENTS.md", "38–40× over", "dynamic", "maintenance",
     "speedup_incremental_vs_scratch", 0.5),
    ("EXPERIMENTS.md", "**625×** in counted", "dynamic", "maintenance",
     "speedup_counted", 0.5),
]


def _field(suite, name, field):
    *_, run = claims.runs(claims.load(records.RESULTS_DIR / f"{suite}.jsonl"))
    record = next(r for r in run if r["name"] == name)
    return {**record["metrics"], **record["counters"]}[field]


@pytest.mark.parametrize(
    "document, quoted, suite, name, field, tolerance", _QUOTES,
    ids=[f"{row[0]}: {row[1]}" for row in _QUOTES],
)
def test_quoted_number_matches_its_record(document, quoted, suite, name, field, tolerance):
    assert quoted in (_REPO / document).read_text(encoding="utf-8")
    numbers = [float(n) for n in re.findall(r"\d+(?:\.\d+)?", quoted)]
    low, high = min(numbers), max(numbers)
    value = _field(suite, name, field)
    assert low - tolerance <= value <= high + tolerance, (quoted, value)
