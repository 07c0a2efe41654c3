"""Study harness: datasets, workloads, runner and reporting.

Everything the paper's experiment section needs that is not an algorithm:
the eight dataset stand-ins of Table 3, the query workloads of Table 4,
the per-query metric collection of Section 4, and plain-text table/series
formatting for the benchmark output.
"""

from repro.study.datasets import (
    DATASETS,
    DatasetSpec,
    friendster_standin,
    load_dataset,
)
from repro.study.experiments import (
    FilterReport,
    SpectrumReport,
    compare_algorithms,
    compare_filters,
    default_study_filters,
    order_spectrum,
    time_order,
)
from repro.study.parallel import run_algorithm_on_set_parallel
from repro.study.runner import QueryRecord, RunSummary, run_algorithm_on_set
from repro.study.workloads import (
    QuerySet,
    build_query_set,
    build_workload,
    default_query_sizes,
)
from repro.study.reporting import format_series, format_table

__all__ = [
    "DATASETS",
    "DatasetSpec",
    "load_dataset",
    "friendster_standin",
    "QuerySet",
    "build_query_set",
    "build_workload",
    "default_query_sizes",
    "QueryRecord",
    "RunSummary",
    "run_algorithm_on_set",
    "run_algorithm_on_set_parallel",
    "FilterReport",
    "SpectrumReport",
    "compare_filters",
    "compare_algorithms",
    "order_spectrum",
    "time_order",
    "default_study_filters",
    "format_table",
    "format_series",
]
