"""Run the doctest examples embedded in public docstrings.

Keeps every ``>>>`` block in the documentation honest.
"""

import doctest

import pytest

import repro.core.api
import repro.core.verify
import repro.enumeration.streaming
import repro.extensions.compression
import repro.filtering.graphql
import repro.graph.fingerprint
import repro.graph.graph
import repro.graph.io
import repro.study.reporting
import repro.utils.kernels
import repro.utils.timer
import repro.applications.containment

MODULES = [
    repro.graph.graph,
    repro.graph.fingerprint,
    repro.graph.io,
    repro.utils.kernels,
    repro.utils.timer,
    repro.filtering.graphql,
    repro.core.api,
    repro.core.verify,
    repro.enumeration.streaming,
    repro.extensions.compression,
    repro.applications.containment,
    repro.study.reporting,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests_pass(module):
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0, f"{module.__name__}: {result.failed} doctest failures"
    assert result.attempted > 0, f"{module.__name__} has no doctests to run"
