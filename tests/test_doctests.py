"""Run the doctests embedded in public-module docstrings.

The usage examples in docstrings are part of the documentation deliverable;
this keeps them honest.
"""

import doctest

import pytest

import repro.analysis.streaming
import repro.baselines.csv_baseline
import repro.core.bucket_queue
import repro.core.community
import repro.core.dynamic
import repro.core.hierarchy
import repro.core.kcore
import repro.core.local
import repro.core.maxcore
import repro.core.triangle_kcore
import repro.graph.edge
import repro.graph.triangles
import repro.graph.undirected
import repro.viz.report

MODULES = [
    repro.analysis.streaming,
    repro.baselines.csv_baseline,
    repro.core.bucket_queue,
    repro.core.community,
    repro.core.dynamic,
    repro.core.hierarchy,
    repro.core.kcore,
    repro.core.local,
    repro.core.maxcore,
    repro.core.triangle_kcore,
    repro.graph.edge,
    repro.graph.triangles,
    repro.graph.undirected,
    repro.viz.report,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures"
    assert results.attempted > 0, f"{module.__name__} has no doctests"
