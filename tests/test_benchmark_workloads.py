"""Every benchmark workload passes its own gate from a cold start, and
again warm in the same process.

``perfbench/worker.run_child`` runs a workload's cold pass, compares the
digests of what it built (T^(j), the vertex components, the Toda taus) with
``perfbench/reference.json`` and then runs the warm pass, which reads every
cache the cold pass filled; a FAIL verdict in either pass or a moved digest
counts as a failure.  Running it here makes such a change, or a cached build
that a caller wrote into, fail the test suite.  The benchmark files are only
read.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import worker  # noqa: E402


@pytest.mark.parametrize("workload", worker.WORKLOADS)
def test_cold_workload_matches_reference(workload, fresh_caches):
    result = worker.run_child(workload, 0)
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] > 0
    assert result["warm_s"] > 0
