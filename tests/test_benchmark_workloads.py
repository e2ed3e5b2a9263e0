"""Every benchmark workload passes its own gate from a cold start.

``perfbench/worker.run_child`` runs a workload's cold pass and compares the
digests of what it built (T^(j), the vertex components, the Toda taus) with
``perfbench/reference.json``; a FAIL verdict or a moved digest counts as a
failure.  Running it here makes such a change fail the test suite.  The
benchmark files are only read.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import worker  # noqa: E402


@pytest.mark.parametrize("workload", worker.WORKLOADS)
def test_cold_workload_matches_reference(workload, fresh_caches):
    result = worker.run_child(workload, 0, cold_only=True)
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] > 0
