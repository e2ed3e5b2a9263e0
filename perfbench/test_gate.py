"""Tests of the benchmark's own gate, tracing and metric list.

    python3 -m pytest perfbench/test_gate.py -q

The gate must be able to fail: a wrong reference digest and a forced FAIL
verdict each make a run report failure.  Traced counts must repeat exactly
for one seed, and verdicts and digests must hold on a second seed.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

from tau_forge import toda  # noqa: E402
from tau_forge.report import VerificationReport  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    with open(worker.REFERENCE) as fh:
        return json.load(fh)


def test_reference_passes(reference):
    result = worker.run_child("toda", 0, cold_only=True, reference=reference)
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] == len(worker.TODA_SIZES) * 2


def test_wrong_reference_digest_fails(reference):
    bad = copy.deepcopy(reference)
    bad["toda"]["3"]["taus.size4"] = "0" * 20
    result = worker.run_child("toda", 3, cold_only=True, reference=bad)
    assert result["failed"] == 1
    assert "digest taus.size4" in result["failures"][0]


def test_forced_fail_verdict_fails(reference, monkeypatch):
    def fail(inst):
        return VerificationReport(check_id="toda.bilinear", verdict=False, residual="forced")

    monkeypatch.setattr(toda, "verify_toda_bilinear", fail)
    result = worker.run_child("toda", 0, cold_only=True, reference=reference)
    assert result["failed"] == len(worker.TODA_SIZES)
    assert all("FAIL forced" in f for f in result["failures"])


def test_failed_sample_makes_run_incorrect(monkeypatch, capsys):
    samples = iter([
        {"setup_s": 0.1},
        {"setup_s": 0.1, "verdict_s": 1.0, "attempted": 10, "failed": 0, "backend": "pure"},
        {"setup_s": 0.1, "verdict_s": 1.0, "attempted": 10, "failed": 1, "backend": "pure",
         "failures": ["toda.verify_toda_bilinear(size 2): toda.bilinear FAIL forced"]},
    ])
    monkeypatch.setattr(run, "SETUP_SAMPLES", 0)

    def child(self, *args):
        if args == ("--calibrate",):
            return {"cal_s": 0.4, "attempted": 0, "wall_s": 0.4}
        return dict(next(samples), wall_s=30.0)

    monkeypatch.setattr(run.Runner, "child", child)
    code = run.main(["--workload", "toda", "--seed", "0", "--seconds", "1", "--trace", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False
    assert (last["failed"], last["attempted"]) == (1, 20)


def test_second_seed_holds(reference):
    result = worker.run_child("toda", 7, cold_only=True, reference=reference)
    assert result["failed"] == 0, result["failures"]


def _traced_counts(seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", "toda",
         "--seed", str(seed), "--cold-only", "--trace"],
        cwd=ROOT, env=run.child_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    layers = json.loads(proc.stdout.strip().splitlines()[-1])["layers"]
    units = {name: unit for name, unit, _b, _m in spans.LAYER_METRICS}
    return {k: v for k, v in layers.items() if units[k] != "s"}


def test_trace_counts_repeat():
    first = _traced_counts(5)
    assert first["toda._tp_det.calls"] > 0
    assert first == _traced_counts(5)


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(worker.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == [(n, u) for n, u, _d in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (n, u, b) for n, u, b, _m in spans.LAYER_METRICS
    ]


def test_times_scale_by_flanking_calibrations():
    a, b, c = {"verdict_s": 1.0}, {"verdict_s": 2.0}, {"verdict_s": 3.0}
    timeline = [
        {"calibration": True, "cal_s": 0.4}, a, b,
        {"calibration": True, "cal_s": 0.6}, c,
        {"calibration": True, "attempted": 1, "failed": 1},  # a crashed calibration is skipped
    ]
    assert run.flanked(timeline) == [(a, 0.5), (b, 0.5), (c, 0.6)]
