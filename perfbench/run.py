"""tau-forge benchmark: cold time-to-verdict per workload, and per-layer
metrics from a separate traced run.

    python3 perfbench/run.py --workload {spin,toda,cli-all} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports the package from
``src/`` and builds nothing.  Each sample is a fresh interpreter running
``worker.py`` (a closed loop of one caller: each call starts after the
previous one returns), so its first pass is cold, as a ``tau-forge verify``
call is.  Samples run one at a time, single-threaded, on one CPU (the
last this process may use; a process moved between the CPUs of a shared
host changes speed with them), with ``TAU_FORGE_JOBS`` and
``TAU_FORGE_PURE`` removed and ``PYTHONHASHSEED`` fixed.  A run takes at
least ``MIN_SAMPLES`` samples, and starts another while the time measured
so far plus the last sample's length fits in ``--seconds``; metrics are
medians over samples.

The host's speed drifts by tens of percent over seconds to minutes, more
than any change worth measuring, so the run also times a fixed piece of
pure-Python work that uses nothing from the package (``worker.py
--calibrate``, a fresh interpreter that does not import the package) before
and after the set-ups and after each sample.  Each time of a sample is
scaled by ``CAL_REF_S`` over the mean of the calibrations just before and
just after it, and the metric is the median of the scaled times: it is
given in seconds of a machine on which the calibration takes
``CAL_REF_S``.  A change to the package moves the time metrics and leaves
the calibration alone.  The raw medians and every calibration are printed
beside the metrics.

``--trace 0`` reports the end-to-end metrics (see ``END_TO_END``).
``--trace 1`` runs untraced cold passes, then one traced cold pass, and
reports the per-layer metrics of ``spans.LAYER_METRICS`` plus the tracing
overhead (traced minus untraced ``verdict_s``).

Every verdict must be PASS and every digest of a built object must match
``reference.json``; a failed verdict, a digest mismatch or an exception is
counted in ``failed`` against ``attempted`` and makes ``correct`` false.
The last line of standard output is the JSON result; the lines before it
print every metric by name and unit and record the environment (backend,
Python version, git rev or source digest, nproc, seed).  Compare two saved
outputs with ``compare.py``, which refuses different backends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import spans  # noqa: E402
from worker import WORKLOADS  # noqa: E402

END_TO_END = (
    ("setup_s", "s", "import tau_forge.cli and build its registry"),
    ("verdict_s", "s", "cold wall time from the first call to the last verdict"),
    ("warm_s", "s", "the same calls again in the same process"),
    ("top_rung_s", "s", "cold time of the workload's largest single call"),
    ("peak_rss_mb", "MB", "peak resident memory of the sample process"),
)
# one cold pass varies by 10-25% from sample to sample on a shared 2-vCPU
# machine; a median of two or more damps a single slow sample
MIN_SAMPLES = 2
SETUP_SAMPLES = 5
TIME_METRICS = ("setup_s", "verdict_s", "warm_s", "top_rung_s")
# about what worker.calibrate() takes on a 2.1 GHz Xeon vCPU of a shared
# host; the time metrics are given in seconds of that machine
CAL_REF_S = 0.8
# every run, trace or not, ends within the 180 s a run may take
RUN_BUDGET_S = 170.0


def pin_cpu():
    """Keep this process and its children on one CPU; None where the
    platform cannot."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def child_env():
    env = dict(os.environ)
    env.pop("TAU_FORGE_JOBS", None)
    env.pop("TAU_FORGE_PURE", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


class Runner:
    """Starts worker processes one at a time within the run's budget."""

    def __init__(self):
        self.start = time.perf_counter()
        self.env = child_env()

    def child(self, *args):
        """Run one worker; a crash or timeout comes back as one failure."""
        timeout = max(1.0, RUN_BUDGET_S - (time.perf_counter() - self.start))
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, *args], cwd=ROOT, env=self.env,
                capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return {"attempted": 1, "failed": 1, "failures": [f"worker {args} timed out"],
                    "wall_s": time.perf_counter() - t0}
        wall = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-3:]
            return {"attempted": 1, "failed": 1,
                    "failures": [f"worker {args} exited {proc.returncode}: {' | '.join(tail)}"],
                    "wall_s": wall}
        result = json.loads(lines[-1])
        result["wall_s"] = wall
        return result

    def calibration(self):
        return dict(self.child("--calibrate"), calibration=True)

    def samples(self, seconds, *args, calibrate=False):
        """MIN_SAMPLES samples; another while it still fits in ``seconds``.
        With ``calibrate``, a calibration follows each sample."""
        t0 = time.perf_counter()
        out, taken = [], 0
        while True:
            res = self.child(*args)
            out.append(res)
            taken += 1
            if calibrate:
                out.append(self.calibration())
            now = time.perf_counter()
            if now - self.start + res["wall_s"] > RUN_BUDGET_S:
                return out
            if taken >= MIN_SAMPLES and now - t0 + res["wall_s"] > seconds:
                return out


def source_identity():
    """git rev when the checkout is a repository, and a digest of src/."""
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            rev = None
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return rev, h.hexdigest()[:16]


def median_of(results, key):
    values = [r[key] for r in results if r.get(key) is not None]
    return statistics.median(values) if values else None


def summarize(results):
    """(correct, attempted, failed, failure messages) over all samples."""
    attempted = sum(r.get("attempted", 1) for r in results)
    failed = sum(r.get("failed", 0) for r in results)
    failures = [f for r in results for f in r.get("failures", [])]
    return failed == 0, max(attempted, 1), failed, failures


def check_metrics(results):
    """cli.run_check.<id>.s, the median wall time seen from outside; the
    median ms each check reports itself; and the checks whose report misses
    most of their work: reported ms under a tenth of the outside wall time
    (0 ms where the report is built inside its own stopwatch)."""
    walls, reported = {}, {}
    for r in results:
        for c in r.get("checks", []):
            walls.setdefault(c["id"], []).append(c["wall_s"])
            reported.setdefault(c["id"], []).append(c["reported_ms"])
    wall = {cid: statistics.median(v) for cid, v in walls.items()}
    ms = {cid: statistics.median(v) for cid, v in reported.items()}
    unaccounted = sorted(cid for cid in wall if ms[cid] < 100.0 * wall[cid])
    out = {f"cli.run_check.{cid}.s": v for cid, v in wall.items()}
    out["cli.ms_unaccounted_checks"] = len(unaccounted)
    return out, ms, unaccounted


def flanked(timeline):
    """(result, calibration) for each result of a timeline of child results
    in the order they ran: the mean of the calibrations just before and just
    after it (the one there is at either end)."""
    pairs, pending, last = [], [], None
    for r in timeline:
        if not r.get("calibration"):
            pending.append(r)
        elif r.get("cal_s"):
            pairs += [(p, (last + r["cal_s"]) / 2 if last else r["cal_s"]) for p in pending]
            pending, last = [], r["cal_s"]
    return pairs + [(p, last) for p in pending if last]


def end_to_end(runner, args):
    timeline = [runner.calibration()]
    timeline += [runner.child("--setup-only") for _ in range(SETUP_SAMPLES)]
    timeline.append(runner.calibration())
    timeline += runner.samples(args.seconds, "--workload", args.workload, "--seed", str(args.seed),
                               calibrate=True)
    cals = [r for r in timeline if r.get("calibration")]
    full = [r for r in timeline if not r.get("calibration") and "verdict_s" in r]
    pairs = flanked(timeline)
    units = {name: unit for name, unit, _d in END_TO_END}
    print(f"samples {len(full)} full passes and {SETUP_SAMPLES} import-only")
    print("calibrations " + " ".join(f"{r['cal_s']:.4f}" for r in cals if r.get("cal_s"))
          + f" s (reference {CAL_REF_S} s)")
    values = {}
    for name, unit, desc in END_TO_END:
        group = [(r, c) for r, c in pairs if r.get(name) is not None]
        if name != "setup_s":
            group = [(r, c) for r, c in group if "verdict_s" in r]
        raw = [r[name] for r, _c in group]
        if name in TIME_METRICS:
            vals = [r[name] * CAL_REF_S / c for r, c in group]
            at = " at reference speed"
        else:
            vals, at = raw, ""
        values[name] = statistics.median(vals) if vals else None
        print(f"metric {name} {values[name]} {unit}  # median{at}; {desc}")
        if raw:
            print(f"  raw median {statistics.median(raw)} {unit}, samples "
                  + " ".join(f"{v:.4f}" for v in raw))
    checks, ms, unaccounted = check_metrics(full)
    for cid in sorted(ms):
        print(f"check {cid} wall_s={checks[f'cli.run_check.{cid}.s']:.4f} reported_ms={ms[cid]:.3f}")
    if ms:
        print(f"checks reporting under a tenth of their wall time: {len(unaccounted)} {unaccounted}")
    metrics = {
        name: {"value": values[name], "unit": units[name]}
        for name in units if values[name] is not None
    }
    return timeline, metrics


def per_layer(runner, args):
    untraced = runner.samples(
        args.seconds, "--workload", args.workload, "--seed", str(args.seed), "--cold-only")
    traced = runner.child(
        "--workload", args.workload, "--seed", str(args.seed), "--cold-only", "--trace")
    layers = dict(traced.get("layers", {}))
    checks, _ms, _unaccounted = check_metrics(untraced)
    layers.update(checks)
    base = median_of(untraced, "verdict_s")
    if traced.get("verdict_s") is not None and base is not None:
        layers["trace.traced_verdict_s"] = traced["verdict_s"]
        layers["trace.overhead_s"] = traced["verdict_s"] - base
    metrics = {}
    for name, unit, _better, moves in spans.LAYER_METRICS:
        value = layers.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
        print(f"metric {name} {value} {unit}  # should move: {moves}")
    return untraced + [traced], metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tau_forge", "__init__.py")):
        print(f"error: no tau_forge sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    cpu = pin_cpu()
    runner = Runner()
    runner.child("--setup-only")  # writes bytecode caches, so no sample pays for them
    results, metrics = (per_layer if args.trace else end_to_end)(runner, args)
    correct, attempted, failed, failures = summarize(results)
    rev, src_digest = source_identity()
    env = {
        "backend": next((r["backend"] for r in results if "backend" in r), None),
        "python": next((r["python"] for r in results if "python" in r), None),
        "git_rev": rev, "src_sha256": src_digest, "nproc": os.cpu_count(), "cpu": cpu,
        "seed": args.seed, "workload": args.workload, "trace": args.trace,
        "seconds": args.seconds,
    }
    print("env " + json.dumps(env, sort_keys=True))
    print(f"fail_ratio {failed}/{attempted}")
    for f in failures[:20]:
        print(f"failure {f}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
