"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N [--cold-only] [--trace]
    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py --calibrate
    python3 perfbench/worker.py --record-reference

``run.py`` starts this script once per sample with a pinned environment and
reads the JSON object it prints as its last line.  A pass times the
workload's calls into the package's public functions from outside: the
import of ``tau_forge.cli`` (which builds the check registry), then a cold
pass, then a warm pass in the same process.  After the cold pass every
built object the workload names is reduced to a canonical digest and
compared with ``reference.json``, which was recorded from the package by
``--record-reference``; verdicts must all be PASS.  ``--trace`` installs the
per-layer wrappers of ``spans.py`` for the cold pass only; ``--cold-only``
skips the warm pass.  ``--calibrate`` times ``calibrate()`` without
importing the package.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import sys
import time
from fractions import Fraction

import spans
from spans import LM_LADDER, TODA_SIZES

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

# Seeded workloads draw their instance from a pool of this many seeds, so
# every instance has a recorded reference digest: --seed n runs pool seed
# n mod POOL.
POOL = 16
WORKLOADS = ("spin", "toda", "cli-all")
TOP_RUNG = {
    "spin": "funq.t_matrix(5/2)",
    "toda": "toda.verify_toda_bilinear(size 6)",
    "cli-all": "cli.run_check(kp.h6)",
}


# ---------------------------------------------------------------------------
# seeded inputs (built here; the package only receives them)
# ---------------------------------------------------------------------------


def toda_instances(pool_seed):
    """One random invertible g per size.  Entries are nonzero, so every seed
    of a size does the same symbolic work; the seed draws the rationals."""
    from tau_forge import toda

    rng = random.Random(2000 + pool_seed)
    out = []
    for size in TODA_SIZES:
        while True:
            rows = [
                [Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 4)) for _ in range(size)]
                for _ in range(size)
            ]
            try:
                out.append(toda.TodaInstance.from_rows(rows))
                break
            except ValueError:  # singular draw
                continue
    return out


# ---------------------------------------------------------------------------
# workloads: lists of (label, call); a call returns the reports it produced
# ---------------------------------------------------------------------------


def _build(fn, *args):
    fn(*args)
    return []


def workload_ops(workload, pool_seed):
    from tau_forge import cli, funq, qhirota, qvertex, toda

    if workload == "spin":
        ops = [
            (f"qhirota.verify_lm({a}/2,{b}/2)",
             lambda a=a, b=b: [qhirota.verify_lm(Fraction(a, 2), Fraction(b, 2))])
            for a, b in LM_LADDER
        ]
        ops += [
            (f"qvertex.solve_vertex_components({tj}/2)",
             lambda tj=tj: _build(qvertex.solve_vertex_components, Fraction(tj, 2)))
            for tj in range(1, 6)
        ]
        ops.append(("funq.t_matrix(5/2)", lambda: _build(funq.t_matrix, Fraction(5, 2))))
        return ops
    if workload == "toda":
        return [
            (f"toda.verify_toda_bilinear(size {inst.size})",
             lambda inst=inst: [toda.verify_toda_bilinear(inst)])
            for inst in toda_instances(pool_seed)
        ]
    if workload == "cli-all":
        # the same sequence as run_check('*') with one job, one id at a time
        # so each check's wall time is seen from outside
        return [
            (f"cli.run_check({cid})", lambda cid=cid: cli.run_check(cid))
            for cid in sorted(cli.REGISTRY)
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# canonical digests of built objects
# ---------------------------------------------------------------------------


def _coeff(c):
    """Canonical form of a rational or Q(q) coefficient, independent of how
    the package stores it: rationals print as fractions, other elements as
    N/D with N, D coprime Laurent polynomials, D monic with lowest power 0."""
    if isinstance(c, (int, Fraction)):
        return str(Fraction(c))
    if c.is_rational():
        return str(c.as_rational())
    num, den = c.numerator, c.denominator
    lead, low = den[max(den)], min(den)
    return [
        [[e - low, str(Fraction(v) / lead)] for e, v in sorted(num.items())],
        [[e - low, str(Fraction(v) / lead)] for e, v in sorted(den.items())],
    ]


def _times(tp):
    return [list(tp.vars), [[list(m), _coeff(c)] for m, c in sorted(tp.terms.items())]]


def _nc(p):
    return [[list(w), _times(t)] for w, t in sorted(p.terms.items())]


def _matrix(M, entry):
    return [[entry(x) for x in row] for row in M]


def _digest(obj):
    text = json.dumps(obj, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def _vertex(comps):
    mats = {
        "phi_plus": comps.phi_plus, "phi_minus": comps.phi_minus,
        "psi_plus": comps.psi_plus, "psi_minus": comps.psi_minus,
        "phi_up_plus": comps.phi_up[0], "phi_up_minus": comps.phi_up[1],
        "psi_dn_plus": comps.psi_dn[0], "psi_dn_minus": comps.psi_dn[1],
    }
    return {k: _matrix(M, _coeff) for k, M in mats.items()}


def digests(workload, pool_seed):
    """Name -> digest of the objects the workload built (cheap after the
    cold pass: T^(j) and vertex components come from the package caches)."""
    from tau_forge import funq, qvertex, toda

    out = {}
    if workload in ("spin", "cli-all"):
        for tj in range(1, 6 if workload == "spin" else 4):
            out[f"T.2j{tj}"] = _digest(_matrix(funq.t_matrix(Fraction(tj, 2)), _nc))
        for tj in range(1, 6):
            out[f"vertex.2j{tj}"] = _digest(_vertex(qvertex.solve_vertex_components(Fraction(tj, 2))))
    elif workload == "toda":
        for inst in toda_instances(pool_seed):
            out[f"taus.size{inst.size}"] = _digest([_times(t) for t in toda.toda_tau_all(inst)])
    return out


def reference_for(workload, pool_seed, reference):
    ref = reference[workload]
    return ref[str(pool_seed)] if workload == "toda" else ref


def record_reference():
    """Write reference.json from the package as it is now."""
    reference = {}
    for workload in WORKLOADS:
        if workload == "toda":
            reference[workload] = {str(s): digests(workload, s) for s in range(POOL)}
        else:
            for _label, call in workload_ops(workload, 0):
                call()
            reference[workload] = digests(workload, 0)
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------


def calibrate():
    """Seconds taken by a fixed piece of pure-Python work that uses nothing
    from the package, in the package's own kinds of work: integer
    arithmetic into a small dict, products of dict-of-monomial polynomials
    over Fractions, lookups in a dict too large for the caches, and a churn
    of Fraction objects.  On a shared host the speed of such work drifts by
    tens of percent over seconds to minutes; ``run.py`` divides each
    sample's times by the calibrations measured just before and after it.
    The collector is paused, so the figure depends on the machine alone."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table, acc = {}, 0
        for i in range(300_000):
            acc = (acc * 31 + i * i) % 1_000_003
            table[i & 1023] = acc
        rng = random.Random(7)
        for _ in range(40):
            p = {(rng.randint(0, 4), rng.randint(0, 4)): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                 for _ in range(12)}
            q = dict(p)
            for _ in range(3):
                r = {}
                for (a, b), u in p.items():
                    for (c, d), v in q.items():
                        key = (a + c, b + d)
                        r[key] = r.get(key, 0) + u * v
                p = {k: v for k, v in r.items() if v}
        keys = list(range(300_000))
        rng.shuffle(keys)
        big = {k: k for k in keys}
        acc = sum(big[k] for k in reversed(keys))
        fracs = [Fraction(i, i % 97 + 1) for i in range(100_000)]
        acc = sum(fracs[::7], Fraction(0))
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------


def timed_pass(ops, failures, checks=None):
    """Run every op in order, collecting failures; returns (total wall s,
    per-label wall s, number of ops)."""
    clock = time.perf_counter
    times = {}
    total = 0.0
    attempted = 0
    for label, call in ops:
        t0 = clock()
        try:
            reports = call()
        except Exception as exc:  # a crash is a counted failure, not an abort
            reports = None
            failures.append(f"{label}: {type(exc).__name__}: {exc}")
        dur = clock() - t0
        total += dur
        times[label] = dur
        attempted += 1
        if reports is None:
            continue
        for r in reports:
            if not r.verdict:
                failures.append(f"{label}: {r.check_id} FAIL {r.residual[:200]}")
            if checks is not None and label.startswith("cli.run_check("):
                checks.append({"id": r.check_id, "wall_s": dur, "reported_ms": r.ms})
    return total, times, attempted


def run_child(workload, seed, cold_only=False, trace=False, reference=None, setup_s=None):
    """Cold pass (+ warm pass) of one workload; returns the result dict."""
    import tau_forge._kernels

    pool_seed = seed % POOL
    failures = []
    ops = workload_ops(workload, pool_seed)
    tracer = None
    if trace:
        tracer = spans.Tracer()
        tracer.install()
    checks = []
    try:
        verdict_s, times, attempted = timed_pass(ops, failures, checks)
    finally:
        if tracer is not None:
            tracer.restore()
    if reference is None:
        with open(REFERENCE) as fh:
            reference = json.load(fh)
    want = reference_for(workload, pool_seed, reference)
    try:
        got = digests(workload, pool_seed)
    except Exception as exc:  # then every expected digest counts as failed
        got = {name: f"{type(exc).__name__}: {exc}" for name in want}
    for name in sorted(want):
        attempted += 1
        if got.get(name) != want[name]:
            failures.append(f"digest {name}: {got.get(name)} != reference {want[name]}")
    result = {
        "workload": workload,
        "seed": seed,
        "pool_seed": pool_seed,
        "backend": tau_forge._kernels.BACKEND,
        "python": sys.version.split()[0],
        "setup_s": setup_s,
        "verdict_s": verdict_s,
        "top_rung_s": times.get(TOP_RUNG[workload]),
        "checks": checks,
    }
    if not cold_only:
        warm_s, _, warm_attempted = timed_pass(ops, failures)
        attempted += warm_attempted
        result["warm_s"] = warm_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["attempted"] = attempted
    result["failed"] = len(failures)
    result["failures"] = failures[:20]
    if tracer is not None:
        result["layers"] = tracer.metrics()
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cold-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--calibrate", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.calibrate:
        print(json.dumps({"cal_s": calibrate(), "attempted": 0}))
        return 0

    t0 = time.perf_counter()
    import tau_forge.cli  # noqa: F401  (builds the check registry)

    setup_s = time.perf_counter() - t0
    if args.record_reference:
        record_reference()
        return 0
    if args.setup_only:
        result = {"setup_s": setup_s}
    else:
        if args.workload is None:
            parser.error("--workload is required")
        result = run_child(args.workload, args.seed, args.cold_only, args.trace, setup_s=setup_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
