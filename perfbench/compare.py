"""Compare saved outputs of ``run.py`` taken on two versions of the package.

    python3 perfbench/compare.py --base A1.txt [A2.txt ...] --new B1.txt [B2.txt ...]

Each file is the standard output of one run.  For every metric the medians
and quartile spreads of both sides are printed with the ratio new/base.
Results taken on different kernel backends, workloads or trace settings
are not comparable: the script refuses them and exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

SAME = ("backend", "workload", "trace")


def load(path):
    env, result = None, None
    with open(path) as fh:
        lines = fh.read().strip().splitlines()
    for line in lines:
        if line.startswith("env "):
            env = json.loads(line[4:])
    if lines:
        result = json.loads(lines[-1])
    if env is None or result is None:
        raise ValueError(f"{path}: not a run.py output")
    return env, result


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    sides = {name: [load(p) for p in paths] for name, paths in (("base", args.base), ("new", args.new))}
    envs = [env for runs in sides.values() for env, _r in runs]
    for key in SAME:
        seen = sorted({str(env.get(key)) for env in envs})
        if len(seen) > 1:
            print(f"refusing to compare: {key} differs between results: {seen}", file=sys.stderr)
            return 2
    for side, runs in sides.items():
        bad = sum(1 for _env, r in runs if not r["correct"])
        if bad:
            print(f"warning: {bad} {side} run(s) report correct=false")
    names = sorted(set().union(*(r["metrics"] for runs in sides.values() for _e, r in runs)))
    print(f"{'metric':48s} {'base':>12s} {'iqr':>10s} {'new':>12s} {'iqr':>10s} {'new/base':>9s}")
    for name in names:
        cols = []
        for runs in sides.values():
            values = [r["metrics"][name]["value"] for _e, r in runs if name in r["metrics"]]
            cols.append((statistics.median(values), spread(values)) if values else (None, None))
        (b, bs), (n, ns) = cols
        ratio = f"{n / b:9.3f}" if b and n is not None else f"{'-':>9s}"
        fmt = lambda x: f"{x:12.6g}" if x is not None else f"{'-':>12s}"  # noqa: E731
        fmt_s = lambda x: f"{x:10.4g}" if x is not None else f"{'-':>10s}"  # noqa: E731
        print(f"{name:48s} {fmt(b)} {fmt_s(bs)} {fmt(n)} {fmt_s(ns)} {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
