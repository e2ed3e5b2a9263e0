"""Command-line driver: enumerate and run the named verification suites.

    tau-forge list
    tau-forge verify <selector> [--json] [--degree N] [--window M]
                     [--j J] [--jprime J'] [--jmax J] [--seed S]

Selectors match check ids exactly or as shell-style globs; the matching
checks run one after another in id order.  A flag applies to the selected
checks that take it.  Exit status is 0 when every selected check passes, 1
on any failure, 2 on usage errors, among them a flag that none of the
selected checks takes and --degree below 1.  Reports are deterministic;
randomized property checks derive everything from --seed (default 0).
"""

from __future__ import annotations

import argparse
import fnmatch
import math
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import funq, kpfock, ncalg, qhirota, qscalar, qvertex, toda, uqsl2
from ._kernels import BACKEND
from .report import VerificationReport


@dataclass
class CheckDescriptor:
    check_id: str
    anchor: str
    params: dict
    fn: object


def _spin(value):
    return Fraction(value)


def _degree(value):
    degree = int(value)
    if degree < 1:
        raise argparse.ArgumentTypeError(f"degree must be at least 1, got {degree}")
    return degree


# ---------------------------------------------------------------------------
# runners (each returns a VerificationReport; run_check times the call and
# stamps the id, params and anchor)
# ---------------------------------------------------------------------------


def _spins(jmax):
    """The positive half-integer spins 1/2, 1, ..., jmax; ValueError unless
    jmax is a half-integer of at least 1/2."""
    top = uqsl2.twice(jmax)
    if top < 1:
        raise ValueError(f"jmax must be at least 1/2, got {jmax}")
    return [Fraction(t, 2) for t in range(1, top + 1)]


def _combine(reports):
    """One line per report; a failing report adds its details and, unless
    they hold it, its residual, and those lines are the combined check's
    failures."""
    details, failures = [], []
    for r in reports:
        lines = [f"{r.verdict_str} {r.params or ''}"]
        if not r.verdict:
            lines += [f"  {d}" for d in r.details]
            if r.residual and not r.details_hold_residual():
                lines.append(f"  residual: {r.residual}")
            failures += lines
        details += lines
    return VerificationReport.from_failures(failures, details=details)


def run_qscalar_canonical(params):
    rng = random.Random(params["seed"])
    failures = []
    for trial in range(params["trials"]):
        a = _random_scalar(rng)
        b = _random_scalar(rng)
        s = a + b
        if not (s - b - a).is_zero():
            failures.append(f"(a+b)-b-a != 0 at trial {trial}")
        if not (a * b - b * a).is_zero():
            failures.append(f"ab - ba != 0 at trial {trial}")
        if not b.is_zero():
            if not ((a / b) * b - a).is_zero():
                failures.append(f"(a/b)b != a at trial {trial}")
        # canonical equality is structural
        if (a - b).is_zero() != (a == b):
            failures.append(f"structural equality mismatch at trial {trial}")
    return VerificationReport.from_failures(failures)


def _random_scalar(rng):
    num = {rng.randint(0, 4): rng.randint(-5, 5) for _ in range(rng.randint(1, 3))}
    den = {rng.randint(0, 3): rng.randint(-4, 4) for _ in range(rng.randint(1, 2))}
    if all(v == 0 for v in den.values()):
        den = {0: 1}
    try:
        return qscalar.QScalar._make(Fraction(rng.randint(-3, 3) or 1), num, den)
    except qscalar.QDivisionError:
        return qscalar.ONE


def run_qscalar_qnumbers(params):
    failures = []
    for n in range(1, 21):
        lhs = qscalar.bracket(n)
        rhs = qscalar.QScalar.q_power(1 - n) * qscalar.paren(n, 2)
        if lhs != rhs:
            failures.append(f"[{n}]_q mismatch")
    for n in range(0, 11):
        pairs = (
            (qscalar.paren, Fraction(n)),
            (qscalar.bracket, Fraction(n)),
            (qscalar.paren_factorial, Fraction(math.factorial(n))),
            (qscalar.bracket_factorial, Fraction(math.factorial(n))),
        )
        for fn, want in pairs:
            got = fn(n).eval_q1()
            if got != want:
                failures.append(f"eval_q1 {fn.__name__}({n}) = {got} != {want}")
    return VerificationReport.from_failures(failures)


def run_qexp_addition(params):
    """e_q(x + y) = e_q(x) e_q(y) for y x = q x y, e_q(t) = sum_n t^n/(n)_q!,
    one degree at a time over Z[q, q^-1]: times (n)_q!, the degree-n parts
    are (x + y)^n, reduced by the rewrite rules, and sum_k [n choose k]_q
    x^k y^(n-k), the Gaussian binomial in base q (``ncalg._q2_binomial`` at
    half the exponents, as ``uqsl2._series_mul`` takes it)."""
    pres = ncalg.q_commuting_pair()
    x, y = (ncalg.NCPoly.generator(pres, g) for g in ("x", "y"))
    power, failures = ncalg.NCPoly.one(pres), []
    for n in range(1, params["degree"] + 1):
        power = res = power.mul(x + y)
        for k in range(n + 1):
            binom = qscalar.QScalar.from_terms({e // 2: v for e, v in ncalg._q2_binomial(n, k).items()})
            res = res - ncalg.NCPoly.word(pres, ("x",) * k + ("y",) * (n - k), coeff=binom)
        if not res.is_zero():
            failures.append(f"degree {n}: (x+y)^{n} - sum_k [{n} choose k]_q x^k y^({n}-k) = {res}")
    return VerificationReport.from_failures(failures)


def run_hopf_grid(params):
    spins = [0] + _spins(params["jmax"])
    return _combine([uqsl2.verify_hopf_matrices(j, jp) for j in spins for jp in spins])


def run_vertex_normalizations(params):
    failures = []
    for j in _spins(params["jmax"]):
        for name, vec in qvertex.vacuum_normalization_residuals(j).items():
            if any(vec):
                failures.append(f"j={j}: {name} mismatch")
    return VerificationReport.from_failures(failures)


def run_vertex_prop(params):
    return _combine([qvertex.verify_component_relations(j) for j in _spins(params["jmax"])])


def run_vertex_qexp(params):
    return _combine([qvertex.verify_qexp_commutation(j) for j in _spins(params["jmax"])])


def run_gauss_relations(params):
    return funq.verify_gauss_relations()


def run_corep(params):
    half = Fraction(1, 2)
    return _combine([funq.verify_corep(j, jp) for j, jp in ((half, half), (1, half), (half, 1))])


def run_dual_route(params):
    return _combine([funq.verify_dual_route(j) for j in _spins(params["jmax"])])


def run_funq_gradings(params):
    failures = []
    eps = funq.counit_map()
    for j in _spins(params["jmax"]):
        M = funq.t_matrix(j)
        for m in range(len(M)):
            for r in range(len(M)):
                if not funq.entry_grading_ok(j, m, r, M[m][r]):
                    failures.append(f"grading fails at j={j} entry ({m},{r})")
                val = M[m][r].apply_generator_map(eps)
                want = qscalar.ONE if m == r else qscalar.ZERO
                if val.constant_word().constant_term() != want or len(val.terms) > (1 if m == r else 0):
                    failures.append(f"counit fails at j={j} entry ({m},{r})")
    return VerificationReport.from_failures(failures)


def run_eq_half(params):
    return qhirota.verify_eq_half()


def run_spin_half_suite(params):
    return qhirota.spin_half_suite()


def run_hierarchy(params):
    half = Fraction(1, 2)
    L, R = (qhirota.expand_hierarchy(side, 1, -1, 3, 3) for side in qhirota.lm_residual(half, half))
    if all(a.value.is_zero() for a in L):
        failures = ["every P_k,l of the left-hand side is zero, so the hierarchy holds vacuously"]
    else:
        diff = [a for a, b in zip(L, R) if not (a.value - b.value).is_zero()]
        failures = [f"P_{a.k},{a.l} differs between the two sides" for a in diff]
    return VerificationReport.from_failures(failures)


def run_lm(params):
    return qhirota.verify_lm(Fraction(params["j"]), Fraction(params["jprime"]))


def run_lm_grid(params):
    half = Fraction(1, 2)
    pairs = ((half, half), (1, half), (1, 1), (Fraction(3, 2), 1))
    return _combine([qhirota.verify_lm(j, jp) for j, jp in pairs])


def _g_suite(seed):
    rng = random.Random(seed)
    return (
        kpfock.GroupElementSpec.identity(),
        kpfock.GroupElementSpec.single(Fraction(1), 0, -1),
        kpfock.GroupElementSpec.random_unipotent(rng),
    )


def run_kp(which):
    def runner(params):
        return _combine([
            kpfock.verify_hirota_kp(which, g, degree=params["degree"], window=params["window"])
            for g in _g_suite(params["seed"])
        ])

    return runner


def run_h6(params):
    spec = kpfock.GroupElementSpec
    return _combine([
        kpfock.verify_hirota_kp("H6", g, charges=charges, degree=params["degree"], window=params["window"])
        for g, charges in ((spec.identity(), (0, 0)), (spec.single(Fraction(1), 0, -1), (1, 0)))
    ])


def run_cauchy(params):
    tau, direct, cert = kpfock.cauchy_pair(params["degree"], params["window"])
    res = tau - direct
    return VerificationReport.from_failures([] if res.is_zero() else [str(res)], details=[str(cert)])


def _vec_sum(a, b, sign=1):
    """a + sign * b for Fock vectors with int coefficients, zeros dropped."""
    out = dict(a)
    for st, c in b.items():
        out[st] = out.get(st, 0) + sign * c
    return {st: c for st, c in out.items() if c}


def run_heisenberg(params):
    failures = []
    kmax = params["kmax"]
    space = kpfock.FockSpace(params["window"])
    base = {space.vacuum(0): 1}
    for k in range(1, kmax + 1):
        for l in range(1, kmax + 1):
            a = kpfock.apply_flow_generator(space, k, kpfock.apply_flow_generator(space, -l, base))
            b = kpfock.apply_flow_generator(space, -l, kpfock.apply_flow_generator(space, k, base))
            got = _vec_sum(a, b, -1)
            if got != ({space.vacuum(0): k} if k == l else {}):
                failures.append(f"[a_{k}, a_-{l}] wrong: {got}")
    return VerificationReport.from_failures(failures)


def run_fermions(params):
    rng = random.Random(params["seed"])
    failures = []
    for _ in range(params["trials"]):
        space = kpfock.FockSpace(params["window"])
        n = rng.randint(-1, 1)
        partition = sorted((rng.randint(1, 3) for _ in range(rng.randint(0, 3))), reverse=True)
        vec = {space.state_from_partition(n, tuple(partition)): 1}
        i = rng.randint(-4, 4)
        j = rng.randint(-4, 4)
        # {psi_i, psi*_j} = delta_ij, {psi_i, psi_j} = 0
        x = kpfock.apply_fermion(space, "psi", i, kpfock.apply_fermion(space, "psi_star", j, vec))
        y = kpfock.apply_fermion(space, "psi_star", j, kpfock.apply_fermion(space, "psi", i, vec))
        if _vec_sum(x, y) != (vec if i == j else {}):
            failures.append(f"anticommutator psi_{i} psi*_{j} wrong")
        xx = kpfock.apply_fermion(space, "psi", i, kpfock.apply_fermion(space, "psi", j, vec))
        yy = kpfock.apply_fermion(space, "psi", j, kpfock.apply_fermion(space, "psi", i, vec))
        if _vec_sum(xx, yy):
            failures.append(f"psi_{i} psi_{j} + psi_{j} psi_{i} != 0")
    return VerificationReport.from_failures(failures)


def run_toda_worked(params):
    inst = toda.TodaInstance.from_rows([[1, 0], [Fraction(3, 2), 1]])
    vars = ("x", "u")
    _t0, t1, t2 = toda.toda_tau_all(inst)
    want1 = ncalg.TimesPoly(
        vars,
        {
            (0, 0): qscalar.ONE,
            (1, 0): qscalar.qs(Fraction(3, 2)),
            (1, 1): qscalar.ONE,
        },
    )
    failures = []
    if t1 != want1:
        failures.append(f"tau_1 = {t1}")
    if t2 != ncalg.TimesPoly.one(vars):
        failures.append(f"tau_2 = {t2}")
    if not toda.verify_toda_bilinear(inst).verdict:
        failures.append("bilinear identity fails on the worked instance")
    return VerificationReport.from_failures(failures)


def run_toda_random(params):
    rng = random.Random(params["seed"])
    instances = [toda.TodaInstance.random(rng, size) for size in (2, 3, 4, 5)]
    return _combine([toda.verify_toda_bilinear(inst) for inst in instances])


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def build_registry():
    checks = [
        CheckDescriptor(
            "qscalar.canonical",
            "field axioms and structural equality of canonical forms",
            {"seed": 0, "trials": 200}, run_qscalar_canonical,
        ),
        CheckDescriptor(
            "qscalar.qnumbers",
            "q-integer identities and classical values at q=1",
            {}, run_qscalar_qnumbers,
        ),
        CheckDescriptor(
            "ncalg.confluence.funq-sl2",
            "confluence of the quantized-SL2 rewrite system (diamond lemma)",
            {}, lambda params: ncalg.check_local_confluence(ncalg.funq_sl2()),
        ),
        CheckDescriptor(
            "ncalg.confluence.gauss-param",
            "confluence of the parameter-algebra rewrite system (diamond lemma)",
            {}, lambda params: ncalg.check_local_confluence(ncalg.gauss_param()),
        ),
        CheckDescriptor(
            "ncalg.qexp-addition",
            "q-exponential addition theorem for q-commuting variables",
            {"degree": 8}, run_qexp_addition,
        ),
        CheckDescriptor(
            "hopf.matrices",
            "coproduct factorization of q-exponentials and antipode axiom",
            {"jmax": 1}, run_hopf_grid,
        ),
        CheckDescriptor(
            "vertex.normalizations",
            "highest-weight actions of the vertex components",
            {"jmax": Fraction(5, 2)}, run_vertex_normalizations,
        ),
        CheckDescriptor(
            "vertex.component-relations",
            "component form of the intertwining relations",
            {"jmax": 2}, run_vertex_prop,
        ),
        CheckDescriptor(
            "vertex.qexp-commutation",
            "vertex components vs q-exponential flows",
            {"jmax": 2}, run_vertex_qexp,
        ),
        CheckDescriptor(
            "funq.gauss-relations",
            "defining relations of quantized SL2 in the parameter model",
            {}, run_gauss_relations,
        ),
        CheckDescriptor(
            "funq.corep",
            "group-like property of the coordinate matrix",
            {}, run_corep,
        ),
        CheckDescriptor(
            "funq.dual-route",
            "abstract vs factorized coordinate matrices",
            {"jmax": Fraction(3, 2)}, run_dual_route,
        ),
        CheckDescriptor(
            "funq.gradings",
            "weight homogeneity and counit of the coordinate matrices",
            {"jmax": Fraction(3, 2)}, run_funq_gradings,
        ),
        CheckDescriptor(
            "qliouville.eq-half",
            "spin-1/2 q-difference Liouville identity",
            {}, run_eq_half,
        ),
        CheckDescriptor(
            "qliouville.suite",
            "spin-1/2 bilinear hierarchy and classical Liouville limit",
            {}, run_spin_half_suite,
        ),
        CheckDescriptor(
            "qliouville.hierarchy",
            "double q-Taylor hierarchy coefficients",
            {}, run_hierarchy,
        ),
        CheckDescriptor(
            "lm",
            "bilinear q-difference identity for neighbouring-spin taus",
            {"j": Fraction(1, 2), "jprime": Fraction(1, 2)}, run_lm,
        ),
        CheckDescriptor(
            "lm.grid",
            "bilinear identity over the acceptance spin grid",
            {}, run_lm_grid,
        ),
        CheckDescriptor(
            "kp.m3",
            "fermion-sum bilinear relation for one-sided taus",
            {"degree": 6, "window": 8, "seed": 0}, run_kp("M3"),
        ),
        CheckDescriptor(
            "kp.m4",
            "Schur-operator Hirota relation for one-sided taus",
            {"degree": 6, "window": 8, "seed": 0}, run_kp("M4"),
        ),
        CheckDescriptor(
            "kp.h6",
            "two-sided Hirota relation across neighbouring charges",
            {"degree": 4, "window": 8}, run_h6,
        ),
        CheckDescriptor(
            "kp.cauchy",
            "two-sided vacuum tau equals the exponential pairing",
            {"degree": 5, "window": 8}, run_cauchy,
        ),
        CheckDescriptor(
            "kp.heisenberg",
            "flow-generator commutators on the mode window",
            {"window": 8, "kmax": 4}, run_heisenberg,
        ),
        CheckDescriptor(
            "kp.fermions",
            "canonical anticommutation relations on window states",
            {"window": 8, "seed": 0, "trials": 60}, run_fermions,
        ),
        CheckDescriptor(
            "toda.worked",
            "worked 2x2 instance of the Toda-molecule identity",
            {}, run_toda_worked,
        ),
        CheckDescriptor(
            "toda.random",
            "Toda-molecule identity on seeded random instances",
            {"seed": 0}, run_toda_random,
        ),
    ]
    return {c.check_id: c for c in checks}


REGISTRY = build_registry()


class UsageError(Exception):
    pass


def select_checks(selector):
    if selector in REGISTRY:
        return [REGISTRY[selector]]
    matched = [c for cid, c in sorted(REGISTRY.items()) if fnmatch.fnmatch(cid, selector)]
    if not matched:
        raise UsageError(f"selector {selector!r} matches no registered check")
    return matched


def run_check(selector, overrides=None):
    """Execute all checks matching the selector; deterministic id order.

    Each report's ms is the wall time of the whole check, including any
    builds it caches for later checks."""
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    selected = select_checks(selector)
    for key in overrides:
        if not any(key in desc.params for desc in selected):
            raise UsageError(f"no check matching {selector!r} takes --{key}")
    reports = []
    for desc in selected:
        params = dict(desc.params)
        params.update((k, v) for k, v in overrides.items() if k in desc.params)
        t0 = time.perf_counter()
        report = desc.fn(params)
        report.ms = (time.perf_counter() - t0) * 1000.0
        report.check_id = desc.check_id
        report.anchor = desc.anchor
        report.params = params
        reports.append(report)
    return reports


def emit_report(reports, fmt="text", stream=None):
    stream = stream or sys.stdout
    if fmt == "json":
        import json

        stream.write(json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True))
        stream.write("\n")
    else:
        for r in reports:
            stream.write(r.text_line() + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="tau-forge",
        description="exact verification of Hirota-type bilinear identities "
        "for classical and q-deformed tau functions",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list registered checks")
    pv = sub.add_parser("verify", help="run checks matching a selector")
    pv.add_argument("selector", help="check id or glob, e.g. 'kp.*'")
    pv.add_argument("--json", action="store_true", help="machine-readable output")
    pv.add_argument("--degree", type=_degree, default=None)
    pv.add_argument("--window", type=int, default=None)
    pv.add_argument("--j", type=_spin, default=None)
    pv.add_argument("--jprime", type=_spin, default=None)
    pv.add_argument("--jmax", type=_spin, default=None)
    pv.add_argument("--seed", type=int, default=None)

    args = parser.parse_args(argv)
    if args.command == "list":
        for cid, desc in sorted(REGISTRY.items()):
            defaults = {k: str(v) for k, v in desc.params.items()}
            print(f"{cid:32s} {desc.anchor}" + (f"  {defaults}" if defaults else ""))
        print(f"# kernel backend: {BACKEND}")
        return 0
    if args.command != "verify":
        parser.print_help()
        return 2
    overrides = {
        "degree": args.degree,
        "window": args.window,
        "j": args.j,
        "jprime": args.jprime,
        "jmax": args.jmax,
        "seed": args.seed,
    }
    try:
        reports = run_check(args.selector, overrides)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, kpfock.BoundaryError) as exc:
        print(f"error: invalid parameters: {exc}", file=sys.stderr)
        return 2
    emit_report(reports, "json" if args.json else "text")
    return 0 if all(r.verdict for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
