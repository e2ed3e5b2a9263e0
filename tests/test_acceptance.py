"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every check is an exact zero test (the identities hold with zero residual in
exact arithmetic); the only numeric tolerances are the wall-time budgets
stated alongside each criterion.
"""

import random
import time
from fractions import Fraction

from tau_forge import funq, kpfock, ncalg, qhirota, qscalar, qvertex, toda, uqsl2
from tau_forge.cli import run_check
from tau_forge.qscalar import ONE
from test_ncalg import nc_exp_q, truncated
from test_qhirota import q_taylor_reconstruct

HALF = Fraction(1, 2)


def _report(n, label, ok, seconds=None):
    stamp = f" [{seconds:.2f}s]" if seconds is not None else ""
    print(f"ACCEPTANCE {n:02d} {'PASS' if ok else 'FAIL'} {label}{stamp}")
    assert ok, f"criterion {n}: {label}"


def test_criterion_01_q_liouville_reproduction():
    t0 = time.perf_counter()
    residual = qhirota.eq_half_residual()
    dt = time.perf_counter() - t0
    ok = residual.is_zero() and dt < 5.0
    _report(1, "spin-1/2 q-difference Liouville equation, zero residual", ok, dt)


def test_criterion_02_hierarchy_equations():
    t0 = time.perf_counter()
    ok = True
    for n in (1, 2, 3):
        ok = ok and qhirota.hierarchy_eq_residual(n).is_zero()
    # the second combination equals exactly 1 before the subtraction
    combo = qhirota.hierarchy_eq_residual(2) + ncalg.NCPoly.one(
        ncalg.funq_sl2(), ("u", "x")
    )
    ok = ok and combo == ncalg.NCPoly.one(ncalg.funq_sl2(), ("u", "x"))
    dt = time.perf_counter() - t0
    ok = ok and dt < 10.0
    _report(2, "hierarchy equations 1-3 with unit right-hand side", ok, dt)


def test_criterion_03_general_bilinear_identity():
    ok = True
    worst = 0.0
    for j, jp in ((HALF, HALF), (1, HALF), (1, 1), (Fraction(3, 2), 1)):
        t0 = time.perf_counter()
        ok = ok and qhirota.verify_lm(j, jp).verdict
        worst = max(worst, time.perf_counter() - t0)
    ok = ok and worst < 120.0
    _report(3, "general bilinear identity on the spin grid", ok, worst)


def test_criterion_04_classical_liouville_limit():
    t0 = time.perf_counter()
    res = qhirota.hierarchy_eq_residual(2, pres=qhirota.commutative_sl2())
    at_q1 = res.map_coefficients(
        lambda c: qscalar.QScalar.from_rational(c.eval_q1())
    )
    dt = time.perf_counter() - t0
    _report(4, "classical limit is the Liouville bilinear identity", at_q1.is_zero(), dt)


def test_criterion_05_quantized_sl2_relations():
    t0 = time.perf_counter()
    frozen = funq.gauss_relation_residuals(ncalg.FROZEN_GAUSS_CONVENTION)
    other = funq.gauss_relation_residuals("q")
    ok = all(r.is_zero() for r in frozen.values()) and any(
        not r.is_zero() for r in other.values()
    )
    dt = time.perf_counter() - t0
    _report(5, "factorized coordinates satisfy the defining relations on exactly one toggle", ok, dt)


def test_criterion_06_intertwiners():
    t0 = time.perf_counter()
    ok = True
    t = 1
    while Fraction(t, 2) <= Fraction(5, 2):
        j = Fraction(t, 2)
        comps = qvertex.solve_vertex_components(j)  # raises if dimension != 1
        res = qvertex.vacuum_normalization_residuals(j)
        ok = ok and not any(any(vec) for vec in res.values())
        t += 1
    t = 1
    while Fraction(t, 2) <= 2:
        j = Fraction(t, 2)
        ok = ok and qvertex.verify_component_relations(j).verdict
        ok = ok and qvertex.verify_qexp_commutation(j).verdict
        t += 1
    dt = time.perf_counter() - t0
    _report(6, "vertex solves, normalizations, component and flow relations", ok, dt)


def test_criterion_07_hopf_checks():
    t0 = time.perf_counter()
    ok = True
    spins = (0, HALF, 1)
    for j in spins:
        for jp in spins:
            ok = ok and uqsl2.verify_hopf_matrices(j, jp).verdict
    pres = ncalg.q_commuting_pair()
    x = ncalg.NCPoly.generator(pres, "x")
    y = ncalg.NCPoly.generator(pres, "y")
    lhs = nc_exp_q(x + y, 1, 8)
    rhs = truncated(nc_exp_q(x, 1, 8).mul(nc_exp_q(y, 1, 8)), 8)
    ok = ok and (lhs - rhs).is_zero()
    (report,) = run_check("ncalg.qexp-addition", {"degree": 8})
    ok = ok and report.verdict
    dt = time.perf_counter() - t0
    _report(7, "coproduct factorizations and q-exponential addition theorem", ok, dt)


def _g_suite():
    rng = random.Random(0)
    return (
        kpfock.GroupElementSpec.identity(),
        kpfock.GroupElementSpec.single(Fraction(1), 0, -1),
        kpfock.GroupElementSpec.random_unipotent(rng),
    )


def test_criterion_08_one_sided_hirota():
    ok = True
    worst = 0.0
    for g in _g_suite():
        for which in ("M3", "M4"):
            t0 = time.perf_counter()
            rep = kpfock.verify_hirota_kp(which, g, degree=6)
            worst = max(worst, time.perf_counter() - t0)
            ok = ok and rep.verdict
    ok = ok and worst < 300.0
    _report(8, "one-sided Hirota relations to degree 6", ok, worst)


def test_criterion_09_two_sided_hirota():
    t0 = time.perf_counter()
    r1 = kpfock.verify_hirota_kp("H6", kpfock.GroupElementSpec.identity(), charges=(0, 0), degree=4)
    r2 = kpfock.verify_hirota_kp(
        "H6", kpfock.GroupElementSpec.single(Fraction(1), 0, -1), charges=(1, 0), degree=4
    )
    dt = time.perf_counter() - t0
    _report(9, "two-sided Hirota relation at charges (0,0) and (1,0)", r1.verdict and r2.verdict, dt)


def test_criterion_10_cauchy_identity():
    t0 = time.perf_counter()
    tau, direct, _ = kpfock.cauchy_pair(5)
    ok = (tau - direct).is_zero()
    dt = time.perf_counter() - t0
    _report(10, "two-sided vacuum tau equals the exponential pairing to degree 5", ok, dt)


def test_criterion_11_toda():
    t0 = time.perf_counter()
    ok = True
    rng = random.Random(0)
    for size in (2, 3, 4, 5):
        inst = toda.TodaInstance.random(rng, size)
        ok = ok and toda.verify_toda_bilinear(inst).verdict
    inst = toda.TodaInstance.from_rows([[1, 0], [Fraction(3, 2), 1]])
    vars = ("x", "u")
    _t0, t1, t2 = toda.toda_tau_all(inst)
    want = ncalg.TimesPoly(
        vars, {(0, 0): ONE, (1, 0): qscalar.qs(Fraction(3, 2)), (1, 1): ONE}
    )
    ok = ok and t1 == want and t2 == ncalg.TimesPoly.one(vars)
    dt = time.perf_counter() - t0
    _report(11, "Toda-molecule identity, sizes 2-5 plus the worked instance", ok, dt)


def test_criterion_12_infrastructure_properties():
    t0 = time.perf_counter()
    ok = ncalg.check_local_confluence(ncalg.funq_sl2()).verdict
    ok = ok and ncalg.check_local_confluence(ncalg.gauss_param()).verdict
    # Heisenberg commutators on boundary-safe states
    for k in range(1, 5):
        for l in range(1, 5):
            sp = kpfock.FockSpace(10)
            vec = {sp.vacuum(0): 1}
            a = kpfock.apply_flow_generator(sp, k, kpfock.apply_flow_generator(sp, -l, vec))
            inner = kpfock.apply_flow_generator(sp, k, vec)
            b = kpfock.apply_flow_generator(sp, -l, inner) if inner else {}
            diff = {s: a.get(s, 0) - b.get(s, 0) for s in a.keys() | b.keys()}
            diff = {s: c for s, c in diff.items() if c}
            want = {sp.vacuum(0): k} if k == l else {}
            ok = ok and diff == want
    # q-Taylor reconstruction to degree 6
    rng = random.Random(0)
    vars = ("x", "a")
    for _ in range(8):
        p = ncalg.TimesPoly(
            vars,
            {(rng.randint(0, 6), 0): qscalar.qs(rng.randint(-6, 6) or 1) for _ in range(4)},
        )
        coeffs = qhirota.q_taylor(p, "x", "a", 1, -2, 6)
        rec = q_taylor_reconstruct(coeffs, "x", "a", 1, -2, vars)
        ok = ok and rec == p
    # seeded property suites
    for check in ("qscalar.canonical", "kp.fermions"):
        reports = run_check(check, {"seed": 0})
        ok = ok and all(r.verdict for r in reports)
    dt = time.perf_counter() - t0
    _report(12, "confluence, Heisenberg, q-Taylor reconstruction, seeded properties", ok, dt)
