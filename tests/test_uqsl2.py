from fractions import Fraction
from functools import reduce

import pytest
from uq_oracle import q_exp_nilpotent, qs_matrix, tp_lift, tp_scale_var

from tau_forge import linalg as la
from tau_forge._kernels import _LAURENT_ONE
from tau_forge.cli import run_check
from tau_forge.qscalar import ONE, Q, QINV, ZERO
from tau_forge.uqsl2 import (
    NonNilpotentError,
    _q_exp,
    _relations,
    make_rep,
    twice,
    verify_hopf_matrices,
)

HALF = Fraction(1, 2)


def rep_relations_residuals(rep):
    """Residual matrices of the defining relations over Z[q, q^-1], [e, f]
    times q - q^-1; all zero for a valid rep."""
    ke, ef, kk = _relations(rep.E, rep.F, rep.K, rep.Kinv)
    kf = la.lau_lin([(_LAURENT_ONE, la.lau_mul(rep.K, rep.F)), ({-2: -1}, la.lau_mul(rep.F, rep.K))])
    return {
        "ke=q2ek": ke,
        "kf=q-2fk": kf,
        "[e,f]": ef,
        "kk-1": kk,
        "e^dim": reduce(la.lau_mul, [rep.E] * rep.dim),
        "f^dim": reduce(la.lau_mul, [rep.F] * rep.dim),
    }


def test_twice():
    assert twice(HALF) == 1
    assert twice(2) == 4
    assert twice(1.5) == 3
    with pytest.raises(ValueError):
        twice(Fraction(1, 3))
    with pytest.raises(ValueError):
        twice(-1)


def test_make_rep_half():
    rep = make_rep(HALF)
    assert qs_matrix(rep.E) == [[ZERO, ONE], [ZERO, ZERO]]
    assert qs_matrix(rep.F) == [[ZERO, ZERO], [ONE, ZERO]]
    assert qs_matrix(rep.K) == [[Q, ZERO], [ZERO, QINV]]


def test_make_rep_spin_one_lowering():
    rep = make_rep(1)
    # E v_1 = [1][2] v_0 = (q + q^-1) v_0
    E, F = qs_matrix(rep.E), qs_matrix(rep.F)
    assert E[0][1] == Q + QINV
    assert F[1][0] == ONE and F[2][1] == ONE


def test_make_rep_trivial():
    rep = make_rep(0)
    assert qs_matrix(rep.E) == [[ZERO]] and qs_matrix(rep.F) == [[ZERO]] and qs_matrix(rep.K) == [[ONE]]


@pytest.mark.parametrize("two_j", range(0, 7))
def test_rep_relations(two_j):
    rep = make_rep(Fraction(two_j, 2))
    for name, res in rep_relations_residuals(rep).items():
        assert la.lau_is_zero(res), name


def test_q_exp_half():
    rep = make_rep(HALF)
    M = q_exp_nilpotent(qs_matrix(rep.E), "t", 2, ("t",))
    assert str(M[0][1]) == "t" and str(M[0][0]) == "1"


def test_q_exp_spin_one_f():
    rep = make_rep(1)
    M = q_exp_nilpotent(qs_matrix(rep.F), "s", -2, ("s",))
    # I + sF + s^2 F^2 / (2)_{q^-2}
    from tau_forge.qscalar import paren_factorial

    coeff = paren_factorial(2, -2).inv()
    assert M[2][0].coefficient((2,)) == coeff


def test_q_exp_rejects_non_nilpotent():
    rep = make_rep(HALF)
    with pytest.raises(NonNilpotentError):
        q_exp_nilpotent(qs_matrix(rep.K), "t", 2, ("t",))
    with pytest.raises(NonNilpotentError):
        _q_exp((("k",),), (1,))


def test_q_exp_is_built_once_per_argument(fresh_caches):
    M = _q_exp((("e",),), (3,))
    # equal arguments hit the cache; another leg or spin is its own build
    assert _q_exp((("e",),), (3,)) is M
    assert _q_exp((("f",),), (3,)) is not M
    assert _q_exp((("e",),), (2,)) is not M
    # every argument the checks ask for is built once
    for check_id in ("vertex.qexp-commutation", "hopf.matrices"):
        (rep,) = run_check(check_id)
        assert rep.verdict
    info = _q_exp.cache_info()
    assert info.misses == info.currsize
    run_check("vertex.qexp-commutation")
    run_check("hopf.matrices")
    assert _q_exp.cache_info().misses == info.misses


def test_checks_leave_the_cached_q_exp_unchanged(fresh_caches):
    # the cache hands one tuple of powers to every caller, so no caller may
    # write to it
    M = _q_exp((("e",),), (3,))
    before = [[{j: dict(p) for j, p in row.items()} for row in power] for power in M]
    for check_id in ("vertex.qexp-commutation", "hopf.matrices"):
        (rep,) = run_check(check_id)
        assert rep.verdict
    assert _q_exp((("e",),), (3,)) is M
    assert [[{j: dict(p) for j, p in row.items()} for row in power] for power in M] == before


def test_q_exp_at_zero_is_identity():
    rep = make_rep(Fraction(3, 2))
    M = q_exp_nilpotent(qs_matrix(rep.E), "t", 2, ("t",))
    for i in range(rep.dim):
        for j in range(rep.dim):
            val = M[i][j].constant_term()
            assert val == (ONE if i == j else ZERO)
    assert _q_exp((("e",),), (3,))[0] == la.lau_identity(rep.dim)


@pytest.mark.parametrize(
    "j,jp", [(HALF, HALF), (1, HALF), (0, 0), (1, 1), (HALF, 1)]
)
def test_hopf_matrices(j, jp):
    assert verify_hopf_matrices(j, jp).verdict


def test_weight_grading_conjugation():
    # K exp_{q^2}(t E) K^-1 = exp_{q^2}(q^2 t E)
    for j in (HALF, 1, Fraction(3, 2)):
        rep = make_rep(j)
        M = q_exp_nilpotent(qs_matrix(rep.E), "t", 2, ("t",))
        lhs = la.mat_mul(tp_lift(qs_matrix(rep.K), ("t",)), la.mat_mul(M, tp_lift(qs_matrix(rep.Kinv), ("t",))))
        rhs = tp_scale_var(M, "t", Q * Q)
        assert all(x.is_zero() for row in la.mat_sub(lhs, rhs) for x in row)


def test_hopf_matrices_fail_with_mutated_coproduct(monkeypatch):
    # D(e) = e ox 1 + k ox e in place of k^{-1} ox e: S(e) + S(k) e != 0
    from tau_forge import uqsl2
    from tau_forge.cli import run_check

    monkeypatch.setitem(uqsl2.COPRODUCT, "e", (("k", "e"), ("e", "one")))
    (report,) = run_check("hopf.matrices")
    assert not report.verdict
    assert "failed antipode axiom on e" in report.residual


def test_antipode_axiom_is_checked_once_per_distinct_spin(monkeypatch):
    # D(k^-1) = k ox k^-1 fails (d) on kinv; a pair of equal spins has one
    # factor representation, so the failure is listed once
    from tau_forge import uqsl2

    monkeypatch.setitem(uqsl2.COPRODUCT, "kinv", (("k", "kinv"),))
    details = verify_hopf_matrices(HALF, HALF).details
    assert details.count("failed antipode axiom on kinv at spin 1/2") == 1
    details = verify_hopf_matrices(HALF, 1).details
    assert "failed antipode axiom on kinv at spin 1/2" in details
    assert "failed antipode axiom on kinv at spin 1" in details
