"""Finite-dimensional spin-j representations of the quantized sl2.

Conventions (validated by the relation and Hopf checks below):

* basis v_0 .. v_{2j} with v_0 the highest weight vector,
* K v_r = q^{2(j-r)} v_r,
* F v_r = v_{r+1} (so F's matrix is 0/1 on the subdiagonal),
* E v_r = [r]_q [2j-r+1]_q v_{r-1},
* coproduct  D(e) = e ox 1 + k^{-1} ox e,  D(f) = 1 ox f + f ox k,
  D(k) = k ox k,
* antipode   S(e) = -k e,  S(f) = -f k^{-1},  S(k) = k^{-1}, with inverse
  S'(e) = -e k, S'(f) = -k^{-1} f, S'(k) = k^{-1}.

Spins are stored as twice-spin integers; public entry points accept 1/2,
Fraction(1, 2), or the integer/float equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg as la
from .linalg import NonNilpotentError  # noqa: F401  (re-exported; q_exp_nilpotent raises it)
from .ncalg import TimesPoly
from .qscalar import ONE, Q, QINV, QScalar, bracket, q_number
from .report import VerificationReport


def twice(j):
    """Normalize a spin (int, float, Fraction) to the twice-spin integer."""
    tj = Fraction(j) * 2
    if tj.denominator != 1 or tj < 0:
        raise ValueError(f"not a nonnegative half-integer spin: {j!r}")
    return int(tj)


@dataclass(frozen=True)
class Rep:
    two_j: int
    E: list
    F: list
    K: list
    Kinv: list

    @property
    def dim(self):
        return self.two_j + 1

    @property
    def spin(self):
        return Fraction(self.two_j, 2)

    @property
    def action(self):
        """Matrices of e, f, k."""
        return self.E, self.F, self.K


_REP_CACHE = {}


def make_rep(j):
    """The spin-j irreducible representation."""
    two_j = twice(j)
    rep = _REP_CACHE.get(two_j)
    if rep is not None:
        return rep
    n = two_j + 1
    E = la.zeros(n, n)
    F = la.zeros(n, n)
    K = la.zeros(n, n)
    Kinv = la.zeros(n, n)
    for r in range(n):
        K[r][r] = QScalar.q_power(two_j - 2 * r)
        Kinv[r][r] = QScalar.q_power(2 * r - two_j)
        if r + 1 < n:
            F[r + 1][r] = ONE
        if r >= 1:
            E[r - 1][r] = bracket(r) * bracket(two_j - r + 1)
    rep = Rep(two_j, E, F, K, Kinv)
    _REP_CACHE[two_j] = rep
    return rep


def rep_relations_residuals(rep):
    """Residual matrices of the defining relations; all zero for a valid rep."""
    lam = Q - QINV
    n = rep.dim
    res = {}
    res["ke=q2ek"] = la.mat_sub(la.mat_mul(rep.K, rep.E), la.mat_scale(la.mat_mul(rep.E, rep.K), Q * Q))
    res["kf=q-2fk"] = la.mat_sub(la.mat_mul(rep.K, rep.F), la.mat_scale(la.mat_mul(rep.F, rep.K), QINV * QINV))
    ef = la.mat_sub(la.mat_mul(rep.E, rep.F), la.mat_mul(rep.F, rep.E))
    res["[e,f]"] = la.mat_sub(ef, la.mat_scale(la.mat_sub(rep.K, rep.Kinv), lam.inv()))
    res["kk-1"] = la.mat_sub(la.mat_mul(rep.K, rep.Kinv), la.identity(n))
    En = _mat_pow(rep.E, n)
    Fn = _mat_pow(rep.F, n)
    res["e^dim"] = En
    res["f^dim"] = Fn
    return res


def _mat_pow(A, n):
    acc = la.identity(len(A))
    for _ in range(n):
        acc = la.mat_mul(acc, A)
    return acc


# -- tensor products (iterated coproduct acts left-to-right) ----------------


def tensor_e(repA, repB):
    IB = la.identity(repB.dim)
    return la.mat_add(la.kron(repA.E, IB), la.kron(repA.Kinv, repB.E))


def tensor_f(repA, repB):
    IA = la.identity(repA.dim)
    return la.mat_add(la.kron(IA, repB.F), la.kron(repA.F, repB.K))


def tensor_k(repA, repB):
    return la.kron(repA.K, repB.K)


def coproduct(repA, repB):
    """Matrices of Delta(e), Delta(f), Delta(k) on repA ox repB."""
    return tensor_e(repA, repB), tensor_f(repA, repB), tensor_k(repA, repB)


def tensor_kinv(repA, repB):
    return la.kron(repA.Kinv, repB.Kinv)


def antipode_matrices(rep):
    """Matrices of S(e), S(f), S(k) in the representation."""
    return {
        "e": la.mat_neg(la.mat_mul(rep.K, rep.E)),
        "f": la.mat_neg(la.mat_mul(rep.F, rep.Kinv)),
        "k": rep.Kinv,
    }


def antipode_inv_matrices(rep):
    """Matrices of S'(e), S'(f), S'(k) where S' is the inverse antipode."""
    return {
        "e": la.mat_neg(la.mat_mul(rep.E, rep.K)),
        "f": la.mat_neg(la.mat_mul(rep.Kinv, rep.F)),
        "k": rep.Kinv,
    }


# -- q-exponentials ----------------------------------------------------------


def q_exp_nilpotent(A, var, base_power, vars):
    """exp_{q^base}(var * A) for a nilpotent QScalar matrix A, as a TimesPoly
    matrix over ``vars``.

    The series terminates at the nilpotency index; a non-nilpotent input
    raises NonNilpotentError because it would not.
    """
    vars = tuple(vars)

    def weight(m):
        coef = q_number("paren_factorial", m, base_power).inv()
        return TimesPoly.var(vars, var, coeff=coef, power=m)

    return la.nilpotent_exp(A, weight, TimesPoly.one(vars), TimesPoly.zero(vars))


def tp_lift(A, vars):
    """Lift a QScalar matrix to a TimesPoly matrix over ``vars``."""
    return [[TimesPoly.const(vars, x) for x in row] for row in A]


def tp_scale_var(M, name, factor):
    return [[x.scale_var(name, factor) for x in row] for row in M]


# -- Hopf-structure verification ---------------------------------------------


def verify_hopf_matrices(j, jp):
    """Check, in the tensor of spins (j, jp): the defining relations for the
    coproduct images, both q-exponential factorization identities, and the
    antipode axiom on generators.  All checks are exact matrix identities."""
    repA = make_rep(j)
    repB = make_rep(jp)
    details = []
    ok = True
    dE, dF, dK = coproduct(repA, repB)
    dKi = tensor_kinv(repA, repB)
    n = len(dE)
    lam = Q - QINV

    # (a) defining relations hold for the coproduct images
    checks = {
        "delta:ke=q2ek": la.mat_sub(la.mat_mul(dK, dE), la.mat_scale(la.mat_mul(dE, dK), Q * Q)),
        "delta:[e,f]": la.mat_sub(
            la.mat_sub(la.mat_mul(dE, dF), la.mat_mul(dF, dE)),
            la.mat_scale(la.mat_sub(dK, dKi), lam.inv()),
        ),
        "delta:kk^-1": la.mat_sub(la.mat_mul(dK, dKi), la.identity(n)),
    }
    for name, res in checks.items():
        if not la.mat_is_zero(res):
            ok = False
            details.append(f"failed {name}")

    # (b) factorization of exp_{q^2}(t e) under the coproduct
    t_vars = ("t",)
    lhs = q_exp_nilpotent(dE, "t", 2, t_vars)
    IB = la.identity(repB.dim)
    IA = la.identity(repA.dim)
    rhs = la.mat_mul(
        q_exp_nilpotent(la.kron(repA.Kinv, repB.E), "t", 2, t_vars),
        q_exp_nilpotent(la.kron(repA.E, IB), "t", 2, t_vars),
    )
    if not la.mat_is_zero(la.mat_sub(lhs, rhs)):
        ok = False
        details.append("failed factorization of exp_{q^2}(t e)")

    # (c) factorization of exp_{q^-2}(s f)
    s_vars = ("s",)
    lhs = q_exp_nilpotent(dF, "s", -2, s_vars)
    rhs = la.mat_mul(
        q_exp_nilpotent(la.kron(IA, repB.F), "s", -2, s_vars),
        q_exp_nilpotent(la.kron(repA.F, repB.K), "s", -2, s_vars),
    )
    if not la.mat_is_zero(la.mat_sub(lhs, rhs)):
        ok = False
        details.append("failed factorization of exp_{q^-2}(s f)")

    # (d) antipode axiom m(S ox id)Delta(x) = eps(x) 1 on generators,
    #     checked in each factor representation
    for rep in (repA, repB):
        S = antipode_matrices(rep)
        I = la.identity(rep.dim)
        axiom = {
            "e": la.mat_add(la.mat_mul(S["e"], I), la.mat_mul(rep.K, rep.E)),
            "f": la.mat_add(rep.F, la.mat_mul(S["f"], rep.K)),
            "k": la.mat_sub(la.mat_mul(S["k"], rep.K), I),
        }
        for name, res in axiom.items():
            if not la.mat_is_zero(res):
                ok = False
                details.append(f"failed antipode axiom on {name} at spin {rep.spin}")

    return VerificationReport(
        check_id="hopf.matrices",
        verdict=ok,
        residual="" if ok else "; ".join(details),
        params={"j": Fraction(twice(j), 2), "jp": Fraction(twice(jp), 2)},
        details=details,
    )
