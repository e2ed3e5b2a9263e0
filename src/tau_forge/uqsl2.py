"""Finite-dimensional spin-j representations of the quantized sl2.

Conventions (validated by the relation and Hopf checks below):

* basis v_0 .. v_{2j} with v_0 the highest weight vector,
* K v_r = q^{2(j-r)} v_r,
* F v_r = v_{r+1} (so F's matrix is 0/1 on the subdiagonal),
* E v_r = [r]_q [2j-r+1]_q v_{r-1}.

The Hopf structure is stated once, here: ``COPRODUCT`` lists the summands
of D(e) = k^{-1} ox e + e ox 1, D(f) = 1 ox f + f ox k, D(k) = k ox k and
D(k^{-1}), each leg named e, f, k, kinv or one (``Rep.legs``);
``antipode_matrices`` gives S(e) = -k e, S(f) = -f k^{-1}, S(k) = k^{-1} and
``antipode_inv_matrices`` its inverse S'(e) = -e k, S'(f) = -k^{-1} f,
S'(k) = k^{-1}, both for every leg name; ``COUNIT`` gives eps.  Every
tensor product, Hopf check and antipode-twisted vertex relation reads these
tables.

Spins are stored as twice-spin integers; public entry points accept 1/2,
Fraction(1, 2), or the integer/float equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, reduce

from . import linalg as la
from .linalg import NonNilpotentError  # noqa: F401  (re-exported; q_exp_nilpotent raises it)
from .ncalg import TimesPoly
from .qscalar import ONE, Q, QINV, QScalar, bracket, paren_factorial, qs
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

    @cached_property
    def legs(self):
        """Matrix of each coproduct leg by name."""
        return {"e": self.E, "f": self.F, "k": self.K, "kinv": self.Kinv, "one": la.identity(self.dim)}


def make_rep(j):
    """The spin-j irreducible representation."""
    return _rep(twice(j))


@cache
def _rep(two_j):
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
    return Rep(two_j, E, F, K, Kinv)


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
    res["e^dim"] = reduce(la.mat_mul, [rep.E] * n)
    res["f^dim"] = reduce(la.mat_mul, [rep.F] * n)
    return res


# -- the Hopf structure -------------------------------------------------------

# D(x) = sum x1 ox x2; the summands of D(e) and D(f) are listed in the order
# in which exp(D(x)) factors into the exponentials of the summands
COPRODUCT = {
    "e": (("kinv", "e"), ("e", "one")),
    "f": (("one", "f"), ("f", "k")),
    "k": (("k", "k"),),
    "kinv": (("kinv", "kinv"),),
}
COUNIT = {"e": 0, "f": 0, "k": 1, "kinv": 1}


def _delta(x, repA, repB):
    """The matrix of D(x) on repA ox repB."""
    A, B = repA.legs, repB.legs
    return reduce(la.mat_add, [la.kron(A[x1], B[x2]) for x1, x2 in COPRODUCT[x]])


def coproduct(repA, repB):
    """Matrices of Delta(e), Delta(f), Delta(k) on repA ox repB."""
    return tuple(_delta(x, repA, repB) for x in "efk")


def antipode_matrices(rep):
    """Matrices of S(x) in the representation, for every leg name x."""
    return {
        "e": la.mat_neg(la.mat_mul(rep.K, rep.E)),
        "f": la.mat_neg(la.mat_mul(rep.F, rep.Kinv)),
        "k": rep.Kinv,
        "kinv": rep.K,
        "one": rep.legs["one"],
    }


def antipode_inv_matrices(rep):
    """Matrices of S'(x), S' the inverse antipode, for every leg name x."""
    return {
        "e": la.mat_neg(la.mat_mul(rep.E, rep.K)),
        "f": la.mat_neg(la.mat_mul(rep.Kinv, rep.F)),
        "k": rep.Kinv,
        "kinv": rep.K,
        "one": rep.legs["one"],
    }


# -- q-exponentials ----------------------------------------------------------


def q_exp_nilpotent(A, var, base_power, vars):
    """exp_{q^base}(var * A) for a nilpotent QScalar matrix A, as a TimesPoly
    matrix over ``vars``.

    The series terminates at the nilpotency index; a non-nilpotent input
    raises NonNilpotentError because it would not.  Equal arguments return
    the same cached matrix, which callers only read.
    """
    return _q_exp(tuple(map(tuple, A)), var, base_power, tuple(vars))


@cache
def _q_exp(A, var, base_power, vars):
    def weight(m):
        coef = paren_factorial(m, base_power).inv()
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
    dE, dF, dK = coproduct(repA, repB)
    dKi = _delta("kinv", repA, repB)
    lam = Q - QINV

    # (a) defining relations hold for the coproduct images
    checks = {
        "delta:ke=q2ek": la.mat_sub(la.mat_mul(dK, dE), la.mat_scale(la.mat_mul(dE, dK), Q * Q)),
        "delta:[e,f]": la.mat_sub(
            la.mat_sub(la.mat_mul(dE, dF), la.mat_mul(dF, dE)),
            la.mat_scale(la.mat_sub(dK, dKi), lam.inv()),
        ),
        "delta:kk^-1": la.mat_sub(la.mat_mul(dK, dKi), la.identity(len(dE))),
    }
    details += [f"failed {name}" for name, res in checks.items() if not la.mat_is_zero(res)]

    # (b), (c) exp_{q^2}(t D(e)) and exp_{q^-2}(s D(f)) are the products of
    # the exponentials of their summands, in COPRODUCT order
    A, B = repA.legs, repB.legs
    for x, var, base, label in (("e", "t", 2, "exp_{q^2}(t e)"), ("f", "s", -2, "exp_{q^-2}(s f)")):
        lhs = q_exp_nilpotent(_delta(x, repA, repB), var, base, (var,))
        factors = [q_exp_nilpotent(la.kron(A[x1], B[x2]), var, base, (var,)) for x1, x2 in COPRODUCT[x]]
        if not la.mat_is_zero(la.mat_sub(lhs, reduce(la.mat_mul, factors))):
            details.append(f"failed factorization of {label}")

    # (d) antipode axiom sum S(x1) x2 = eps(x) 1 over each D(x), checked in
    #     each factor representation
    for rep in (repA, repB):
        S, legs = antipode_matrices(rep), rep.legs
        for x, summands in COPRODUCT.items():
            total = reduce(la.mat_add, [la.mat_mul(S[x1], legs[x2]) for x1, x2 in summands])
            if not la.mat_is_zero(la.mat_sub(total, la.mat_scale(legs["one"], qs(COUNIT[x])))):
                details.append(f"failed antipode axiom on {x} at spin {rep.spin}")

    return VerificationReport.from_failures(
        details, params={"j": Fraction(twice(j), 2), "jp": Fraction(twice(jp), 2)}
    )
