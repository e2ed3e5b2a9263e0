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

Everything here is over Z[q, q^-1], with no division and no gcd: the
representation matrices E, F, K, K^-1, their coproducts (``_leg_sum``) and
the antipode tables are ``linalg``'s Laurent matrices, the one form of
every U_q(sl2) matrix in the package.  Q(q) enters only in the public
views that divide a Laurent build once: ``funq.embed_chain``,
``funq.t_matrix``, ``funq.gauss_t_matrix`` and
``qvertex.solve_vertex_components``.  A q-exponential
exp_{q^b}(t A) = sum_m t^m A^m / (m)_{q^b}! is kept in divided powers
(``_q_exp``): its t^m coefficient times the scale (m)_{q^b}! is the
Laurent matrix A^m, and a product of two such series has Gaussian binomial
weights.  Each identity is checked as its Q(q) residual times a nonzero
scale (q - q^-1 for [e, f], (m)_{q^b}! in t^m for the factorizations, 1
otherwise); Z[q, q^-1] has no zero divisors, so the scaled residual is zero
exactly when the Q(q) residual is.

Spins are stored as twice-spin integers; public entry points accept 1/2,
Fraction(1, 2), or the integer/float equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, reduce

from . import linalg as la
from ._kernels import _LAURENT_ONE, _laurent_mul, _trim_words
from .ncalg import _q2_binomial
from .qscalar import _q_bracket
from .report import VerificationReport


class NonNilpotentError(ValueError):
    """A nilpotent exponential was handed a matrix that is not nilpotent."""


def twice(j):
    """Normalize a spin (int, float, Fraction) to the twice-spin integer."""
    tj = Fraction(j) * 2
    if tj.denominator != 1 or tj < 0:
        raise ValueError(f"not a nonnegative half-integer spin: {j!r}")
    return int(tj)


@dataclass(frozen=True)
class Rep:
    """A representation: e, f, k, k^-1 as square Laurent matrices."""

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
        return {"e": self.E, "f": self.F, "k": self.K, "kinv": self.Kinv, "one": la.lau_identity(self.dim)}


def make_rep(j):
    """The spin-j irreducible representation."""
    return _rep(twice(j))


@cache
def _rep(two_j):
    n = two_j + 1
    E = [{r + 1: _laurent_mul(_q_bracket(r + 1), _q_bracket(two_j - r))} if r < two_j else {} for r in range(n)]
    F = [{r - 1: _LAURENT_ONE} if r else {} for r in range(n)]
    K = [{r: {two_j - 2 * r: 1}} for r in range(n)]
    Kinv = [{r: {2 * r - two_j: 1}} for r in range(n)]
    return Rep(two_j, E, F, K, Kinv)


def _relations(E, F, K, Kinv):
    """The residuals of k e = q^2 e k, (q - q^-1)[e, f] = k - k^-1 and
    k k^-1 = 1 over Z[q, q^-1]."""
    mm, lin = la.lau_mul, la.lau_lin
    one, neg, lam = _LAURENT_ONE, {0: -1}, {1: 1, -1: -1}
    return (
        lin([(one, mm(K, E)), ({2: -1}, mm(E, K))]),
        lin([(lam, mm(E, F)), (la.lau_neg(lam), mm(F, E)), (neg, K), (one, Kinv)]),
        lin([(one, mm(K, Kinv)), (neg, la.lau_identity(len(K)))]),
    )


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


def _leg_sum(summands, tables):
    """sum over ``summands`` of the Kronecker product of the named legs of
    the leg tables ``tables`` (``Rep.legs``), one leg name per table, as a
    Laurent matrix with no zero term."""
    terms = [(_LAURENT_ONE, reduce(la.lau_kron, [T[x] for T, x in zip(tables, names)])) for names in summands]
    return [_trim_words(row) for row in la.lau_lin(terms)]


def coproduct(repA, repB):
    """Matrices of Delta(e), Delta(f), Delta(k) on repA ox repB."""
    return tuple(_leg_sum(COPRODUCT[x], (repA.legs, repB.legs)) for x in "efk")


def _negated(M):
    return la.lau_lin([({0: -1}, M)])


def antipode_matrices(rep):
    """Matrices of S(x) in the representation, for every leg name x."""
    return {
        "e": _negated(la.lau_mul(rep.K, rep.E)),
        "f": _negated(la.lau_mul(rep.F, rep.Kinv)),
        "k": rep.Kinv,
        "kinv": rep.K,
        "one": rep.legs["one"],
    }


def antipode_inv_matrices(rep):
    """Matrices of S'(x), S' the inverse antipode, for every leg name x."""
    return {
        "e": _negated(la.lau_mul(rep.E, rep.K)),
        "f": _negated(la.lau_mul(rep.Kinv, rep.F)),
        "k": rep.Kinv,
        "kinv": rep.K,
        "one": rep.legs["one"],
    }


# -- q-exponentials ----------------------------------------------------------


@cache
def _q_exp(summands, two_js):
    """exp_{q^b}(t A) over Z[q, q^-1], in divided powers: the powers
    (I, A, ..., A^(n-1)) of A = ``_leg_sum`` of ``summands`` over the
    spins ``two_js``, n its nilpotency index.  exp_{q^b}(t A) =
    sum_m t^m A^m / (m)_{q^b}!, so power m is the t^m coefficient times its
    scale (m)_{q^b}!, for either base b; the base enters only where a
    product or a factor t moves a term between degrees (``_series_mul``,
    ``qscalar._q_paren``).

    The series terminates at n; a non-nilpotent A raises NonNilpotentError,
    because it would not.  Equal arguments return the same cached tuple,
    which callers only read.
    """
    A = _leg_sum(summands, [_rep(tj).legs for tj in two_js])
    powers = [la.lau_identity(len(A))]
    power = A
    while any(power):
        if len(powers) == len(A):
            raise NonNilpotentError("matrix is not nilpotent; the exponential would not terminate")
        powers.append(power)
        power = [_trim_words(row) for row in la.lau_mul(power, A)]
    return tuple(powers)


def _series_mul(S1, S2, base):
    """The product of two divided-power series in t of base q^base:
    t^a/(a)! t^c/(c)! = [a+c choose a]_{q^base} t^(a+c)/(a+c)!, the Gaussian
    binomial of ``ncalg._q2_binomial`` (base 2 or -2)."""
    by_degree = [[] for _ in range(len(S1) + len(S2) - 1)]
    for a, A in enumerate(S1):
        for c, C in enumerate(S2):
            binom = {e * base // 2: v for e, v in _q2_binomial(a + c, a).items()}
            by_degree[a + c].append((binom, la.lau_mul(A, C)))
    return [la.lau_lin(terms) for terms in by_degree]


# -- Hopf-structure verification ---------------------------------------------


def verify_hopf_matrices(j, jp):
    """Check, in the tensor of spins (j, jp): the defining relations for the
    coproduct images, both q-exponential factorization identities, and the
    antipode axiom on generators.  All checks are exact matrix identities."""
    tj, tjp = twice(j), twice(jp)
    details = [
        f"failed {name}" for name, res in _hopf_residuals(tj, tjp) if not all(map(la.lau_is_zero, res))
    ]
    return VerificationReport.from_failures(details, params={"j": Fraction(tj, 2), "jp": Fraction(tjp, 2)})


def _hopf_residuals(tj, tjp):
    """(name, residuals) of each identity of ``verify_hopf_matrices`` over
    Z[q, q^-1], residuals[m] the t^m coefficient of its Q(q) residual times
    a nonzero scale: q - q^-1 for [e, f], (m)_{q^b}! for the factorizations
    of exp_{q^b}, 1 otherwise; so each is zero exactly when the Q(q) one
    is."""
    spins = (tj, tjp)
    mm, lin = la.lau_mul, la.lau_lin
    tables = (_rep(tj).legs, _rep(tjp).legs)
    dE, dF, dK, dKi = (_leg_sum(COPRODUCT[x], tables) for x in ("e", "f", "k", "kinv"))
    one, neg = _LAURENT_ONE, {0: -1}

    # (a) defining relations hold for the coproduct images; [e, f] is
    #     multiplied through by q - q^-1
    names = ("delta:ke=q2ek", "delta:[e,f]", "delta:kk^-1")
    out = [(name, [res]) for name, res in zip(names, _relations(dE, dF, dK, dKi))]

    # (b), (c) exp_{q^2}(t D(e)) and exp_{q^-2}(s D(f)) are the products of
    # the exponentials of their summands, in COPRODUCT order
    for x, base, label in (("e", 2, "exp_{q^2}(t e)"), ("f", -2, "exp_{q^-2}(s f)")):
        lhs = _q_exp(COPRODUCT[x], spins)
        rhs = reduce(lambda S1, S2: _series_mul(S1, S2, base), [_q_exp((s,), spins) for s in COPRODUCT[x]])
        res = [
            lin([(c, S[m]) for c, S in ((one, lhs), (neg, rhs)) if m < len(S)])
            for m in range(max(len(lhs), len(rhs)))
        ]
        out.append((f"factorization of {label}", res))

    # (d) antipode axiom sum S(x1) x2 = eps(x) 1 over each D(x), checked once
    #     in each distinct factor representation
    for t in dict.fromkeys(spins):
        S, legs = antipode_matrices(_rep(t)), _rep(t).legs
        for x, summands in COPRODUCT.items():
            terms = [(one, mm(S[x1], legs[x2])) for x1, x2 in summands] + [({0: -COUNIT[x]}, legs["one"])]
            out.append((f"antipode axiom on {x} at spin {Fraction(t, 2)}", [lin(terms)]))
    return out
