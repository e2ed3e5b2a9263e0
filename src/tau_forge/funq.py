"""Matrix elements of the quantized SL2 function algebra, two ways.

The spin-j matrix of coordinate functions T^(j) is produced two ways:

* :func:`t_matrix` - over the :func:`~tau_forge.ncalg.funq_sl2` presentation,
  by recursion on the spin: T^(j) is the spin-j block of the ordered entry
  products of T^(j-1/2) and T^(1/2), cut out by the intertwiners between V_j
  and V_{j-1/2} ox V_{1/2} (first tensor factor's element leftmost
  throughout).  The same contraction for other spin pairs is the
  corepresentation check.
* :func:`gauss_t_matrix` - over the :func:`~tau_forge.ncalg.gauss_param`
  parameter algebra, as the factorized group-like element
  exp_{q^-2}((q-q^-1) e ox s) . Q-diagonal . exp_{q^2}(-(q-q^-1) f ox sbar)
  evaluated in the spin-j representation, the diagonal being Q^{2(j-r)}.

Entry (m, r) of the public matrix contracts with the f-side flow on m and the
e-side flow on r, so that the spin-1/2 matrix reads [[a, b], [c, d]] while

    tau_j(u, x) = <top| exp_{q^2}(u e) . exp_{q^-2}(x f) |top>

expands to a + b u + c x + d u x for j = 1/2.  Under the weight grading
deg a = (1,1), deg b = (1,-1), deg c = (-1,1), deg d = (-1,-1) the entry
(m, r) is homogeneous of degree (2(j-m), 2(j-r)).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from . import linalg as la
from .ncalg import (
    FROZEN_GAUSS_CONVENTION,
    GAUSS_CONVENTIONS,
    NCPoly,
    Presentation,
    funq_sl2,
    gauss_param,
)
from .qscalar import ONE, Q, QINV, q_number
from .report import VerificationReport
from .uqsl2 import coproduct, make_rep, q_exp_nilpotent, twice

SCALAR_PRESENTATION = Presentation("scalar", (), {})


# ---------------------------------------------------------------------------
# two-factor embeddings and the spin-j recursion
# ---------------------------------------------------------------------------

def embed_chain(j1, j2):
    """Embedding/projection pair between V_{j1+j2} and V_{j1} ox V_{j2}.

    iota sends the highest weight vector to the product of highest weight
    vectors and intertwines the coproduct action
    (:func:`~tau_forge.uqsl2.coproduct`); pi is the intertwiner the other way,
    from :func:`~tau_forge.linalg.intertwiner`.  The top spin j1 + j2 occurs
    exactly once in the tensor product, so pi is unique up to scale and
    pi . iota is a scalar (Schur); since column 0 of iota is the tensor
    highest weight vector, scaling pi by 1/pi[0][0] gives pi . iota = identity.
    Index (b1, b2) of the tensor product is b1 * dim V_{j2} + b2.
    """
    return _embed(twice(j1), twice(j2))


@cache
def _embed(tj1, tj2):
    repA, repB = make_rep(Fraction(tj1, 2)), make_rep(Fraction(tj2, 2))
    two_J = tj1 + tj2
    dim_T = repA.dim * repB.dim
    delta = coproduct(repA, repB)
    # iota column r = (Delta F)^r applied to the tensor highest weight vector
    col = la.zeros(dim_T, 1)
    col[0][0] = ONE
    cols = [col]
    for _ in range(two_J):
        cols.append(la.mat_mul(delta[1], cols[-1]))
    iota = [[c[i][0] for c in cols] for i in range(dim_T)]
    pi = la.intertwiner(make_rep(Fraction(two_J, 2)).action, delta)
    pi = la.mat_scale(pi, pi[0][0].inv())
    return iota, pi


def _top_block(semA, semB):
    """Spin-(j+j') block of the ordered entry products of the semantic
    matrices T^(j) and T^(j'):

        out[m][r] = sum pi[m][(b1, b2)] iota[(k1, k2)][r] T^(j)_{b1 k1} T^(j')_{b2 k2}

    with (iota, pi) = embed_chain(j, j'), the T^(j) entry leftmost.
    """
    iota, pi = embed_chain(Fraction(len(semA) - 1, 2), Fraction(len(semB) - 1, 2))
    return la.mat_mul(la.mat_mul(pi, la.kron(semA, semB)), iota)


# ---------------------------------------------------------------------------
# T-matrices
# ---------------------------------------------------------------------------


def _nc_gen(name):
    return NCPoly.generator(funq_sl2(), name)


@cache
def _semantic_t(two_j):
    """Semantic spin-j matrix over funq_sl2: entry (m, r) pairs bra index m
    with ket index r.  For 2j >= 2 it is the top block of T^(j-1/2) and
    T^(1/2)."""
    if two_j == 0:
        return [[NCPoly.one(funq_sl2())]]
    if two_j == 1:
        return [
            [_nc_gen("a"), _nc_gen("c")],
            [_nc_gen("b"), _nc_gen("d")],
        ]
    return _top_block(_semantic_t(two_j - 1), _semantic_t(1))


@cache
def _semantic_gauss(two_j, convention):
    pres = gauss_param(convention)
    rep = make_rep(Fraction(two_j, 2))
    dim = rep.dim
    lam = Q - QINV

    def weight(letter, coeff, base):
        """m -> the normal-ordered word (coeff letter)^m / (m)_{q^base}!."""
        return lambda m: NCPoly.word(
            pres, (letter,) * m, coeff=coeff**m * q_number("paren_factorial", m, base).inv()
        )

    one, zero = NCPoly.one(pres), NCPoly.zero(pres)
    R = la.nilpotent_exp(rep.E, weight("s", lam, -2), one, zero)
    Rbar = la.nilpotent_exp(rep.F, weight("sbar", -lam, 2), one, zero)
    K = la.zeros(dim, dim, zero)
    for r in range(dim):
        k = two_j - 2 * r
        word = ("Q",) * k if k >= 0 else ("Qinv",) * (-k)
        K[r][r] = NCPoly.word(pres, word)
    return la.mat_mul(la.mat_mul(R, K), Rbar)


def t_matrix(j):
    """Public spin-j matrix of coordinate functions over funq_sl2 (see the
    module docstring for the index convention); spin 1/2 is exactly
    [[a, b], [c, d]]."""
    return la.mat_transpose(_semantic_t(twice(j)))


def gauss_t_matrix(j, convention=FROZEN_GAUSS_CONVENTION):
    """Public spin-j matrix of the factorized group-like element over
    gauss_param(convention), in the index convention of :func:`t_matrix`."""
    return la.mat_transpose(_semantic_gauss(twice(j), convention))


# ---------------------------------------------------------------------------
# tau as an element of the function algebra
# ---------------------------------------------------------------------------


def tau_q(j, e_var, f_var, vars):
    """tau_j with the e-side flow in slot 1 and the f-side flow in slot 2:

        tau_j(u, x) = sum_{m,r} [exp_{q^2}(u E)]_{0m} T~_{mr} [exp_{q^-2}(x F)]_{r0}

    over the semantic (bra-row) matrix T~ of :func:`t_matrix`; for j = 1/2
    this is a + b u + c x + d u x.  tau_0 = 1.
    """
    if e_var == f_var:
        raise ValueError("e_var and f_var must differ")
    two_j = twice(j)
    vars = tuple(vars)
    pres_poly = _semantic_t(two_j)
    rep = make_rep(Fraction(two_j, 2))
    erow = q_exp_nilpotent(rep.E, e_var, 2, vars)[0]
    fexp = q_exp_nilpotent(rep.F, f_var, -2, vars)
    fcol = [fexp[i][0] for i in range(rep.dim)]
    pres = pres_poly[0][0].pres
    acc = NCPoly.zero(pres, vars)
    for m in range(rep.dim):
        em = erow[m]
        if em.is_zero():
            continue
        for r in range(rep.dim):
            tp = em * fcol[r]
            if tp.is_zero():
                continue
            entry = pres_poly[m][r]
            if entry.is_zero():
                continue
            lifted = {}
            for w, t in entry.terms.items():
                scaled = tp.scale(t.constant_term())
                if not scaled.is_zero():
                    lifted[w] = scaled
            acc = acc + NCPoly(pres, vars, lifted)
    return acc


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

_F_RELATIONS = (
    ("ab=q^-1 ba", lambda A, B, C, D: A.mul(B) - B.mul(A).scale(QINV)),
    ("ac=q^-1 ca", lambda A, B, C, D: A.mul(C) - C.mul(A).scale(QINV)),
    ("bd=q^-1 db", lambda A, B, C, D: B.mul(D) - D.mul(B).scale(QINV)),
    ("cd=q^-1 dc", lambda A, B, C, D: C.mul(D) - D.mul(C).scale(QINV)),
    ("bc=cb", lambda A, B, C, D: B.mul(C) - C.mul(B)),
    ("ad-q^-1 bc=1", lambda A, B, C, D: A.mul(D) - B.mul(C).scale(QINV) - NCPoly.one(A.pres, A.vars)),
    ("da-q bc=1", lambda A, B, C, D: D.mul(A) - B.mul(C).scale(Q) - NCPoly.one(A.pres, A.vars)),
)


def gauss_relation_residuals(convention):
    (a, b), (c, d) = gauss_t_matrix(Fraction(1, 2), convention)
    return {name: fn(a, b, c, d) for name, fn in _F_RELATIONS}


def counit_map():
    """Generator images under a -> 1, b -> 0, c -> 0, d -> 1."""
    one = NCPoly.one(SCALAR_PRESENTATION)
    zero = NCPoly.zero(SCALAR_PRESENTATION)
    return {"a": one, "d": one, "b": zero, "c": zero}


def verify_gauss_relations():
    """The defining relations hold for the factorized group-like entries on
    exactly one convention toggle, the frozen one: the other convention must
    FAIL them, or the check cannot tell the two apart."""
    details = []
    ok_frozen = True
    other_fails = False
    for conv in GAUSS_CONVENTIONS:
        residuals = gauss_relation_residuals(conv)
        bad = [name for name, r in residuals.items() if not r.is_zero()]
        if conv == FROZEN_GAUSS_CONVENTION:
            ok_frozen = not bad
            details.extend(f"[{conv}] residual {name} != 0" for name in bad)
        else:
            other_fails = bool(bad)
            if not bad:
                details.append(f"[{conv}] unexpectedly also satisfies all relations")
    verdict = ok_frozen and other_fails
    return VerificationReport(
        check_id="funq.gauss-relations",
        verdict=verdict,
        residual="" if verdict else "; ".join(details),
        params={"frozen": FROZEN_GAUSS_CONVENTION},
        details=details,
    )


def verify_corep(j, jp):
    """The spin-(j+jp) block of the ordered entry products of T^(j) and
    T^(jp) equals T^(j+jp) (group-like/corepresentation law)."""
    two_j, two_jp = twice(j), twice(jp)
    return _zero_matrix_report(
        "funq.corep", corep_residual(two_j, two_jp), {"j": Fraction(two_j, 2), "jp": Fraction(two_jp, 2)}
    )


def verify_dual_route(j):
    """Substituting the gauss spin-1/2 entries into the abstract T^(j)
    reproduces the gauss T^(j)."""
    two_j = twice(j)
    return _zero_matrix_report("funq.dual-route", dual_route_residuals(two_j), {"j": Fraction(two_j, 2)})


def _zero_matrix_report(check_id, res, params):
    bad = [(m, r) for m in range(len(res)) for r in range(len(res)) if not res[m][r].is_zero()]
    return VerificationReport(
        check_id=check_id,
        verdict=not bad,
        residual="" if not bad else f"nonzero entries at {bad[:6]}",
        params=params,
    )


def corep_residual(two_j, two_jp):
    """Semantic residual of the corepresentation law for the pair (j, j')."""
    block = _top_block(_semantic_t(two_j), _semantic_t(two_jp))
    return la.mat_sub(block, _semantic_t(two_j + two_jp))


def dual_route_residuals(two_j):
    """Entrywise difference between the generator-substituted T^(j) of
    :func:`t_matrix` and :func:`gauss_t_matrix` at spin j, on the frozen
    convention."""
    (a, b), (c, d) = gauss_t_matrix(Fraction(1, 2))
    images = {"a": a, "b": b, "c": c, "d": d}
    A, G = t_matrix(Fraction(two_j, 2)), gauss_t_matrix(Fraction(two_j, 2))
    return [[x.apply_generator_map(images) - g for x, g in zip(ra, rg)] for ra, rg in zip(A, G)]


# ---------------------------------------------------------------------------
# gradings
# ---------------------------------------------------------------------------

_GEN_DEGREE = {"a": (1, 1), "b": (1, -1), "c": (-1, 1), "d": (-1, -1)}


def entry_grading_ok(j, m, r, poly):
    """Entry (m, r) of the public matrix must be homogeneous of degree
    (2(j-m), 2(j-r)) under the generator weight grading."""
    two_j = twice(j)
    want = (two_j - 2 * m, two_j - 2 * r)
    for w in poly.terms:
        d0 = sum(_GEN_DEGREE[g][0] for g in w)
        d1 = sum(_GEN_DEGREE[g][1] for g in w)
        if (d0, d1) != want:
            return False
    return True
