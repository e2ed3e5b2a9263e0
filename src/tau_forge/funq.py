"""Matrix elements of the quantized SL2 function algebra, two ways.

The spin-j matrix of coordinate functions T^(j) is produced on two routes:

* ``abstract`` - over the :func:`~tau_forge.ncalg.funq_sl2` presentation,
  by recursion on the spin: T^(j) is the spin-j block of the ordered entry
  products of T^(j-1/2) and T^(1/2), cut out by the intertwiners between V_j
  and V_{j-1/2} ox V_{1/2} (first tensor factor's element leftmost
  throughout).  The same contraction for other spin pairs is the
  corepresentation check.
* ``gauss`` - over the :func:`~tau_forge.ncalg.gauss_param` parameter algebra,
  as the factorized group-like element
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

from dataclasses import dataclass
from fractions import Fraction

from . import linalg as la
from .ncalg import (
    FROZEN_GAUSS_CONVENTION,
    GAUSS_CONVENTIONS,
    NCPoly,
    Presentation,
    funq_sl2,
    gauss_param,
)
from .qscalar import ONE, Q, QINV, ZERO, q_number
from .report import VerificationReport
from .uqsl2 import coproduct, make_rep, q_exp_nilpotent, twice

SCALAR_PRESENTATION = Presentation("scalar", (), {})


# ---------------------------------------------------------------------------
# two-factor embeddings and the spin-j recursion
# ---------------------------------------------------------------------------

_EMBED_CACHE = {}


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
    key = (twice(j1), twice(j2))
    cached = _EMBED_CACHE.get(key)
    if cached is not None:
        return cached
    repA, repB = (make_rep(Fraction(tj, 2)) for tj in key)
    two_J = sum(key)
    dim_T = repA.dim * repB.dim
    delta = coproduct(repA, repB)
    dF = delta[1]
    # iota column r = (Delta F)^r applied to the tensor highest weight vector
    vec = [ONE] + [ZERO] * (dim_T - 1)
    cols = [vec]
    for _ in range(two_J):
        vec = [sum((dF[i][t] * vec[t] for t in range(dim_T) if not vec[t].is_zero()), ZERO) for i in range(dim_T)]
        cols.append(vec)
    iota = [[cols[r][i] for r in range(two_J + 1)] for i in range(dim_T)]
    pi = la.intertwiner(make_rep(Fraction(two_J, 2)).action, delta)
    pi = la.mat_scale(pi, pi[0][0].inv())
    _EMBED_CACHE[key] = (iota, pi)
    return iota, pi


def _top_block(semA, semB):
    """Spin-(j+j') block of the ordered entry products of the semantic
    matrices T^(j) and T^(j'):

        out[m][r] = sum pi[m][(b1, b2)] iota[(k1, k2)][r] T^(j)_{b1 k1} T^(j')_{b2 k2}

    with (iota, pi) = embed_chain(j, j'), the T^(j) entry leftmost.
    """
    dimA, dimB = len(semA), len(semB)
    iota, pi = embed_chain(Fraction(dimA - 1, 2), Fraction(dimB - 1, 2))
    dim = dimA + dimB - 1
    pres = semA[0][0].pres
    out = [[NCPoly.zero(pres) for _ in range(dim)] for _ in range(dim)]
    for m in range(dim):
        for r in range(dim):
            acc = out[m][r]
            for b in range(dimA * dimB):
                pm = pi[m][b]
                if pm.is_zero():
                    continue
                for k in range(dimA * dimB):
                    c = pm * iota[k][r]
                    if c.is_zero():
                        continue
                    acc = acc + semA[b // dimB][k // dimB].mul(semB[b % dimB][k % dimB]).scale(c)
            out[m][r] = acc
    return out


# ---------------------------------------------------------------------------
# T-matrices
# ---------------------------------------------------------------------------

_TSEM_CACHE = {}


def _nc_gen(name):
    return NCPoly.generator(funq_sl2(), name)


def _semantic_abstract(two_j):
    """Semantic spin-j matrix over the abstract presentation: entry (m, r)
    pairs bra index m with ket index r.  For 2j >= 2 it is the top block of
    T^(j-1/2) and T^(1/2)."""
    if two_j == 0:
        return [[NCPoly.one(funq_sl2())]]
    if two_j == 1:
        return [
            [_nc_gen("a"), _nc_gen("c")],
            [_nc_gen("b"), _nc_gen("d")],
        ]
    return _top_block(_semantic_t(two_j - 1), _semantic_t(1))


def _semantic_gauss(two_j, convention=None):
    convention = convention or FROZEN_GAUSS_CONVENTION
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


def _semantic_t(two_j, route="abstract", convention=None):
    key = (two_j, route, convention)
    cached = _TSEM_CACHE.get(key)
    if cached is None:
        if route == "abstract":
            cached = _semantic_abstract(two_j)
        elif route == "gauss":
            cached = _semantic_gauss(two_j, convention)
        else:
            raise ValueError(f"unknown route {route!r}")
        _TSEM_CACHE[key] = cached
    return cached


def t_matrix(j, route="abstract", convention=None):
    """Public spin-j matrix of coordinate functions (see module docstring
    for the index convention); spin 1/2 on the abstract route is exactly
    [[a, b], [c, d]]."""
    two_j = twice(j)
    sem = _semantic_t(two_j, route, convention)
    return la.mat_transpose(sem)


@dataclass(frozen=True)
class GaussModel:
    """Spin-1/2 coordinate images in the parameter algebra."""

    convention: str
    a: NCPoly
    b: NCPoly
    c: NCPoly
    d: NCPoly

    @classmethod
    def build(cls, convention=None):
        convention = convention or FROZEN_GAUSS_CONVENTION
        M = t_matrix(Fraction(1, 2), "gauss", convention)
        return cls(convention=convention, a=M[0][0], b=M[0][1], c=M[1][0], d=M[1][1])


# ---------------------------------------------------------------------------
# tau as an element of the function algebra
# ---------------------------------------------------------------------------


def tau_q(j, e_var, f_var, vars):
    """tau_j with the e-side flow in slot 1 and the f-side flow in slot 2:

        tau_j(u, x) = sum_{m,r} [exp_{q^2}(u E)]_{0m} T~_{mr} [exp_{q^-2}(x F)]_{r0}

    over the semantic (bra-row) matrix T~ of the abstract route; for j = 1/2
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
    g = GaussModel.build(convention)
    out = {}
    for name, fn in _F_RELATIONS:
        out[name] = fn(g.a, g.b, g.c, g.d)
    return out


def counit_map():
    """Generator images under a -> 1, b -> 0, c -> 0, d -> 1."""
    one = NCPoly.one(SCALAR_PRESENTATION)
    zero = NCPoly.zero(SCALAR_PRESENTATION)
    return {"a": one, "d": one, "b": zero, "c": zero}


def verify_funq(route, j=None, jp=None):
    """Named checks on the function-algebra constructions.

    * ``gauss_relations`` - the defining relations hold for the factorized
      group-like entries on exactly one convention toggle (the frozen one).
    * ``corep`` - the spin-(j+jp) block of the ordered entry products of
      T^(j) and T^(jp) equals T^(j+jp) (group-like/corepresentation law).
    * ``dual_route`` - substituting the gauss spin-1/2 entries into the
      abstract T^(j) reproduces the gauss T^(j).
    """
    if route == "gauss_relations":
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
    if route == "corep":
        two_j, two_jp = twice(j), twice(jp)
        res = corep_residual(two_j, two_jp)
        bad = [(m, r) for m in range(len(res)) for r in range(len(res)) if not res[m][r].is_zero()]
        return VerificationReport(
            check_id="funq.corep",
            verdict=not bad,
            residual="" if not bad else f"nonzero entries at {bad[:6]}",
            params={"j": Fraction(two_j, 2), "jp": Fraction(two_jp, 2)},
        )
    if route == "dual_route":
        two_j = twice(j)
        res = dual_route_residuals(two_j)
        bad = [(m, r) for m in range(len(res)) for r in range(len(res)) if not res[m][r].is_zero()]
        return VerificationReport(
            check_id="funq.dual-route",
            verdict=not bad,
            residual="" if not bad else f"nonzero entries at {bad[:6]}",
            params={"j": Fraction(two_j, 2)},
        )
    raise ValueError(f"unknown verify_funq route {route!r}")


def corep_residual(two_j, two_jp):
    """Semantic residual of the corepresentation law for the pair (j, j')."""
    block = _top_block(_semantic_t(two_j), _semantic_t(two_jp))
    return la.mat_sub(block, _semantic_t(two_j + two_jp))


def dual_route_residuals(two_j):
    """Entrywise difference between the generator-substituted abstract matrix
    and the factorized gauss matrix at spin j, on the frozen convention."""
    gm = GaussModel.build()
    images = {"a": gm.a, "b": gm.b, "c": gm.c, "d": gm.d}
    A = t_matrix(Fraction(two_j, 2), "abstract")
    G = t_matrix(Fraction(two_j, 2), "gauss", gm.convention)
    out = []
    for ra, rg in zip(A, G):
        row = []
        for x, g in zip(ra, rg):
            row.append(x.apply_generator_map(images) - g)
        out.append(row)
    return out


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
