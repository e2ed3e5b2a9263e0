"""Matrix elements of the quantized SL2 function algebra, two ways.

The spin-j matrix of coordinate functions T^(j) is produced two ways:

* :func:`t_matrix` - over the :func:`~tau_forge.ncalg.funq_sl2` presentation,
  from one quantum-plane table (:func:`_plane`) that the tau tables read
  too.  The spin-(j+j') block of the ordered entry products of T^(j) and
  T^(j'), cut out by the intertwiners, is the corepresentation check.
* :func:`gauss_t_matrix` - over the :func:`~tau_forge.ncalg.gauss_param`
  parameter algebra, as the factorized group-like element
  exp_{q^-2}((q-q^-1) e ox s) . Q-diagonal . exp_{q^2}(-(q-q^-1) f ox sbar)
  evaluated in the spin-j representation, the diagonal being Q^{2(j-r)}.

Entry (m, r) of the public matrix contracts with the f-side flow on m and the
e-side flow on r, so that the spin-1/2 matrix reads [[a, b], [c, d]] while

    tau_j(u, x) = <top| exp_{q^2}(u e) . exp_{q^-2}(x f) |top>

expands to a + b u + c x + d u x for j = 1/2.  :func:`_tau_table` holds
tau_j once per spin as integer Laurent coefficients by PBW block, with its
l1 norm; the general bilinear identity of ``qhirota`` (``lm``) packs these
tables as integers and reads nothing else of this module, so it meets no
Q(q) arithmetic.  Under the weight grading
deg a = (1,1), deg b = (1,-1), deg c = (-1,1), deg d = (-1,-1) the entry
(m, r) is homogeneous of degree (2(j-m), 2(j-r)).

The representation matrices are Laurent matrices over Z[q, q^-1]
(``uqsl2``).  Q(q) enters as the coefficients of the function-algebra
entries, and in :func:`embed_chain`, which divides the Laurent projection
(:func:`_projection`) by its normalizing entry; the factorized element
reads the powers of E and F from ``uqsl2._q_exp`` and divides them by
their q-factorials there.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from . import linalg as la
from ._kernels import _LAURENT_ONE, _addmul, _laurent_mul, _trim_words
from .ncalg import (
    FROZEN_GAUSS_CONVENTION,
    GAUSS_CONVENTIONS,
    NCPoly,
    Presentation,
    TimesPoly,
    _q2_binomial,
    _times_laurent,
    funq_sl2,
    funq_sl2_blocks,
    gauss_param,
)
from .qscalar import ONE, Q, QINV, QScalar, paren, paren_factorial
from .report import VerificationReport
from .uqsl2 import _q_exp, _rep, coproduct, twice

SCALAR_PRESENTATION = Presentation("scalar", (), {})


# ---------------------------------------------------------------------------
# two-factor embeddings
# ---------------------------------------------------------------------------

def embed_chain(j1, j2):
    """Embedding/projection pair between V_{j1+j2} and V_{j1} ox V_{j2}.

    iota sends the highest weight vector to the product of highest weight
    vectors and intertwines the coproduct action
    (:func:`~tau_forge.uqsl2.coproduct`); pi is the intertwiner the other way,
    solved over Z[q, q^-1] (:func:`_projection`).  The top spin j1 + j2
    occurs exactly once in the tensor product, so pi is unique up to scale
    and pi . iota is a scalar (Schur); since column 0 of iota is the tensor
    highest weight vector, dividing pi by pi[0][0] gives pi . iota =
    identity.  That division is where Q(q) enters; both are QScalar
    matrices.  Index (b1, b2) of the tensor product is b1 * dim V_{j2} + b2.
    """
    return _embed(twice(j1), twice(j2))


@cache
def _projection(tj1, tj2):
    """pi of ``embed_chain`` undivided, a Laurent matrix: the intertwiner
    from V_{j1} ox V_{j2} onto V_{j1+j2}, solved once here for the public
    pi and the vertex operators of ``qvertex``."""
    return la.intertwiner(_rep(tj1 + tj2).action, coproduct(_rep(tj1), _rep(tj2)))


@cache
def _embed(tj1, tj2):
    dim_T = (tj1 + 1) * (tj2 + 1)
    delta_f = coproduct(_rep(tj1), _rep(tj2))[1]
    # iota column r = (Delta F)^r applied to the tensor highest weight vector
    col = [{0: _LAURENT_ONE}] + [{} for _ in range(dim_T - 1)]
    cols = [col]
    for _ in range(tj1 + tj2):
        cols.append(la.lau_mul(delta_f, cols[-1]))
    iota = [{r: c[i][0] for r, c in enumerate(cols) if c[i].get(0)} for i in range(dim_T)]
    pi = _projection(tj1, tj2)
    return la.lau_divided(iota, len(cols), _LAURENT_ONE), la.lau_divided(pi, dim_T, pi[0][0])


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


@cache
def _plane(two_j):
    """P[p][r]: the coefficient of x^(2j-r) y^r in (ax+by)^(2j-p) (cx+dy)^p on
    the quantum plane yx = q xy, as {normal word: {q-exponent: int}}.  As
    ba = q ab gives (by)(ax) = q^2 (ax)(by), the q-binomial theorem gives
    (ax+by)^n = sum_k [n choose k]_{q^2} a^(n-k) b^k x^(n-k) y^k, and
    (cx+dy)^p alike over l; y^k x^(p-l) = q^(k(p-l)) x^(p-l) y^k then puts
    the word a^(n-k) b^k c^(p-l) d^l on r = k + l, normalized once as the
    product of the PBW blocks a^(n-k) b^k c^(p-l) and d^l
    (:func:`~tau_forge.ncalg.funq_sl2_blocks`)."""
    table = [[{} for _ in range(two_j + 1)] for _ in range(two_j + 1)]
    for p, row in enumerate(table):
        n = two_j - p
        for k in range(n + 1):
            for l in range(p + 1):
                w, e, twist, zs = funq_sl2_blocks("a", n - k, "d", l)
                coeff = _laurent_mul({k * (p - l): 1}, _laurent_mul(_q2_binomial(n, k), _q2_binomial(p, l)))
                coeff = _laurent_mul({twist * (k + p - l): 1}, coeff)
                for r, c in zs:
                    word = (w,) * e + ("b",) * (k + r) + ("c",) * (p - l + r)
                    row[k + l][word] = _addmul(row[k + l].get(word, {}), coeff, c)
    return [[_trim_words(entry) for entry in row] for row in table]


@cache
def _semantic_t(two_j):
    """Semantic spin-j matrix over funq_sl2: entry (m, r) pairs bra index m
    with ket index r, and is (D_r / D_m) P[r][m] over :func:`_plane`, with
    D_m = q^(-m(m-1)/2) (2j)_{q^2}! / (2j-m)_{q^2}!.  The plane is a module
    algebra under D(f) = 1 ox f + f ox k, with f x = y, k x = q x,
    k y = q^-1 y, so f(x^n y^p) = q^-p (n)_{q^2} x^(n-1) y^(p+1) and
    make_rep's v_m = F^m x^(2j) is D_m x^(2j-m) y^m.  The coaction
    x -> a ox x + b ox y, y -> c ox x + d ox y is an algebra map: P on the
    monomials, (D_m / D_r) P[m][r] on v, and its transpose here."""
    D = [ONE]
    for m in range(two_j):
        D.append(D[-1] * QScalar.q_power(-m) * paren(two_j - m, 2))
    P = _plane(two_j)

    def entry(m, r):
        ratio = TimesPoly.const((), D[r] / D[m])
        return NCPoly(funq_sl2(), (), {w: _times_laurent(ratio, c) for w, c in P[r][m].items()})

    return [[entry(m, r) for r in range(two_j + 1)] for m in range(two_j + 1)]


@cache
def _semantic_gauss(two_j, convention):
    pres = gauss_param(convention)
    dim = two_j + 1
    lam = Q - QINV
    zero = NCPoly.zero(pres)

    def q_exp(leg, letter, coeff, base):
        """exp_{q^base}(coeff letter x) = sum_m (coeff letter)^m / (m)_{q^base}! x^m
        for the leg x of V_j, from the powers x^m of ``uqsl2._q_exp``."""
        out = la.zeros(dim, dim, zero)
        for m, power in enumerate(_q_exp(((leg,),), (two_j,))):
            w = NCPoly.word(pres, (letter,) * m, coeff=coeff**m * paren_factorial(m, base).inv())
            for i, row in enumerate(power):
                for j, p in row.items():
                    out[i][j] = out[i][j] + w * QScalar.from_terms(p)
        return out

    R = q_exp("e", "s", lam, -2)
    Rbar = q_exp("f", "sbar", -lam, 2)
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
# tau as a table over Z[q, q^-1]
# ---------------------------------------------------------------------------


@cache
def _tau_table(two_j):
    """tau_j over Z[q, q^-1], with the e-side flow u and the f-side flow x:

        tau_j(u, x) = sum_{m,r} [exp_{q^2}(u E)]_{0m} T~_{mr} [exp_{q^-2}(x F)]_{r0}

    over the semantic (bra-row) matrix T~ of :func:`t_matrix`; for j = 1/2
    this is a + b u + c x + d u x, and tau_0 = 1.  The flow entries
    u^m [m]! [2j]! / ([2j-m]! (m)_{q^2}!) and x^r / (r)_{q^-2}! cancel D: the
    coefficient of u^m x^r is q^(r(r-1)/2 - m(2j-m) - m(m-1)/2) times
    [2j choose r]_{q^2} P[r][m], a Laurent polynomial.  Returned as
    ({PBW block: {(m, r, i, k): {q-exponent: int}}}, l1 norm): the
    coefficient of u^m x^r w^n b^i c^k sits under block (w, n), ("a", 0)
    for no a or d, and the norm is the sum of |coefficient| over them all.
    """
    blocks = {}
    for r, row in enumerate(_plane(two_j)):
        for m, entry in enumerate(row):
            shift = r * (r - 1) // 2 - m * (two_j - m) - m * (m - 1) // 2
            scale = _laurent_mul({shift: 1}, _q2_binomial(two_j, r))
            for w, c in entry.items():
                i, k = w.count("b"), w.count("c")
                n = len(w) - i - k
                blocks.setdefault((w[0] if n else "a", n), {})[m, r, i, k] = _laurent_mul(scale, c)
    return blocks, sum(abs(v) for d in blocks.values() for c in d.values() for v in c.values())


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
    for conv in GAUSS_CONVENTIONS:
        residuals = gauss_relation_residuals(conv)
        bad = [name for name, r in residuals.items() if not r.is_zero()]
        if conv == FROZEN_GAUSS_CONVENTION:
            details.extend(f"[{conv}] residual {name} != 0" for name in bad)
        elif not bad:
            details.append(f"[{conv}] unexpectedly also satisfies all relations")
    return VerificationReport.from_failures(details, params={"frozen": FROZEN_GAUSS_CONVENTION})


def verify_corep(j, jp):
    """The spin-(j+jp) block of the ordered entry products of T^(j) and
    T^(jp) equals T^(j+jp) (group-like/corepresentation law)."""
    two_j, two_jp = twice(j), twice(jp)
    return _zero_matrix_report(
        corep_residual(two_j, two_jp), {"j": Fraction(two_j, 2), "jp": Fraction(two_jp, 2)}
    )


def verify_dual_route(j):
    """Substituting the gauss spin-1/2 entries into the abstract T^(j)
    reproduces the gauss T^(j)."""
    two_j = twice(j)
    return _zero_matrix_report(dual_route_residuals(two_j), {"j": Fraction(two_j, 2)})


def _zero_matrix_report(res, params):
    bad = [(m, r) for m in range(len(res)) for r in range(len(res)) if not res[m][r].is_zero()]
    return VerificationReport.from_failures([f"nonzero entries at {bad}"] if bad else [], params)


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
