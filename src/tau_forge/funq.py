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

Every check here runs over Z[q, q^-1] and divides nothing.  The plane
table, the diagonal scales D_m (:func:`_d_steps`), the undivided
intertwiners (:func:`_projection`, :func:`_iota`) and the factorized
element times S = (2j)_{q^-2}! (2j)_{q^2}! (:func:`_gauss_scaled`, from the
divided powers of ``uqsl2._q_exp``) are all Laurent.  Their entries
multiply as {normal word: Laurent} by ``ncalg._word_mul``, and each
identity is compared cross-multiplied by its D and factorial scales, so
each residual is the Q(q) one times a nonzero scale per entry.  Q(q)
enters only in the public views :func:`t_matrix`, :func:`gauss_t_matrix`
and :func:`embed_chain`, each a Laurent build divided once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate

from . import linalg as la
from ._kernels import _LAURENT_ONE, _addmul, _laurent_mul, _trim_words
from .ncalg import (
    FROZEN_GAUSS_CONVENTION,
    GAUSS_CONVENTIONS,
    NCPoly,
    TimesPoly,
    _q2_binomial,
    _times_laurent,
    _word_lin,
    _word_mul,
    funq_sl2,
    funq_sl2_blocks,
    gauss_param,
)
from .qscalar import Q, QINV, QScalar, _q_paren, _q_paren_factorial
from .report import VerificationReport
from .uqsl2 import _q_exp, _rep, coproduct, twice


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
    pi, the corepresentation check and the vertex operators of
    ``qvertex``."""
    return la.intertwiner(_rep(tj1 + tj2).action, coproduct(_rep(tj1), _rep(tj2)))


@cache
def _iota(tj1, tj2):
    """iota of ``embed_chain``, a Laurent matrix: column r is (Delta F)^r
    applied to the tensor highest weight vector."""
    dim_T = (tj1 + 1) * (tj2 + 1)
    delta_f = coproduct(_rep(tj1), _rep(tj2))[1]
    cols = [[{0: _LAURENT_ONE}] + [{} for _ in range(dim_T - 1)]]
    for _ in range(tj1 + tj2):
        cols.append(la.lau_mul(delta_f, cols[-1]))
    return [{r: c[i][0] for r, c in enumerate(cols) if c[i].get(0)} for i in range(dim_T)]


@cache
def _embed(tj1, tj2):
    pi = _projection(tj1, tj2)
    iota = la.lau_divided(_iota(tj1, tj2), tj1 + tj2 + 1, _LAURENT_ONE)
    return iota, la.lau_divided(pi, len(iota), pi[0][0])


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


def _d_steps(two_j):
    """The diagonal scales of T^(j) in steps: step m is q^-m (2j-m)_{q^2},
    and D_m, the product of the first m steps, is
    q^(-m(m-1)/2) (2j)_{q^2}! / (2j-m)_{q^2}!."""
    return [_laurent_mul({-m: 1}, _q_paren(two_j - m, 2)) for m in range(two_j)]


def _d_scales(two_j):
    """(D, R) over Z[q, q^-1], D[m] = D_m and R[m] = D_2j / D_m: the
    products of the steps of :func:`_d_steps` before m and from m on."""
    steps = _d_steps(two_j)
    D, R = (list(accumulate(s, _laurent_mul, initial=_LAURENT_ONE)) for s in (steps, steps[::-1]))
    return D, R[::-1]


@cache
def _semantic_t(two_j):
    """Semantic spin-j matrix over funq_sl2: entry (m, r) pairs bra index m
    with ket index r, and is (D_r / D_m) P[r][m] over :func:`_plane` and
    :func:`_d_steps`.  The plane is a module algebra under
    D(f) = 1 ox f + f ox k, with f x = y, k x = q x, k y = q^-1 y, so
    f(x^n y^p) = q^-p (n)_{q^2} x^(n-1) y^(p+1) and make_rep's
    v_m = F^m x^(2j) is D_m x^(2j-m) y^m.  The coaction
    x -> a ox x + b ox y, y -> c ox x + d ox y is an algebra map: P on the
    monomials, (D_m / D_r) P[m][r] on v, and its transpose here."""
    D = [QScalar.from_terms(d) for d in _d_scales(two_j)[0]]
    P = _plane(two_j)

    def entry(m, r):
        ratio = TimesPoly.const((), D[r] / D[m])
        return NCPoly(funq_sl2(), (), {w: _times_laurent(ratio, c) for w, c in P[r][m].items()})

    return [[entry(m, r) for r in range(two_j + 1)] for m in range(two_j + 1)]


@cache
def _gauss_scaled(two_j, convention):
    """(S, S G) over Z[q, q^-1], S = (2j)_{q^-2}! (2j)_{q^2}! and G the
    factorized spin-j matrix over gauss_param(convention), semantic
    orientation, as {normal word: Laurent}: with lam = q - q^-1, entry
    (i, l) of S G is the sum of

        lam^m (2j)!/(m)! (E^m)[i][t] . s^m Q^(2j-2t) sbar^n . (-lam)^n (2j)!/(n)! (F^n)[t][l]

    over the divided powers E^m, F^n of ``uqsl2._q_exp``, the factorials in
    base q^-2 on the e side and q^2 on the f side."""
    pres = gauss_param(convention)

    def series(leg, lam, base):
        """(lam^m (2j)_{q^base}! / (m)_{q^base}!, x^m) for the leg x."""
        powers = _q_exp(((leg,),), (two_j,))
        lams = accumulate([lam] * len(powers), _laurent_mul, initial=_LAURENT_ONE)
        return [(_laurent_mul(c, _q_paren_factorial(two_j, base, m)), x) for m, (c, x) in enumerate(zip(lams, powers))]

    terms = [[[] for _ in range(two_j + 1)] for _ in range(two_j + 1)]
    for m, (cm, Em) in enumerate(series("e", {1: 1, -1: -1}, -2)):
        for n, (cn, Fn) in enumerate(series("f", {1: -1, -1: 1}, 2)):
            c = _laurent_mul(cm, cn)
            for i, row in enumerate(Em):
                for t, e in row.items():
                    k = two_j - 2 * t
                    word = pres.reduce_word(("s",) * m + (("Q",) * k if k >= 0 else ("Qinv",) * -k) + ("sbar",) * n)
                    for l, f in Fn[t].items():
                        terms[i][l].append((_laurent_mul(_laurent_mul(c, e), f), word))
    S = _laurent_mul(_q_paren_factorial(two_j, -2, 0), _q_paren_factorial(two_j, 2, 0))
    return S, [[_word_lin(entry) for entry in row] for row in terms]


def t_matrix(j):
    """Public spin-j matrix of coordinate functions over funq_sl2 (see the
    module docstring for the index convention); spin 1/2 is exactly
    [[a, b], [c, d]]."""
    return [list(col) for col in zip(*_semantic_t(twice(j)))]


def gauss_t_matrix(j, convention=FROZEN_GAUSS_CONVENTION):
    """Public spin-j matrix of the factorized group-like element over
    gauss_param(convention), in the index convention of :func:`t_matrix`:
    :func:`_gauss_scaled` divided once by its S."""
    S, SG = _gauss_scaled(twice(j), convention)
    pres, inv = gauss_param(convention), QScalar.from_terms(S).inv()

    def entry(x):
        return NCPoly(pres, (), {w: TimesPoly((), {(): QScalar.from_terms(c) * inv}) for w, c in x.items()})

    return [[entry(row[x]) for row in SG] for x in range(len(SG))]


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
    return _zero_matrix_report(corep_residual(two_j, two_jp), {"j": Fraction(two_j, 2), "jp": Fraction(two_jp, 2)})


def verify_dual_route(j):
    """Substituting the gauss spin-1/2 entries into the abstract T^(j)
    reproduces the gauss T^(j)."""
    two_j = twice(j)
    return _zero_matrix_report(dual_route_residuals(two_j), {"j": Fraction(two_j, 2)})


def _zero_matrix_report(res, params):
    bad = [(m, r) for m in range(len(res)) for r in range(len(res)) if res[m][r]]
    return VerificationReport.from_failures([f"nonzero entries at {bad}"] if bad else [], params)


def corep_residual(two_j, two_jp):
    """Residual of the corepresentation law for (j, j') over Z[q, q^-1], in
    the semantic orientation, as {normal word: Laurent}.  With P, D the
    plane and scales of spin j, P', D' of j' and P'', D'' of j + j',
    (pi, iota) the undivided ``embed_chain(j, j')`` and tensor indices
    b = (b1, b2), k = (k1, k2), entry (m, r) is

        D''_m sum_{b,k} pi[m][b] (D_2j/D_b1)(D'_2j'/D'_b2) iota[k][r] D_k1 D'_k2 P[k1][b1] P'[k2][b2]
          - pi[0][0] D_2j D'_2j' D''_r P''[r][m]:

    the Q(q) residual of the spin-(j+j') block of T^(j) ox T^(j'), the
    T^(j) entry leftmost, against T^(j+j') times pi[0][0] D_2j D'_2j' D''_m."""
    two_jt, dim_p = two_j + two_jp, two_jp + 1
    (D1, R1), (D2, R2), (D, _) = _d_scales(two_j), _d_scales(two_jp), _d_scales(two_jt)
    P1, P2, P = _plane(two_j), _plane(two_jp), _plane(two_jt)

    # the scales of the tensor indices, and pi and iota times them
    RR, DD = ([_laurent_mul(x, y) for x in X1 for y in X2] for X1, X2 in ((R1, R2), (D1, D2)))
    pi = _projection(two_j, two_jp)
    top = _laurent_mul(la.lau_neg(pi[0][0]), RR[0])
    pi = [{b: _laurent_mul(_laurent_mul(D[m], c), RR[b]) for b, c in row.items()} for m, row in enumerate(pi)]
    iota = [{r: _laurent_mul(c, DD[k]) for r, c in row.items()} for k, row in enumerate(_iota(two_j, two_jp))]

    def entry(m, r):
        products = [
            (_laurent_mul(cb, row[r]), _word_mul(funq_sl2(), P1[k // dim_p][b // dim_p], P2[k % dim_p][b % dim_p]))
            for b, cb in pi[m].items()
            for k, row in enumerate(iota)
            if r in row
        ]
        return _word_lin(products + [(_laurent_mul(top, D[r]), P[r][m])])

    return [[entry(m, r) for r in range(two_jt + 1)] for m in range(two_jt + 1)]


def dual_route_residuals(two_j):
    """Residual of the dual route over Z[q, q^-1], in the public orientation,
    as {normal word: Laurent}: entry (x, y) is D_x S phi(P[x][y]) -
    D_y (S G)[y][x], phi sending a, b, c, d to the spin-1/2 entries of
    :func:`_gauss_scaled` (where S = 1) on the frozen convention, that is
    the Q(q) residual of phi(t_matrix(j)) against gauss_t_matrix(j) times
    D_y S."""
    pres = gauss_param()
    (a, c), (b, d) = _gauss_scaled(1, FROZEN_GAUSS_CONVENTION)[1]
    images = {(): {(): _LAURENT_ONE}, ("a",): a, ("b",): b, ("c",): c, ("d",): d}

    def image(word):
        if word not in images:
            images[word] = _word_mul(pres, image(word[:-1]), images[word[-1:]])
        return images[word]

    S, SG = _gauss_scaled(two_j, FROZEN_GAUSS_CONVENTION)
    D, _ = _d_scales(two_j)

    def entry(x, y, plane):
        lhs = [(_laurent_mul(_laurent_mul(D[x], S), c), image(w)) for w, c in plane.items()]
        return _word_lin(lhs + [(la.lau_neg(D[y]), SG[y][x])])

    return [[entry(x, y, plane) for y, plane in enumerate(row)] for x, row in enumerate(_plane(two_j))]


_GEN_DEGREE = {"a": (1, 1), "b": (1, -1), "c": (-1, 1), "d": (-1, -1)}


def entry_grading_ok(j, m, r, words):
    """Entry (m, r) of the public matrix, given by its words, must be
    homogeneous of degree (2(j-m), 2(j-r)) under the generator weight
    grading."""
    want = (twice(j) - 2 * m, twice(j) - 2 * r)
    return all(tuple(sum(_GEN_DEGREE[g][i] for g in w) for i in (0, 1)) == want for w in words)


def grading_failures(j):
    """The failure lines of the weight grading and the counit on T^(j), read
    from the plane: public entry (m, r) is (D_m / D_r) P[m][r], the ratio 1
    for m = r and nonzero otherwise, so it has the words of P[m][r], and its
    counit (a, d -> 1; b, c -> 0) is delta_mr exactly when the sum of the
    coefficients of P[m][r]'s b,c-free words is."""
    failures = []
    for m, row in enumerate(_plane(twice(j))):
        for r, entry in enumerate(row):
            if not entry_grading_ok(j, m, r, entry):
                failures.append(f"grading fails at j={j} entry ({m},{r})")
            counit = _word_lin((c, {(): _LAURENT_ONE}) for w, c in entry.items() if "b" not in w and "c" not in w)
            if counit != ({(): {0: 1}} if m == r else {}):
                failures.append(f"counit fails at j={j} entry ({m},{r})")
    return failures
