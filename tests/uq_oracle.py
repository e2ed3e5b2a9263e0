"""The Q(q) route of the U_q(sl2) matrices, kept as the oracle of the
Laurent route in ``linalg``, ``uqsl2`` and ``qvertex``.

The representations, tensor actions and antipode tables of the package are
Laurent matrices; :func:`qs_matrix` is the one view that reads them as
dense QScalar matrices here.  The q-exponentials are TimesPoly matrices
with QScalar coefficients, and every residual is built in Q(q), term by
term as the identities read.  The functions read ``COPRODUCT``, the
antipode tables and ``solve_vertex_components`` through their modules at
call time, so a test that patches one of them patches both routes.

The function-algebra checks of ``funq`` have their Q(q) route here too:
the spin-(j+j') block :func:`top_block` over ``embed_chain`` and the
generator substitution :func:`apply_generator_map` over ``t_matrix`` and
``gauss_t_matrix``, with the generic-ring products :func:`mat_mul`,
:func:`kron` and :func:`mat_sub` they multiply with.  These read ``funq``
at call time as well, so a mutant of ``funq`` reaches both routes.
"""

from fractions import Fraction
from functools import reduce

from tau_forge import funq, qvertex, uqsl2
from tau_forge.ncalg import NCPoly, Presentation, TimesPoly, funq_sl2
from tau_forge.qscalar import ONE, Q, QINV, QScalar, ZERO, paren_factorial, qs
from tau_forge.uqsl2 import NonNilpotentError


def mat_sub(A, B):
    return [[a if b.is_zero() else a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_mul(A, B):
    """A B with one product per pair of nonzero entries A[i][t], B[t][j];
    each entry sums its products in increasing t."""
    m = len(B[0])
    B_nonzero = [[(j, b) for j, b in enumerate(row) if not b.is_zero()] for row in B]
    zero = None
    out = []
    for Ai in A:
        acc = {}
        for t, a in enumerate(Ai):
            if a.is_zero():
                continue
            for j, b in B_nonzero[t]:
                term = a * b
                acc[j] = acc[j] + term if j in acc else term
        if len(acc) < m and zero is None:
            # an entry j with no nonzero term has A[i][0] or B[0][j] zero
            a, b = Ai[0], B[0][next(j for j in range(m) if j not in acc)]
            zero = (a if a.is_zero() else b) if type(a) is type(b) else a * b
        out.append([acc.get(j, zero) for j in range(m)])
    return out


def kron(A, B):
    out = []
    for Ai in A:
        blocks = [(a, a.is_zero()) for a in Ai]
        for Bk in B:
            row = []
            for a, a_zero in blocks:
                # a zero block takes mat_mul's zero: a itself within one ring
                row.extend(a if a_zero and type(a) is type(b) else a * b for b in Bk)
            out.append(row)
    return out


def qs_matrix(M, ncols=None):
    """The Laurent matrix M (rows {column: {q-exponent: int}}) as a dense
    QScalar matrix of ``ncols`` columns, square by default."""
    ncols = len(M) if ncols is None else ncols
    return [[QScalar.from_terms(row.get(j, {})) for j in range(ncols)] for row in M]


def qs_table(table):
    """A table of square Laurent matrices by leg name (``Rep.legs``, the
    antipode tables), as QScalar matrices."""
    return {x: qs_matrix(M) for x, M in table.items()}


def identity(n, one=ONE, zero=ZERO):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_add(A, B):
    return [[a if b.is_zero() else a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(A, c):
    return [[a * c for a in r] for r in A]


def mat_is_zero(A):
    return all(x.is_zero() for r in A for x in r)


def nilpotent_exp(A, weight, one, zero):
    """I + sum_{m >= 1} weight(m) * A^m for a nilpotent square matrix A.

    ``one`` and ``zero`` are the entries of I in the ring of the result, and
    ``weight(m)`` multiplies the entries of A^m from the left.  The sum stops
    at the first vanishing power; NonNilpotentError is raised if A^dim != 0,
    because the series would not terminate.
    """
    n = len(A)
    out = identity(n, one, zero)
    power = A
    for m in range(1, n + 1):
        if mat_is_zero(power):
            return out
        if m == n:
            raise NonNilpotentError("matrix is not nilpotent; the exponential would not terminate")
        w = weight(m)
        for i, row in enumerate(power):
            for j, x in enumerate(row):
                if not x.is_zero():
                    out[i][j] = out[i][j] + w * x
        power = mat_mul(power, A)
    return out


def q_exp_nilpotent(A, var, base_power, vars):
    """exp_{q^base}(var * A) for a nilpotent QScalar matrix A, as a TimesPoly
    matrix over ``vars``; NonNilpotentError when A is not nilpotent."""
    vars = tuple(vars)

    def weight(m):
        return TimesPoly.var(vars, var, coeff=paren_factorial(m, base_power).inv(), power=m)

    return nilpotent_exp(A, weight, TimesPoly.one(vars), TimesPoly.zero(vars))


def tp_lift(A, vars):
    """Lift a QScalar matrix to a TimesPoly matrix over ``vars``."""
    return [[TimesPoly.const(vars, x) for x in row] for row in A]


def tp_scale_var(M, name, factor):
    return [[x.scale_var(name, factor) for x in row] for row in M]


def delta(x, repA, repB):
    """The QScalar matrix of D(x) on repA ox repB, summed over COPRODUCT."""
    A, B = qs_table(repA.legs), qs_table(repB.legs)
    return reduce(mat_add, [kron(A[x1], B[x2]) for x1, x2 in uqsl2.COPRODUCT[x]])


def hopf_residuals(j, jp):
    """(name, residual) of each identity of ``verify_hopf_matrices``, in the
    order of its failure lines: QScalar matrices, TimesPoly ones for the two
    factorizations."""
    repA, repB = uqsl2.make_rep(j), uqsl2.make_rep(jp)
    dE, dF, dK, dKi = (delta(x, repA, repB) for x in ("e", "f", "k", "kinv"))
    lam = Q - QINV
    out = [
        ("delta:ke=q2ek", mat_sub(mat_mul(dK, dE), mat_scale(mat_mul(dE, dK), Q * Q))),
        ("delta:[e,f]", mat_sub(
            mat_sub(mat_mul(dE, dF), mat_mul(dF, dE)),
            mat_scale(mat_sub(dK, dKi), lam.inv()),
        )),
        ("delta:kk^-1", mat_sub(mat_mul(dK, dKi), identity(len(dE)))),
    ]
    A, B = qs_table(repA.legs), qs_table(repB.legs)
    for x, var, base, label in (("e", "t", 2, "exp_{q^2}(t e)"), ("f", "s", -2, "exp_{q^-2}(s f)")):
        lhs = q_exp_nilpotent(delta(x, repA, repB), var, base, (var,))
        factors = [q_exp_nilpotent(kron(A[x1], B[x2]), var, base, (var,)) for x1, x2 in uqsl2.COPRODUCT[x]]
        out.append((f"factorization of {label}", mat_sub(lhs, reduce(mat_mul, factors))))
    for rep in {r.two_j: r for r in (repA, repB)}.values():
        S, legs = qs_table(uqsl2.antipode_matrices(rep)), qs_table(rep.legs)
        for x, summands in uqsl2.COPRODUCT.items():
            total = reduce(mat_add, [mat_mul(S[x1], legs[x2]) for x1, x2 in summands])
            res = mat_sub(total, mat_scale(legs["one"], qs(uqsl2.COUNIT[x])))
            out.append((f"antipode axiom on {x} at spin {rep.spin}", res))
    return out


def component_relation_residuals(j):
    """{(name, x, i): residual} of the relations R1-R4 of
    ``verify_component_relations``, as QScalar matrices."""
    two_j = uqsl2.twice(j)
    comps = qvertex.solve_vertex_components(j)
    src, tgt = uqsl2.make_rep(Fraction(two_j - 1, 2)), uqsl2.make_rep(Fraction(two_j, 2))
    S_t, Sp_t = qs_table(qvertex.antipode_matrices(tgt)), qs_table(qvertex.antipode_inv_matrices(tgt))
    S_s, Sp_s = qs_table(qvertex.antipode_matrices(src)), qs_table(qvertex.antipode_inv_matrices(src))
    legs_s, legs_t = qs_table(src.legs), qs_table(tgt.legs)
    families = (
        ("R1", comps.phi_up, False, 0, S_t, legs_s),
        ("R2", (comps.psi_plus, comps.psi_minus), False, 1, Sp_t, legs_s),
        ("R3", (comps.phi_plus, comps.phi_minus), True, 1, legs_t, Sp_s),
        ("R4", comps.psi_dn, True, 0, legs_t, S_s),
    )
    rho = qs_table(uqsl2.make_rep(Fraction(1, 2)).legs)
    out = {}
    for x in ("e", "f", "k"):
        for name, comp, swapped, side, on_tgt, on_src in families:
            for i in (0, 1):
                lhs = reduce(mat_add, [
                    mat_mul(on_tgt[legs[side]], mat_mul(comp[i], on_src[legs[1 - side]]))
                    for legs in uqsl2.COPRODUCT[x]
                ])
                for jj in (0, 1):
                    coef = rho[x][jj][i] if swapped else rho[x][i][jj]
                    if not coef.is_zero():
                        lhs = mat_sub(lhs, mat_scale(comp[jj], coef))
                out[name, x, i] = lhs
    return out


def qexp_commutation_residuals(two_j):
    """{name: residual} of the eight commutation identities of
    ``verify_qexp_commutation``, as TimesPoly matrices over (t, s)."""
    comps = qvertex.solve_vertex_components(Fraction(two_j, 2))
    src = qs_table(uqsl2.make_rep(Fraction(two_j - 1, 2)).legs)
    tgt = qs_table(uqsl2.make_rep(Fraction(two_j, 2)).legs)
    tvars = ("t", "s")
    Et = q_exp_nilpotent(tgt["e"], "t", 2, tvars)
    Es = q_exp_nilpotent(src["e"], "t", 2, tvars)
    Ft = q_exp_nilpotent(tgt["f"], "s", -2, tvars)
    Fs = q_exp_nilpotent(src["f"], "s", -2, tvars)

    def lift(M):
        return tp_lift(M, tvars)

    Ap, Am = lift(comps.phi_plus), lift(comps.phi_minus)
    Bp, Bm = lift(comps.psi_plus), lift(comps.psi_minus)
    Kinv_s, K_t = lift(src["kinv"]), lift(tgt["k"])
    tvar, svar = TimesPoly.var(tvars, "t"), TimesPoly.var(tvars, "s")
    mm, ms = mat_mul, mat_sub
    Es_q, Es_qi = tp_scale_var(Es, "t", Q), tp_scale_var(Es, "t", QINV)
    Ft_q, Ft_qi = tp_scale_var(Ft, "s", Q), tp_scale_var(Ft, "s", QINV)
    return {
        "exp(te)phi+": ms(mm(Et, Ap), mm(Ap, Es)),
        "exp(te)phi-": ms(mm(Et, Am), mm(mat_add(mat_scale(mm(Ap, Kinv_s), tvar), Am), Es)),
        "exp(te)psi+": ms(mm(Et, Bp), ms(mm(Bp, Es_q), mat_scale(mm(Bm, Es_qi), tvar.scale(Q)))),
        "exp(te)psi-": ms(mm(Et, Bm), mm(Bm, Es_qi)),
        "phi+exp(sf)": ms(mm(Ap, Fs), ms(mm(Ft_qi, Ap), mat_scale(mm(Ft_q, Am), svar.scale(QINV)))),
        "phi-exp(sf)": ms(mm(Am, Fs), mm(Ft_q, Am)),
        "psi+exp(sf)": ms(mm(Bp, Fs), mm(Ft, Bp)),
        "psi-exp(sf)": ms(mm(Bm, Fs), mm(Ft, mat_add(Bm, mat_scale(mm(K_t, Bp), svar)))),
    }


# -- the function-algebra checks over Q(q) -------------------------------------

SCALAR_PRESENTATION = Presentation("scalar", (), {})


def apply_generator_map(p, images):
    """The algebra map defined by generator images (all over one target
    algebra), applied to the NCPoly p.

    Well-defined only when the images satisfy the source relations; callers
    verify that separately (e.g. the counit or a model of the same algebra).
    """
    some = next(iter(images.values()))
    target_pres, target_vars = some.pres, some.vars
    acc = NCPoly.zero(target_pres, target_vars)
    for w, t in p.terms.items():
        img = NCPoly.from_times(target_pres, TimesPoly(target_vars, dict(t.terms)))
        for g in w:
            img = img.mul(images[g])
        acc = acc + img
    return acc


def counit_map():
    """Generator images under a -> 1, b -> 0, c -> 0, d -> 1."""
    one = NCPoly.one(SCALAR_PRESENTATION)
    zero = NCPoly.zero(SCALAR_PRESENTATION)
    return {"a": one, "d": one, "b": zero, "c": zero}


def top_block(semA, semB):
    """Spin-(j+j') block of the ordered entry products of the semantic
    matrices T^(j) and T^(j'):

        out[m][r] = sum pi[m][(b1, b2)] iota[(k1, k2)][r] T^(j)_{b1 k1} T^(j')_{b2 k2}

    with (iota, pi) = embed_chain(j, j'), the T^(j) entry leftmost.
    """
    iota, pi = funq.embed_chain(Fraction(len(semA) - 1, 2), Fraction(len(semB) - 1, 2))
    # an NCPoly scales by a QScalar only from the right, so pi is lifted
    pi = [[NCPoly.from_scalar(funq_sl2(), x) for x in row] for row in pi]
    return mat_mul(mat_mul(pi, kron(semA, semB)), iota)


def corep_residual(two_j, two_jp):
    """Semantic Q(q) residual of the corepresentation law for (j, j')."""
    T = funq._semantic_t
    return mat_sub(top_block(T(two_j), T(two_jp)), T(two_j + two_jp))


def dual_route_residuals(two_j):
    """Entrywise Q(q) difference between the generator-substituted T^(j) of
    ``t_matrix`` and ``gauss_t_matrix`` at spin j, on the frozen convention."""
    (a, b), (c, d) = funq.gauss_t_matrix(Fraction(1, 2))
    images = {"a": a, "b": b, "c": c, "d": d}
    A, G = funq.t_matrix(Fraction(two_j, 2)), funq.gauss_t_matrix(Fraction(two_j, 2))
    return [[apply_generator_map(x, images) - g for x, g in zip(ra, rg)] for ra, rg in zip(A, G)]


def grading_failures(j):
    """The failure lines of ``funq.gradings`` at spin j, read from
    ``t_matrix`` with the counit applied as an algebra map."""
    failures = []
    eps = counit_map()
    M = funq.t_matrix(j)
    for m in range(len(M)):
        for r in range(len(M)):
            if not funq.entry_grading_ok(j, m, r, M[m][r].terms):
                failures.append(f"grading fails at j={j} entry ({m},{r})")
            val = apply_generator_map(M[m][r], eps)
            if val != NCPoly.from_scalar(val.pres, ONE if m == r else ZERO):
                failures.append(f"counit fails at j={j} entry ({m},{r})")
    return failures
