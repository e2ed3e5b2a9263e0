"""The Q(q) route of the Hopf and vertex matrix identities, kept as the
oracle of their Laurent route in ``uqsl2`` and ``qvertex``.

The q-exponentials are TimesPoly matrices with QScalar coefficients, and
every residual is built in Q(q), term by term as the identities read.  The
functions read ``COPRODUCT``, the antipode tables and
``solve_vertex_components`` through their modules at call time, so a test
that patches one of them patches both routes.
"""

from fractions import Fraction
from functools import reduce

from tau_forge import linalg as la
from tau_forge import qvertex, uqsl2
from tau_forge.ncalg import TimesPoly
from tau_forge.qscalar import Q, QINV, paren_factorial, qs


def q_exp_nilpotent(A, var, base_power, vars):
    """exp_{q^base}(var * A) for a nilpotent QScalar matrix A, as a TimesPoly
    matrix over ``vars``; NonNilpotentError when A is not nilpotent."""
    vars = tuple(vars)

    def weight(m):
        return TimesPoly.var(vars, var, coeff=paren_factorial(m, base_power).inv(), power=m)

    return la.nilpotent_exp(A, weight, TimesPoly.one(vars), TimesPoly.zero(vars))


def tp_lift(A, vars):
    """Lift a QScalar matrix to a TimesPoly matrix over ``vars``."""
    return [[TimesPoly.const(vars, x) for x in row] for row in A]


def tp_scale_var(M, name, factor):
    return [[x.scale_var(name, factor) for x in row] for row in M]


def hopf_residuals(j, jp):
    """(name, residual) of each identity of ``verify_hopf_matrices``, in the
    order of its failure lines: QScalar matrices, TimesPoly ones for the two
    factorizations."""
    repA, repB = uqsl2.make_rep(j), uqsl2.make_rep(jp)
    dE, dF, dK = uqsl2.coproduct(repA, repB)
    dKi = uqsl2._delta("kinv", repA, repB)
    lam = Q - QINV
    out = [
        ("delta:ke=q2ek", la.mat_sub(la.mat_mul(dK, dE), la.mat_scale(la.mat_mul(dE, dK), Q * Q))),
        ("delta:[e,f]", la.mat_sub(
            la.mat_sub(la.mat_mul(dE, dF), la.mat_mul(dF, dE)),
            la.mat_scale(la.mat_sub(dK, dKi), lam.inv()),
        )),
        ("delta:kk^-1", la.mat_sub(la.mat_mul(dK, dKi), la.identity(len(dE)))),
    ]
    A, B = repA.legs, repB.legs
    for x, var, base, label in (("e", "t", 2, "exp_{q^2}(t e)"), ("f", "s", -2, "exp_{q^-2}(s f)")):
        lhs = q_exp_nilpotent(uqsl2._delta(x, repA, repB), var, base, (var,))
        factors = [q_exp_nilpotent(la.kron(A[x1], B[x2]), var, base, (var,)) for x1, x2 in uqsl2.COPRODUCT[x]]
        out.append((f"factorization of {label}", la.mat_sub(lhs, reduce(la.mat_mul, factors))))
    for rep in (repA, repB):
        S, legs = uqsl2.antipode_matrices(rep), rep.legs
        for x, summands in uqsl2.COPRODUCT.items():
            total = reduce(la.mat_add, [la.mat_mul(S[x1], legs[x2]) for x1, x2 in summands])
            res = la.mat_sub(total, la.mat_scale(legs["one"], qs(uqsl2.COUNIT[x])))
            out.append((f"antipode axiom on {x} at spin {rep.spin}", res))
    return out


def component_relation_residuals(j):
    """{(name, x, i): residual} of the relations R1-R4 of
    ``verify_component_relations``, as QScalar matrices."""
    two_j = uqsl2.twice(j)
    comps = qvertex.solve_vertex_components(j)
    src, tgt = uqsl2.make_rep(Fraction(two_j - 1, 2)), uqsl2.make_rep(Fraction(two_j, 2))
    S_t, Sp_t = qvertex.antipode_matrices(tgt), qvertex.antipode_inv_matrices(tgt)
    S_s, Sp_s = qvertex.antipode_matrices(src), qvertex.antipode_inv_matrices(src)
    families = (
        ("R1", comps.phi_up, False, 0, S_t, src.legs),
        ("R2", (comps.psi_plus, comps.psi_minus), False, 1, Sp_t, src.legs),
        ("R3", (comps.phi_plus, comps.phi_minus), True, 1, tgt.legs, Sp_s),
        ("R4", comps.psi_dn, True, 0, tgt.legs, S_s),
    )
    rho = uqsl2.make_rep(Fraction(1, 2)).legs
    out = {}
    for x in ("e", "f", "k"):
        for name, comp, swapped, side, on_tgt, on_src in families:
            for i in (0, 1):
                lhs = reduce(la.mat_add, [
                    la.mat_mul(on_tgt[legs[side]], la.mat_mul(comp[i], on_src[legs[1 - side]]))
                    for legs in uqsl2.COPRODUCT[x]
                ])
                for jj in (0, 1):
                    coef = rho[x][jj][i] if swapped else rho[x][i][jj]
                    if not coef.is_zero():
                        lhs = la.mat_sub(lhs, la.mat_scale(comp[jj], coef))
                out[name, x, i] = lhs
    return out


def qexp_commutation_residuals(two_j):
    """{name: residual} of the eight commutation identities of
    ``verify_qexp_commutation``, as TimesPoly matrices over (t, s)."""
    comps = qvertex.solve_vertex_components(Fraction(two_j, 2))
    src = uqsl2.make_rep(Fraction(two_j - 1, 2))
    tgt = uqsl2.make_rep(Fraction(two_j, 2))
    tvars = ("t", "s")
    Et = q_exp_nilpotent(tgt.E, "t", 2, tvars)
    Es = q_exp_nilpotent(src.E, "t", 2, tvars)
    Ft = q_exp_nilpotent(tgt.F, "s", -2, tvars)
    Fs = q_exp_nilpotent(src.F, "s", -2, tvars)

    def lift(M):
        return tp_lift(M, tvars)

    Ap, Am = lift(comps.phi_plus), lift(comps.phi_minus)
    Bp, Bm = lift(comps.psi_plus), lift(comps.psi_minus)
    Kinv_s, K_t = lift(src.Kinv), lift(tgt.K)
    tvar, svar = TimesPoly.var(tvars, "t"), TimesPoly.var(tvars, "s")
    mm, ms = la.mat_mul, la.mat_sub
    Es_q, Es_qi = tp_scale_var(Es, "t", Q), tp_scale_var(Es, "t", QINV)
    Ft_q, Ft_qi = tp_scale_var(Ft, "s", Q), tp_scale_var(Ft, "s", QINV)
    return {
        "exp(te)phi+": ms(mm(Et, Ap), mm(Ap, Es)),
        "exp(te)phi-": ms(mm(Et, Am), mm(la.mat_add(la.mat_scale(mm(Ap, Kinv_s), tvar), Am), Es)),
        "exp(te)psi+": ms(mm(Et, Bp), ms(mm(Bp, Es_q), la.mat_scale(mm(Bm, Es_qi), tvar.scale(Q)))),
        "exp(te)psi-": ms(mm(Et, Bm), mm(Bm, Es_qi)),
        "phi+exp(sf)": ms(mm(Ap, Fs), ms(mm(Ft_qi, Ap), la.mat_scale(mm(Ft_q, Am), svar.scale(QINV)))),
        "phi-exp(sf)": ms(mm(Am, Fs), mm(Ft_q, Am)),
        "psi+exp(sf)": ms(mm(Bp, Fs), mm(Ft, Bp)),
        "psi-exp(sf)": ms(mm(Bm, Fs), mm(Ft, la.mat_add(Bm, la.mat_scale(mm(K_t, Bp), svar)))),
    }
