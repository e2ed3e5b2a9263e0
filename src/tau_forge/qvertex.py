"""Vertex operators between neighbouring spins and their exact relations.

Four intertwiner families connect V_{j-1/2} and V_j through the
two-dimensional representation W (basis w_+, w_- with e w_- = w_+,
f w_+ = w_-, k w_+- = q^{+-1} w_+-):

* ``annihilating right``   Phi_W : V_{j-1/2} ox W -> V_j     (x Phi = Phi D(x))
* ``creating left``        Psi^W : V_{j-1/2} -> W ox V_j     (Psi x = D(x) Psi)
* ``creating right``       Phi^W : V_{j-1/2} -> V_j ox W     (Phi x = D(x) Phi)
* ``annihilating left``    Psi_W : W ox V_{j-1/2} -> V_j     (x Psi = Psi D(x))

Each solution space is one-dimensional (asserted, not assumed).  Phi_W and
Psi_W are the top projections pi of ``funq.embed_chain(j-1/2, 1/2)`` and
``embed_chain(1/2, j-1/2)``, solved and cached once.  The first two families
are normalized by their highest-weight actions (pi by its own pi . iota = 1)

    Phi_+ |j-1/2> = |j>,          Phi_- |j-1/2> = q^{1-2j}/[2j] f |j>,
    Psi^+ |j-1/2> = -q/[2j] f |j>, Psi^- |j-1/2> = |j>.

The module verifies those normalizations, the component form of the
intertwining relations (with antipode twists), the canonical identification
of the "dual" components with components for the twisted-dual auxiliary
space, and the eight commutation relations with the q-exponential flows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce

from . import funq
from . import linalg as la
from .linalg import ConventionError
from .ncalg import TimesPoly
from .qscalar import ONE, Q, QINV, QScalar, ZERO, bracket
from .report import VerificationReport
from .uqsl2 import (
    COPRODUCT,
    Rep,
    antipode_inv_matrices,
    antipode_matrices,
    coproduct,
    make_rep,
    q_exp_nilpotent,
    tp_lift,
    tp_scale_var,
    twice,
)


def _w_rep():
    return make_rep(Fraction(1, 2))


def _twisted_dual_w():
    """W* with x acting as rho(S'(x))^T."""
    Sp = antipode_inv_matrices(_w_rep())
    t = la.mat_transpose
    return Rep(1, t(Sp["e"]), t(Sp["f"]), t(Sp["k"]), t(Sp["kinv"]))


@dataclass(frozen=True)
class VertexComponents:
    """Components of the four vertex-operator families at a given target spin."""

    two_j: int
    phi_plus: list
    phi_minus: list
    psi_plus: list
    psi_minus: list
    # dual-route components (creating right / annihilating left)
    phi_up: tuple
    psi_dn: tuple


_DUAL_FAMILIES = ("annihilating right", "creating left")


def solve_vertex_components(j):
    """Solve all vertex-operator components V_{j-1/2} -> V_j exactly."""
    two_j = twice(j)
    if two_j < 1:
        raise ValueError("need j >= 1/2")
    return _vertex_components(two_j)


@cache
def _vertex_components(two_j):
    W = _w_rep()
    src, half = Fraction(two_j - 1, 2), Fraction(1, 2)
    phi = funq.embed_chain(src, half)[1]  # column r * 2 + a
    psi = funq.embed_chain(half, src)[1]  # column a * dim V_src + r, dim V_src = 2j
    psi_p, psi_m = _family_components(two_j, "creating left", W)
    c = psi_m[0][0]
    if c.is_zero():
        raise ConventionError("Psi^- does not reach the highest weight vector")
    return VertexComponents(
        two_j=two_j,
        phi_plus=[row[0::2] for row in phi],
        phi_minus=[row[1::2] for row in phi],
        psi_plus=la.mat_scale(psi_p, c.inv()),
        psi_minus=la.mat_scale(psi_m, c.inv()),
        phi_up=_normalize_pair(_family_components(two_j, "creating right", W)),
        psi_dn=([row[:two_j] for row in psi], [row[two_j:] for row in psi]),
    )


@cache
def _twisted_dual_components(two_j, family):
    """``family`` solved over the twisted dual of W, the solve that
    verify_component_relations compares the dual-route components against."""
    return _family_components(two_j, family, _twisted_dual_w())


def _family_components(two_j, family, aux):
    """Solve one vertex family V_{j-1/2} -> V_j over the auxiliary
    representation ``aux`` (basis indexed a = 0, 1 for +, -) and split it
    into its (+, -) components, each a dim V_j x dim V_{j-1/2} matrix."""
    src = make_rep(Fraction(two_j - 1, 2))
    tgt = make_rep(Fraction(two_j, 2))
    dt = tgt.dim
    if family == "annihilating right":  # V_src ox aux -> V_tgt, column r * 2 + a
        M = la.intertwiner(tgt.action, coproduct(src, aux))
        return tuple([row[a::2] for row in M] for a in (0, 1))
    if family == "creating left":  # V_src -> aux ox V_tgt, row a * dt + i
        M = la.intertwiner(coproduct(aux, tgt), src.action)
        return M[:dt], M[dt:]
    if family == "creating right":  # V_src -> V_tgt ox aux, row i * 2 + a
        M = la.intertwiner(coproduct(tgt, aux), src.action)
        return M[0::2], M[1::2]
    raise ValueError(f"unknown vertex family {family!r}")


def _normalize_pair(pair):
    """Scale a (+, -) pair so that its first nonzero entry is 1."""
    for M in pair:
        for row in M:
            for x in row:
                if not x.is_zero():
                    ci = x.inv()
                    return tuple(la.mat_scale(N, ci) for N in pair)
    raise ConventionError("zero intertwiner")


def vacuum_normalization_residuals(j):
    """Exact residuals of the six highest-weight actions of Phi_+-, Psi^+-."""
    two_j = twice(j)
    comps = solve_vertex_components(j)
    tgt = make_rep(Fraction(two_j, 2))
    dt = tgt.dim
    ds = dt - 1
    res = {}

    def col(M, r):
        return [M[i][r] for i in range(len(M))]

    e0 = [ONE] + [ZERO] * (dt - 1)
    f_high = [ZERO, ONE] + [ZERO] * (dt - 2)  # f|j> = v_1
    c_phi_minus = QScalar.q_power(1 - two_j) * bracket(two_j).inv()
    c_psi_plus = -(Q * bracket(two_j).inv())

    res["phi+|hw>"] = _vec_sub(col(comps.phi_plus, 0), e0)
    res["phi-|hw>"] = _vec_sub(col(comps.phi_minus, 0), [x * c_phi_minus for x in f_high])
    res["psi+|hw>"] = _vec_sub(col(comps.psi_plus, 0), [x * c_psi_plus for x in f_high])
    res["psi-|hw>"] = _vec_sub(col(comps.psi_minus, 0), e0)
    # left-vacuum rows: <j|phi+ = <j-1/2|, <j|phi- = <j|psi+ = 0, <j|psi- = <j-1/2|
    e0s = [ONE] + [ZERO] * (ds - 1)
    res["<hw|phi+"] = _vec_sub(list(comps.phi_plus[0]), e0s)
    res["<hw|phi-"] = list(comps.phi_minus[0])
    res["<hw|psi+"] = list(comps.psi_plus[0])
    res["<hw|psi-"] = _vec_sub(list(comps.psi_minus[0]), e0s)
    return res


def _vec_sub(u, v):
    return [a - b for a, b in zip(u, v)]


# -- Proposition-style component relations -----------------------------------


def verify_component_relations(j):
    """Check the four component-relation families for x in {e, f, k}, plus the
    canonical identification of dual components with twisted-dual solves."""
    two_j = twice(j)
    comps = solve_vertex_components(j)
    src = make_rep(Fraction(two_j - 1, 2))
    tgt = make_rep(Fraction(two_j, 2))
    details = []

    # (R1)  sum S(x1) Phi^i x2 = sum_j rho_j^i(x) Phi^j
    # (R2)  sum S'(x2) Psi^i x1 = sum_j rho_j^i(x) Psi^j
    # (R3)  sum x2 Phi_i S'(x1) = sum_j rho_i^j(x) Phi_j
    # (R4)  sum x1 Psi_i S(x2) = sum_j rho_i^j(x) Psi_j
    # rows: name, components, whether rho is indexed (j, i), the leg of each
    # summand x1 ox x2 on the target side (0 for x1, 1 for x2; the other leg
    # goes on the source side), and the target- and source-side tables, an
    # antipode table on the twisted side
    S_t, Sp_t = antipode_matrices(tgt), antipode_inv_matrices(tgt)
    S_s, Sp_s = antipode_matrices(src), antipode_inv_matrices(src)
    families = (
        ("R1", comps.phi_up, False, 0, S_t, src.legs),
        ("R2", (comps.psi_plus, comps.psi_minus), False, 1, Sp_t, src.legs),
        ("R3", (comps.phi_plus, comps.phi_minus), True, 1, tgt.legs, Sp_s),
        ("R4", comps.psi_dn, True, 0, tgt.legs, S_s),
    )
    rho = _w_rep().legs

    for x in ("e", "f", "k"):
        for name, comp, swapped, side, on_tgt, on_src in families:
            for i in (0, 1):
                lhs = reduce(la.mat_add, [
                    la.mat_mul(on_tgt[legs[side]], la.mat_mul(comp[i], on_src[legs[1 - side]]))
                    for legs in COPRODUCT[x]
                ])
                for jj in (0, 1):
                    coef = rho[x][jj][i] if swapped else rho[x][i][jj]
                    if not coef.is_zero():
                        lhs = la.mat_sub(lhs, la.mat_scale(comp[jj], coef))
                if not la.mat_is_zero(lhs):
                    details.append(f"{name} fails at x={x}, i={'+-'[i]}")

    # canonical identifications: creating-right components match an
    # annihilating-right solve over the S'-twisted dual of W; annihilating-
    # left components match a creating-left solve over the S'-twisted dual
    # (the S-twist is its inverse, so twisting twice returns W itself)
    duals = {}
    for family in _DUAL_FAMILIES:
        try:
            duals[family] = _twisted_dual_components(two_j, family)
        except ConventionError as exc:
            details.append(f"twisted-dual {family} solve fails: {exc}")
    for family, comp, name in zip(
        _DUAL_FAMILIES, (comps.phi_up, comps.psi_dn), ("creating-right", "annihilating-left")
    ):
        if family in duals and not _proportional_pairs(comp, duals[family]):
            details.append(f"dual identification fails for {name} components")

    return VerificationReport.from_failures(details, params={"j": Fraction(two_j, 2)})


def _proportional_pairs(pair1, pair2):
    """True when (A+, A-) equals (B+, B-) up to one overall nonzero scalar."""
    ratio = None
    for M, N in zip(pair1, pair2):
        for rm, rn in zip(M, N):
            for a, b in zip(rm, rn):
                if a.is_zero() != b.is_zero():
                    return False
                if not a.is_zero():
                    r = a / b
                    if ratio is None:
                        ratio = r
                    elif r != ratio:
                        return False
    return ratio is not None


# -- commutation with the q-exponential flows ---------------------------------


def verify_qexp_commutation(j):
    """The eight exact commutation identities between the vertex components
    and exp_{q^2}(t e), exp_{q^-2}(s f), as TimesPoly matrix identities."""
    two_j = twice(j)
    failures = [
        f"failed {name}" for name, res in _qexp_commutation_residuals(two_j).items() if not la.mat_is_zero(res)
    ]
    return VerificationReport.from_failures(failures, params={"j": Fraction(two_j, 2)})


def _qexp_commutation_residuals(two_j):
    """Residual TimesPoly matrices of the eight commutation identities."""
    comps = solve_vertex_components(Fraction(two_j, 2))
    src = make_rep(Fraction(two_j - 1, 2))
    tgt = make_rep(Fraction(two_j, 2))
    tvars = ("t", "s")
    Et = q_exp_nilpotent(tgt.E, "t", 2, tvars)
    Es = q_exp_nilpotent(src.E, "t", 2, tvars)
    Ft = q_exp_nilpotent(tgt.F, "s", -2, tvars)
    Fs = q_exp_nilpotent(src.F, "s", -2, tvars)

    def lift(M):
        return tp_lift(M, tvars)

    Ap, Am = lift(comps.phi_plus), lift(comps.phi_minus)
    Bp, Bm = lift(comps.psi_plus), lift(comps.psi_minus)
    Kinv_s = lift(src.Kinv)
    K_t = lift(tgt.K)
    tvar = TimesPoly.var(tvars, "t")
    svar = TimesPoly.var(tvars, "s")

    mm, ms = la.mat_mul, la.mat_sub

    checks = {}
    # exp(te) Phi+ = Phi+ exp(te)
    checks["exp(te)phi+"] = ms(mm(Et, Ap), mm(Ap, Es))
    # exp(te) Phi- = (t Phi+ k^{-1} + Phi-) exp(te)
    inner = la.mat_add(la.mat_scale(mm(Ap, Kinv_s), tvar), Am)
    checks["exp(te)phi-"] = ms(mm(Et, Am), mm(inner, Es))
    # exp(te) Psi+ = Psi+ exp(q t e) - q t Psi- exp(q^{-1} t e)
    Es_q = tp_scale_var(Es, "t", Q)
    Es_qi = tp_scale_var(Es, "t", QINV)
    rhs = ms(mm(Bp, Es_q), la.mat_scale(mm(Bm, Es_qi), tvar.scale(Q)))
    checks["exp(te)psi+"] = ms(mm(Et, Bp), rhs)
    # exp(te) Psi- = Psi- exp(q^{-1} t e)
    checks["exp(te)psi-"] = ms(mm(Et, Bm), mm(Bm, Es_qi))
    # Phi+ exp(sf) = exp(q^{-1} s f) Phi+ - exp(q s f) q^{-1} s Phi-
    Ft_q = tp_scale_var(Ft, "s", Q)
    Ft_qi = tp_scale_var(Ft, "s", QINV)
    rhs = ms(mm(Ft_qi, Ap), la.mat_scale(mm(Ft_q, Am), svar.scale(QINV)))
    checks["phi+exp(sf)"] = ms(mm(Ap, Fs), rhs)
    # Phi- exp(sf) = exp(q s f) Phi-
    checks["phi-exp(sf)"] = ms(mm(Am, Fs), mm(Ft_q, Am))
    # Psi+ exp(sf) = exp(sf) Psi+
    checks["psi+exp(sf)"] = ms(mm(Bp, Fs), mm(Ft, Bp))
    # Psi- exp(sf) = exp(sf)(Psi- + s k Psi+)
    inner = la.mat_add(Bm, la.mat_scale(mm(K_t, Bp), svar))
    checks["psi-exp(sf)"] = ms(mm(Bm, Fs), mm(Ft, inner))

    return checks
