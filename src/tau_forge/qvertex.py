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

All but the normalizations run over Z[q, q^-1], with no division and no
gcd.  The four components Phi_+-, Psi^+- are cleared by one scale, the lcm
of their denominators (``linalg.lau_cleared``), and each dual pair by its
own; the legs and antipode tables have Laurent entries, and the
q-exponentials are in divided powers (``uqsl2._q_exp``): the t^m
coefficient times (m)_{q^+-2}! is the Laurent matrix x^m.  Every relation
is linear in the components of one pair, so its residual over Z[q, q^-1]
(in t^m, for the flows) is the Q(q) residual times a nonzero scale, and
Z[q, q^-1] has no zero divisors: it is zero exactly when the Q(q) residual
is.  The dual identification compares the cleared pairs by cross products.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from . import funq
from . import linalg as la
from .linalg import ConventionError
from .qscalar import ONE, Q, QScalar, ZERO, bracket
from .report import VerificationReport
from .uqsl2 import (
    COPRODUCT,
    Rep,
    _lau_legs,
    _lau_table,
    _q_exp,
    _q_paren,
    _rep,
    antipode_inv_matrices,
    antipode_matrices,
    coproduct,
    make_rep,
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
    verify_component_relations compares the dual-route components against,
    as a Laurent pair over one scale (``linalg.lau_cleared``)."""
    return la.lau_cleared(_family_components(two_j, family, _twisted_dual_w()))[1]


@cache
def _lau_components(two_j):
    """``solve_vertex_components`` over Z[q, q^-1], as three (scale, views)
    pairs (``linalg.lau_cleared``): the four components (Phi_+, Phi_-,
    Psi^+, Psi^-) times one nonzero scale, and each dual pair, phi_up and
    psi_dn, times its own.  Every relation below is linear in the
    components of one pair, so its residual over the cleared pair is the
    Q(q) residual times the pair's scale."""
    comps = solve_vertex_components(Fraction(two_j, 2))
    four = la.lau_cleared([comps.phi_plus, comps.phi_minus, comps.psi_plus, comps.psi_minus])
    return four, la.lau_cleared(comps.phi_up), la.lau_cleared(comps.psi_dn)


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
    details = [
        f"{name} fails at x={x}, i={'+-'[i]}"
        for (name, x, i), res in _component_relation_residuals(two_j).items()
        if not la.lau_is_zero(res)
    ]

    # canonical identifications: creating-right components match an
    # annihilating-right solve over the S'-twisted dual of W; annihilating-
    # left components match a creating-left solve over the S'-twisted dual
    # (the S-twist is its inverse, so twisting twice returns W itself)
    _, (_, phi_up), (_, psi_dn) = _lau_components(two_j)
    duals = {}
    for family in _DUAL_FAMILIES:
        try:
            duals[family] = _twisted_dual_components(two_j, family)
        except ConventionError as exc:
            details.append(f"twisted-dual {family} solve fails: {exc}")
    for family, comp, name in zip(_DUAL_FAMILIES, (phi_up, psi_dn), ("creating-right", "annihilating-left")):
        if family in duals and not _proportional_pairs(comp, duals[family]):
            details.append(f"dual identification fails for {name} components")

    return VerificationReport.from_failures(details, params={"j": Fraction(two_j, 2)})


def _component_relation_residuals(two_j):
    """{(name, x, i): residual} of the relations R1-R4 over Z[q, q^-1]: the
    Q(q) residual times the scale of the family's pair (``_lau_components``)."""
    (_, (ap, am, bp, bm)), (_, phi_up), (_, psi_dn) = _lau_components(two_j)

    # (R1)  sum S(x1) Phi^i x2 = sum_j rho_j^i(x) Phi^j
    # (R2)  sum S'(x2) Psi^i x1 = sum_j rho_j^i(x) Psi^j
    # (R3)  sum x2 Phi_i S'(x1) = sum_j rho_i^j(x) Phi_j
    # (R4)  sum x1 Psi_i S(x2) = sum_j rho_i^j(x) Psi_j
    # rows: name, components, whether rho is indexed (j, i), the leg of each
    # summand x1 ox x2 on the target side (0 for x1, 1 for x2; the other leg
    # goes on the source side), and the target- and source-side tables, an
    # antipode table on the twisted side; every table has Laurent entries
    src, tgt = _rep(two_j - 1), _rep(two_j)
    S_t, Sp_t = _lau_table(antipode_matrices(tgt)), _lau_table(antipode_inv_matrices(tgt))
    S_s, Sp_s = _lau_table(antipode_matrices(src)), _lau_table(antipode_inv_matrices(src))
    legs_s, legs_t = _lau_legs(two_j - 1), _lau_legs(two_j)
    families = (
        ("R1", phi_up, False, 0, S_t, legs_s),
        ("R2", (bp, bm), False, 1, Sp_t, legs_s),
        ("R3", (ap, am), True, 1, legs_t, Sp_s),
        ("R4", psi_dn, True, 0, legs_t, S_s),
    )
    rho = _lau_legs(1)
    mm = la.lau_mul
    out = {}
    for x in ("e", "f", "k"):
        for name, comp, swapped, side, on_tgt, on_src in families:
            for i in (0, 1):
                terms = [
                    (la.LAU_ONE, mm(on_tgt[legs[side]], mm(comp[i], on_src[legs[1 - side]])))
                    for legs in COPRODUCT[x]
                ]
                for jj in (0, 1):
                    coef = rho[x][jj].get(i) if swapped else rho[x][i].get(jj)
                    if coef:
                        terms.append((la.lau_neg(coef), comp[jj]))
                out[name, x, i] = la.lau_lin(terms)
    return out


def _proportional_pairs(pair1, pair2):
    """True when the Laurent pairs (A+, A-) and (B+, B-) agree up to one
    overall nonzero factor of Q(q): the same nonzero entries, and
    a b0 = b a0 at each, (a0, b0) the first nonzero pair."""
    flat1, flat2 = (
        {(m, i, j): p for m, M in enumerate(pair) for i, row in enumerate(M) for j, p in row.items()}
        for pair in (pair1, pair2)
    )
    if not flat1 or flat1.keys() != flat2.keys():
        return False
    first = next(iter(flat1))
    a0, b0 = flat1[first], flat2[first]
    return all(la.lau_poly_mul(a, b0) == la.lau_poly_mul(flat2[k], a0) for k, a in flat1.items())


# -- commutation with the q-exponential flows ---------------------------------


def verify_qexp_commutation(j):
    """The eight exact commutation identities between the vertex components
    and exp_{q^2}(t e), exp_{q^-2}(s f), as matrix identities over
    Z[q, q^-1] in each power of t (of s in the last four)."""
    two_j = twice(j)
    failures = [
        f"failed {name}"
        for name, res in _qexp_commutation_residuals(two_j).items()
        if not all(map(la.lau_is_zero, res))
    ]
    return VerificationReport.from_failures(failures, params={"j": Fraction(two_j, 2)})


def _qexp_commutation_residuals(two_j):
    """{name: residuals} of the eight commutation identities: residuals[m]
    is the t^m coefficient of the Q(q) residual times the components'
    scale and (m)_{q^b}!, b = 2 for e and -2 for f.  Each term of an
    identity is L exp(q^c t x) R times q^e t^k, L and R products of
    components and legs, and the exponentials are in divided powers
    (``uqsl2._q_exp``), so its t^m coefficient times (m)_{q^b}! is
    q^(e + c (m - k)) ((m)_{q^b} if k else 1) L x^(m-k) R."""
    (_, (Ap, Am, Bp, Bm)), _, _ = _lau_components(two_j)
    mm = la.lau_mul
    ApKinv = mm(Ap, _lau_legs(two_j - 1)["kinv"])
    KBp = mm(_lau_legs(two_j)["k"], Bp)
    Et, Es = _q_exp((("e",),), (two_j,)), _q_exp((("e",),), (two_j - 1,))
    Ft, Fs = _q_exp((("f",),), (two_j,)), _q_exp((("f",),), (two_j - 1,))
    plus, minus, q, qinv = {0: 1}, {0: -1}, {1: 1}, {-1: 1}
    # name: (b, terms), each term (+-q^e, c, k, L, exponential, R), the
    # source-side exponentials on the right, the target-side ones on the left
    identities = {
        # exp(te) Phi+ = Phi+ exp(te)
        "exp(te)phi+": (2, [(plus, 0, 0, None, Et, Ap), (minus, 0, 0, Ap, Es, None)]),
        # exp(te) Phi- = (t Phi+ k^{-1} + Phi-) exp(te)
        "exp(te)phi-": (2, [
            (plus, 0, 0, None, Et, Am), (minus, 0, 1, ApKinv, Es, None), (minus, 0, 0, Am, Es, None),
        ]),
        # exp(te) Psi+ = Psi+ exp(q t e) - q t Psi- exp(q^{-1} t e)
        "exp(te)psi+": (2, [(plus, 0, 0, None, Et, Bp), (minus, 1, 0, Bp, Es, None), (q, -1, 1, Bm, Es, None)]),
        # exp(te) Psi- = Psi- exp(q^{-1} t e)
        "exp(te)psi-": (2, [(plus, 0, 0, None, Et, Bm), (minus, -1, 0, Bm, Es, None)]),
        # Phi+ exp(sf) = exp(q^{-1} s f) Phi+ - exp(q s f) q^{-1} s Phi-
        "phi+exp(sf)": (-2, [
            (plus, 0, 0, Ap, Fs, None), (minus, -1, 0, None, Ft, Ap), (qinv, 1, 1, None, Ft, Am),
        ]),
        # Phi- exp(sf) = exp(q s f) Phi-
        "phi-exp(sf)": (-2, [(plus, 0, 0, Am, Fs, None), (minus, 1, 0, None, Ft, Am)]),
        # Psi+ exp(sf) = exp(sf) Psi+
        "psi+exp(sf)": (-2, [(plus, 0, 0, Bp, Fs, None), (minus, 0, 0, None, Ft, Bp)]),
        # Psi- exp(sf) = exp(sf)(Psi- + s k Psi+)
        "psi-exp(sf)": (-2, [
            (plus, 0, 0, Bm, Fs, None), (minus, 0, 0, None, Ft, Bm), (minus, 0, 1, None, Ft, KBp),
        ]),
    }

    def degree(m, base, terms):
        for mono, c, k, L, S, R in terms:
            if 0 <= m - k < len(S):
                coef = {e + c * (m - k): v for e, v in mono.items()}
                M = S[m - k]
                if L:
                    M = mm(L, M)
                if R:
                    M = mm(M, R)
                yield (la.lau_poly_mul(coef, _q_paren(m, base)) if k else coef), M

    return {
        name: [la.lau_lin(degree(m, base, terms)) for m in range(two_j + 1)]
        for name, (base, terms) in identities.items()
    }
