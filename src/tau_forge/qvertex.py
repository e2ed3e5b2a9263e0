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
``embed_chain(1/2, j-1/2)``, solved and cached once
(``funq._projection``).  The first two families are normalized by their
highest-weight actions (pi by its own pi . iota = 1)

    Phi_+ |j-1/2> = |j>,          Phi_- |j-1/2> = q^{1-2j}/[2j] f |j>,
    Psi^+ |j-1/2> = -q/[2j] f |j>, Psi^- |j-1/2> = |j>.

The module verifies those normalizations, the component form of the
intertwining relations (with antipode twists), the canonical identification
of the "dual" components with components for the twisted-dual auxiliary
space, and the eight commutation relations with the q-exponential flows.

Every check runs over Z[q, q^-1], with no division and no gcd, on one
source: ``_raw_components``, the undivided intertwiner solves
(``linalg.intertwiner``), cached once per target spin.  The legs and
antipode tables are Laurent matrices, and the q-exponentials are in
divided powers (``uqsl2._q_exp``): the t^m coefficient times
(m)_{q^+-2}! is the Laurent matrix x^m.  Every relation is linear in the
components of one pair, and a raw pair is its normalized pair times the
entry it is normalized by (``_normalizers``), so its residual over
Z[q, q^-1] (in t^m, for the flows) is the Q(q) residual times a nonzero
scale, and Z[q, q^-1] has no zero divisors: it is zero exactly when the
Q(q) residual is.  The normalizations are cross-multiplied alike: a raw
column times [2j] against the normalizing entry times q^{1-2j} f |j>, for
example.  The dual identification compares raw pairs by cross products.
Q(q) appears only in the public ``solve_vertex_components``, which divides
each raw pair once by its normalizing entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from . import funq
from . import linalg as la
from ._kernels import _LAURENT_ONE, _addmul, _laurent_mul, _trim
from .linalg import ConventionError
from .qscalar import _q_bracket, _q_paren
from .report import VerificationReport
from .uqsl2 import (
    COPRODUCT,
    Rep,
    _q_exp,
    _rep,
    antipode_inv_matrices,
    antipode_matrices,
    coproduct,
    twice,
)


def _twisted_dual_w():
    """W* with x acting as rho(S'(x))^T."""
    Sp = antipode_inv_matrices(_rep(1))
    t = la.lau_transpose
    return Rep(1, t(Sp["e"]), t(Sp["f"]), t(Sp["k"]), t(Sp["kinv"]))


@dataclass(frozen=True)
class VertexComponents:
    """Components of the four vertex-operator families at a given target
    spin: QScalar matrices in ``solve_vertex_components``, undivided Laurent
    matrices in ``_raw_components``."""

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
    """``_raw_components`` with each pair divided by its normalizing entry
    (``_normalizers``), as QScalar matrices: the one place the vertex
    operators enter Q(q)."""
    raw = _raw_components(two_j)
    phi, psi, up, dn = _normalizers(raw)

    def divided(pair, den):
        return tuple(la.lau_divided(M, two_j, den) for M in pair)

    phi_plus, phi_minus = divided((raw.phi_plus, raw.phi_minus), phi)
    psi_plus, psi_minus = divided((raw.psi_plus, raw.psi_minus), psi)
    return VertexComponents(
        two_j=two_j,
        phi_plus=phi_plus,
        phi_minus=phi_minus,
        psi_plus=psi_plus,
        psi_minus=psi_minus,
        phi_up=divided(raw.phi_up, up),
        psi_dn=divided(raw.psi_dn, dn),
    )


def _normalizers(raw):
    """The entry each raw pair is divided by, in the order Phi_+-, Psi^+-,
    phi_up, psi_dn: pi[0][0] for the two embedding projections (as
    ``funq.embed_chain``), Psi^-'s highest-weight entry (ConventionError if
    it is zero) and phi_up's first nonzero entry."""
    psi = raw.psi_minus[0].get(0)
    if psi is None:
        raise ConventionError("Psi^- does not reach the highest weight vector")
    up = next(row[min(row)] for M in raw.phi_up for row in M if row)
    return raw.phi_plus[0][0], psi, up, raw.psi_dn[0][0][0]


@cache
def _raw_components(two_j):
    """The vertex components V_{j-1/2} -> V_j over Z[q, q^-1], each family's
    pair undivided: Phi_+- and psi_dn split the projections
    ``funq._projection`` of V_{j-1/2} ox W and W ox V_{j-1/2}, and Psi^+-
    and phi_up the creating solves over W.  Every relation below is linear
    in one pair, so its residual over the raw pair is the Q(q) residual
    times the pair's normalizing entry."""
    W = _rep(1)
    phi = funq._projection(two_j - 1, 1)  # column r * 2 + a
    psi = funq._projection(1, two_j - 1)  # column a * ds + r
    ds = two_j  # dim V_src
    psi_plus, psi_minus = _family_components(two_j, "creating left", W)
    return VertexComponents(
        two_j=two_j,
        phi_plus=_columns(phi, 0, 2),
        phi_minus=_columns(phi, 1, 2),
        psi_plus=psi_plus,
        psi_minus=psi_minus,
        phi_up=_family_components(two_j, "creating right", W),
        psi_dn=tuple([{c - a * ds: p for c, p in row.items() if c // ds == a} for row in psi] for a in (0, 1)),
    )


def _columns(M, a, step):
    """Columns a, a + step, a + 2 step, ... of the Laurent matrix M."""
    return [{c // step: p for c, p in row.items() if c % step == a} for row in M]


@cache
def _twisted_dual_components(two_j, family):
    """``family`` solved over the twisted dual of W, the solve that
    verify_component_relations compares the dual-route components against,
    as an undivided Laurent pair."""
    return _family_components(two_j, family, _twisted_dual_w())


def _family_components(two_j, family, aux):
    """Solve one vertex family V_{j-1/2} -> V_j over the auxiliary
    representation ``aux`` (basis indexed a = 0, 1 for +, -) and split it
    into its (+, -) components, each a dim V_j x dim V_{j-1/2} Laurent
    matrix."""
    src, tgt = _rep(two_j - 1), _rep(two_j)
    dt = tgt.dim
    if family == "annihilating right":  # V_src ox aux -> V_tgt, column r * 2 + a
        M = la.intertwiner(tgt.action, coproduct(src, aux))
        return _columns(M, 0, 2), _columns(M, 1, 2)
    if family == "creating left":  # V_src -> aux ox V_tgt, row a * dt + i
        M = la.intertwiner(coproduct(aux, tgt), src.action)
        return M[:dt], M[dt:]
    if family == "creating right":  # V_src -> V_tgt ox aux, row i * 2 + a
        M = la.intertwiner(coproduct(tgt, aux), src.action)
        return M[0::2], M[1::2]
    raise ValueError(f"unknown vertex family {family!r}")


def vacuum_normalization_residuals(j):
    """{name: residual} of the eight highest-weight actions of Phi_+- and
    Psi^+- (module docstring) over Z[q, q^-1], each a Laurent vector.  An
    action reads column 0 or row 0 of a normalized component, and its target
    is (a / b) times a basis vector, a, b Laurent; the residual is that
    column or row of the raw component times b minus the pair's normalizing
    entry (``_normalizers``) times a on that vector, the Q(q) residual times
    b and the entry."""
    two_j = twice(j)
    raw = _raw_components(two_j)
    phi, psi, _up, _dn = _normalizers(raw)
    one, zero, bracket = _LAURENT_ONE, {}, _q_bracket(two_j)

    def col(M):
        return [row.get(0, {}) for row in M]

    def row(M):
        return [M[0].get(c, {}) for c in range(two_j)]

    # name: (raw vector, normalizing entry, b, a, index of the basis vector):
    # |j> and <j-1/2| are index 0, f|j> is index 1
    actions = {
        "phi+|hw>": (col(raw.phi_plus), phi, one, one, 0),
        "phi-|hw>": (col(raw.phi_minus), phi, bracket, {1 - two_j: 1}, 1),
        "psi+|hw>": (col(raw.psi_plus), psi, bracket, {1: -1}, 1),
        "psi-|hw>": (col(raw.psi_minus), psi, one, one, 0),
        "<hw|phi+": (row(raw.phi_plus), phi, one, one, 0),
        "<hw|phi-": (row(raw.phi_minus), phi, one, zero, 0),
        "<hw|psi+": (row(raw.psi_plus), psi, one, zero, 0),
        "<hw|psi-": (row(raw.psi_minus), psi, one, one, 0),
    }
    out = {}
    for name, (vec, entry, b, a, at) in actions.items():
        res = [_addmul({}, b, v) for v in vec]
        _addmul(res[at], a, entry, -1)
        out[name] = [_trim(p) for p in res]
    return out


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
    raw = _raw_components(two_j)
    duals = {}
    for family in _DUAL_FAMILIES:
        try:
            duals[family] = _twisted_dual_components(two_j, family)
        except ConventionError as exc:
            details.append(f"twisted-dual {family} solve fails: {exc}")
    for family, comp, name in zip(_DUAL_FAMILIES, (raw.phi_up, raw.psi_dn), ("creating-right", "annihilating-left")):
        if family in duals and not _proportional_pairs(comp, duals[family]):
            details.append(f"dual identification fails for {name} components")

    return VerificationReport.from_failures(details, params={"j": Fraction(two_j, 2)})


def _component_relation_residuals(two_j):
    """{(name, x, i): residual} of the relations R1-R4 over Z[q, q^-1]: the
    Q(q) residual times the normalizing entry of the family's raw pair
    (``_raw_components``)."""
    raw = _raw_components(two_j)

    # (R1)  sum S(x1) Phi^i x2 = sum_j rho_j^i(x) Phi^j
    # (R2)  sum S'(x2) Psi^i x1 = sum_j rho_j^i(x) Psi^j
    # (R3)  sum x2 Phi_i S'(x1) = sum_j rho_i^j(x) Phi_j
    # (R4)  sum x1 Psi_i S(x2) = sum_j rho_i^j(x) Psi_j
    # rows: name, components, whether rho is indexed (j, i), the leg of each
    # summand x1 ox x2 on the target side (0 for x1, 1 for x2; the other leg
    # goes on the source side), and the target- and source-side tables, an
    # antipode table on the twisted side; every table has Laurent entries
    src, tgt = _rep(two_j - 1), _rep(two_j)
    S_t, Sp_t = antipode_matrices(tgt), antipode_inv_matrices(tgt)
    S_s, Sp_s = antipode_matrices(src), antipode_inv_matrices(src)
    legs_s, legs_t = src.legs, tgt.legs
    families = (
        ("R1", raw.phi_up, False, 0, S_t, legs_s),
        ("R2", (raw.psi_plus, raw.psi_minus), False, 1, Sp_t, legs_s),
        ("R3", (raw.phi_plus, raw.phi_minus), True, 1, legs_t, Sp_s),
        ("R4", raw.psi_dn, True, 0, legs_t, S_s),
    )
    rho = _rep(1).legs
    mm = la.lau_mul
    out = {}
    for x in ("e", "f", "k"):
        for name, comp, swapped, side, on_tgt, on_src in families:
            for i in (0, 1):
                terms = [
                    (_LAURENT_ONE, mm(on_tgt[legs[side]], mm(comp[i], on_src[legs[1 - side]])))
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
    return all(_laurent_mul(a, b0) == _laurent_mul(flat2[k], a0) for k, a in flat1.items())


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
    is the t^m coefficient of the Q(q) residual times the normalizing entry
    of the raw pair it reads (``_raw_components``: Phi_+- or Psi^+-) and
    (m)_{q^b}!, b = 2 for e and -2 for f.  Each term of an
    identity is L exp(q^c t x) R times q^e t^k, L and R products of
    components and legs, and the exponentials are in divided powers
    (``uqsl2._q_exp``), so its t^m coefficient times (m)_{q^b}! is
    q^(e + c (m - k)) ((m)_{q^b} if k else 1) L x^(m-k) R."""
    raw = _raw_components(two_j)
    Ap, Am, Bp, Bm = raw.phi_plus, raw.phi_minus, raw.psi_plus, raw.psi_minus
    mm = la.lau_mul
    ApKinv = mm(Ap, _rep(two_j - 1).Kinv)
    KBp = mm(_rep(two_j).K, Bp)
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
                yield (_laurent_mul(coef, _q_paren(m, base)) if k else coef), M

    return {
        name: [la.lau_lin(degree(m, base, terms)) for m in range(two_j + 1)]
        for name, (base, terms) in identities.items()
    }
