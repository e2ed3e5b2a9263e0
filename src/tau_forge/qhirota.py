"""q-difference calculus and the bilinear tau identities it verifies.

The q-derivative used throughout is

    D^(q^k)_x f(x) = (f(q^k x) - f(x)) / ((q^k - 1) x),

which acts on polynomials monomial-wise as x^n -> (n)_{q^k} x^{n-1} and
never meets the 1/x singularity.  On top of it:

* a q-Taylor expansion with nodes a, q^k a, q^{2k} a, ... and its exact
  reconstruction,
* the general bilinear identity relating tau_j(u, x) tau_j'(v, y) and the
  half-spin-lower taus (verify_lm), with the e-side flow in slot 1 and the
  f-side flow in slot 2 of every tau,
* the double q-Taylor hierarchy extraction around y ~ q^alpha x,
  v ~ q^beta u,
* the spin-1/2 suite: the three displayed bilinear q-difference equations
  for tau = a + b u + c x + d u x and the classical q -> 1 Liouville limit.

Shifted arguments such as tau(q^-1 u, q x) always mean: substitute first,
then apply any q-derivative to the substituted polynomial.  The two orders
differ, and the displayed equations hold for this one.

Residuals live in the coordinate algebra itself, so a zero residual stays
zero under any algebra representation; operator-valued solutions are
covered by these checks without a separate evaluation engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .funq import tau_q
from .ncalg import NCPoly, Presentation, TimesPoly, funq_sl2
from .qscalar import ONE, PoleAtQOne, Q, QScalar, bracket, paren, qs
from .report import VerificationReport
from .uqsl2 import twice


# ---------------------------------------------------------------------------
# q-derivative and q-Taylor
# ---------------------------------------------------------------------------


def q_derivative(p, var, base_power):
    """Apply D^(q^base) in ``var`` to a TimesPoly or an NCPoly (linearly,
    leaving noncommutative words untouched)."""
    if isinstance(p, NCPoly):
        out = {}
        for w, t in p.terms.items():
            d = q_derivative(t, var, base_power)
            if not d.is_zero():
                out[w] = d
        return NCPoly(p.pres, p.vars, out)
    idx = p.vars.index(var)
    out = {}
    for m, c in p.terms.items():
        n = m[idx]
        if not n:
            continue
        mm = list(m)
        mm[idx] = n - 1
        mm = tuple(mm)
        add = c * paren(n, base_power)
        s = out.get(mm)
        s = add if s is None else s + add
        if s.is_zero():
            out.pop(mm, None)
        else:
            out[mm] = s
    return TimesPoly(p.vars, out)


def q_shift(p, var, k):
    """Substitute var -> q^k var."""
    return p.scale_var(var, QScalar.q_power(k))


def _subs_scaled(p, src, dst, qpow):
    if isinstance(p, NCPoly):
        out = {}
        for w, t in p.terms.items():
            s = t.subs_var_scaled(src, dst, qpow)
            if not s.is_zero():
                out[w] = s
        return NCPoly(p.pres, p.vars, out)
    return p.subs_var_scaled(src, dst, qpow)


def q_taylor(p, var, center_var, alpha, base_power, order):
    """Coefficients c_0..c_order of the q-Taylor expansion of ``p`` in ``var``
    around the point q^alpha * center_var:

        p = sum_m c_m (var - a)(var - q^k a) ... (var - q^{k(m-1)} a),
        a = q^alpha * center_var,  c_m = (D^(q^k))^m p |_{var=a} / (m)_{q^k}!.
    """
    qpow = QScalar.q_power(alpha)
    coeffs = []
    deriv = p
    fact = ONE
    for m in range(order + 1):
        if m:
            deriv = q_derivative(deriv, var, base_power)
            fact = fact * paren(m, base_power)
        at_center = _subs_scaled(deriv, var, center_var, qpow)
        coeffs.append(at_center.scale(fact.inv()))
    return coeffs


def q_taylor_reconstruct(coeffs, var, center_var, alpha, base_power, vars):
    """Re-sum q-Taylor coefficients against the node products (exact identity
    up to the expansion order)."""
    is_nc = isinstance(coeffs[0], NCPoly)
    acc = None
    node_prod = None
    for m, c in enumerate(coeffs):
        if m == 0:
            term = c
        else:
            node_q = QScalar.q_power(alpha + base_power * (m - 1))
            node = TimesPoly.var(vars, var) - TimesPoly.var(vars, center_var, coeff=node_q)
            node_prod = node if node_prod is None else node_prod * node
            term = c.mul_times(node_prod) if is_nc else c * node_prod
        acc = term if acc is None else acc + term
    return acc


# ---------------------------------------------------------------------------
# bilinear terms
# ---------------------------------------------------------------------------


@dataclass
class BilinearTerm:
    """One product term of a bilinear identity: prefactor * left * right,
    with per-variable q-power shifts applied to each factor before the
    product is flattened (left factor stays to the left)."""

    prefactor: TimesPoly
    left: NCPoly
    right: NCPoly
    left_shifts: dict
    right_shifts: dict

    def flatten(self):
        lf = self.left
        for v, k in self.left_shifts.items():
            lf = q_shift(lf, v, k)
        rf = self.right
        for v, k in self.right_shifts.items():
            rf = q_shift(rf, v, k)
        return lf.mul(rf).mul_times(self.prefactor)


@dataclass
class HierarchyCoefficient:
    k: int
    l: int
    value: NCPoly


# ---------------------------------------------------------------------------
# the general bilinear identity
# ---------------------------------------------------------------------------

LM_VARS = ("u", "x", "v", "y")


def lm_sides(j, jp, vars=LM_VARS):
    """LHS and RHS of the general identity as lists of BilinearTerms."""
    two_j, two_jp = twice(j), twice(jp)
    if two_j < 1 or two_jp < 1:
        raise ValueError("both spins must be at least 1/2")
    tj = tau_q(Fraction(two_j, 2), "u", "x", vars)
    tjp = tau_q(Fraction(two_jp, 2), "v", "y", vars)
    dx_tj = q_derivative(tj, "x", -2)
    dy_tjp = q_derivative(tjp, "y", -2)
    br_j = bracket(two_j)
    br_jp = bracket(two_jp)
    one = TimesPoly.one(vars)

    lhs = [
        BilinearTerm(one.scale(br_jp.inv()), tj, dy_tjp, {}, {}),
        BilinearTerm(
            one.scale(-(QScalar.q_power(-two_j) * br_j.inv())), dx_tj, tjp, {}, {}
        ),
        BilinearTerm(
            (
                TimesPoly.var(vars, "y", coeff=QScalar.q_power(two_jp - two_j - 1))
                - TimesPoly.var(vars, "x", coeff=QScalar.q_power(two_j - 1))
            ).scale((br_j * br_jp).inv()),
            dx_tj,
            dy_tjp,
            {},
            {},
        ),
    ]
    tjm = tau_q(Fraction(two_j - 1, 2), "u", "x", vars)
    tjpm = tau_q(Fraction(two_jp - 1, 2), "v", "y", vars)
    rhs = [
        BilinearTerm(
            TimesPoly.var(vars, "v") - TimesPoly.var(vars, "u", coeff=QScalar.q_power(-two_j)),
            tjm,
            tjpm,
            {"x": -1},
            {"v": -1},
        )
    ]
    return lhs, rhs


def lm_residual(j, jp, side="residual"):
    lhs, rhs = lm_sides(j, jp)
    if side == "lhs":
        terms = lhs
    elif side == "rhs":
        terms = rhs
    elif side == "residual":
        terms = lhs + [
            BilinearTerm(t.prefactor.scale(-ONE), t.left, t.right, t.left_shifts, t.right_shifts)
            for t in rhs
        ]
    else:
        raise ValueError(side)
    acc = None
    for t in terms:
        f = t.flatten()
        acc = f if acc is None else acc + f
    return acc


def verify_lm(j, jp):
    """Exact zero test of the general bilinear identity for the spin pair."""
    res = lm_residual(j, jp)
    ok = res.is_zero()
    return VerificationReport(
        check_id="lm",
        verdict=ok,
        residual="" if ok else str(res),
        params={"j": Fraction(twice(j), 2), "jprime": Fraction(twice(jp), 2)},
    )


def expand_hierarchy(j, jp, alpha, beta, kmax=3, lmax=3, side="residual"):
    """Double q-Taylor expansion (base q^-2) of the identity polynomial in
    y around q^alpha x and in v around q^beta u; returns the coefficients
    P_{k,l} for k <= kmax, l <= lmax."""
    poly = lm_residual(j, jp, side)
    out = []
    cks = q_taylor(poly, "y", "x", alpha, -2, kmax)
    for k, ck in enumerate(cks):
        cls = q_taylor(ck, "v", "u", beta, -2, lmax)
        for l, val in enumerate(cls):
            out.append(HierarchyCoefficient(k=k, l=l, value=val))
    return out


# ---------------------------------------------------------------------------
# spin-1/2 suite
# ---------------------------------------------------------------------------

_UX = ("u", "x")


def spin_half_tau(pres=None, vars=_UX):
    """tau = a + b u + c x + d u x over the given presentation."""
    pres = pres or funq_sl2()
    return NCPoly(
        pres,
        vars,
        {
            ("a",): TimesPoly.one(vars),
            ("b",): TimesPoly.var(vars, "u"),
            ("c",): TimesPoly.var(vars, "x"),
            ("d",): TimesPoly.var(vars, "u") * TimesPoly.var(vars, "x"),
        },
    )


def eq_half_residual():
    """Residual of the spin-(1/2, 1/2) equation in its displayed form:

        (q Dy - Dx + (y - q x) Dy Dx) tau(u,x) tau(v,y) - (q v - u),

    all derivatives base q^-2."""
    vars = LM_VARS
    pres = funq_sl2()
    t1 = spin_half_tau(pres, vars)
    t2 = NCPoly(
        pres,
        vars,
        {
            ("a",): TimesPoly.one(vars),
            ("b",): TimesPoly.var(vars, "v"),
            ("c",): TimesPoly.var(vars, "y"),
            ("d",): TimesPoly.var(vars, "v") * TimesPoly.var(vars, "y"),
        },
    )
    prod = t1.mul(t2)
    dy = q_derivative(prod, "y", -2)
    dx = q_derivative(prod, "x", -2)
    dxy = q_derivative(dy, "x", -2)
    lhs = (
        dy.scale(Q)
        - dx
        + dxy.mul_times(TimesPoly.var(vars, "y") - TimesPoly.var(vars, "x", coeff=Q))
    )
    rhs = NCPoly.from_times(
        pres, TimesPoly.var(vars, "v", coeff=Q) - TimesPoly.var(vars, "u")
    )
    return lhs - rhs


def verify_eq_half():
    res = eq_half_residual()
    ok = res.is_zero()
    return VerificationReport(
        check_id="qliouville.eq-half",
        verdict=ok,
        residual="" if ok else str(res),
    )


def _shifted(tau, us, xs):
    """tau(q^us u, q^xs x)."""
    t = tau
    if us:
        t = q_shift(t, "u", us)
    if xs:
        t = q_shift(t, "x", xs)
    return t


def hierarchy_eq_residual(n, pres=None):
    """Residuals of the three displayed spin-1/2 hierarchy equations.

    n = 1: tau . Dx tau(q^-1 u, q x) - Dx tau . tau(q^-1 u, q x)
    n = 2: tau . Dx Du tau(q^-1 u, q x) - Dx tau . Du tau(q^-1 u, q x) - 1
    n = 3: tau . Dx^2 tau(q^-1 u, q x) - Dx tau . Dx tau(q^-1 u, q x)
           + q^2 Dx tau . Dx tau(q^-1 u, q^-1 x)
    """
    pres = pres or funq_sl2()
    tau = spin_half_tau(pres)
    tau_s = _shifted(tau, -1, 1)  # tau(q^-1 u, q x)
    dx_tau = q_derivative(tau, "x", -2)
    if n == 1:
        return tau.mul(q_derivative(tau_s, "x", -2)) - dx_tau.mul(tau_s)
    if n == 2:
        dxu = q_derivative(q_derivative(tau_s, "u", -2), "x", -2)
        res = tau.mul(dxu) - dx_tau.mul(q_derivative(tau_s, "u", -2))
        return res - NCPoly.one(pres, _UX)
    if n == 3:
        dxx = q_derivative(q_derivative(tau_s, "x", -2), "x", -2)
        tau_sm = _shifted(tau, -1, -1)  # tau(q^-1 u, q^-1 x)
        return (
            tau.mul(dxx)
            - dx_tau.mul(q_derivative(tau_s, "x", -2))
            + dx_tau.mul(q_derivative(tau_sm, "x", -2)).scale(Q * Q)
        )
    raise ValueError(n)


_COMM_SL2 = None


def commutative_sl2():
    """Commuting a, b, c, d with ad - bc = 1 (the classical-limit carrier)."""
    global _COMM_SL2
    if _COMM_SL2 is None:
        _COMM_SL2 = Presentation(
            "commutative_sl2",
            ("a", "d", "b", "c"),
            {
                ("d", "a"): {(): ONE, ("b", "c"): ONE},
                ("a", "d"): {(): ONE, ("b", "c"): ONE},
                ("b", "a"): {("a", "b"): ONE},
                ("c", "a"): {("a", "c"): ONE},
                ("b", "d"): {("d", "b"): ONE},
                ("c", "d"): {("d", "c"): ONE},
                ("c", "b"): {("b", "c"): ONE},
            },
        )
    return _COMM_SL2


def spin_half_suite():
    """The displayed spin-1/2 equations plus the classical Liouville limit."""
    details = []
    ok = True
    residual = ""
    for n in (1, 2, 3):
        res = hierarchy_eq_residual(n)
        if not res.is_zero():
            ok = False
            details.append(f"equation {n} residual nonzero: {res}")
    # classical limit: commuting a, b, c, d with ad - bc = 1; the equation-2
    # combination evaluated at q = 1 must vanish identically
    try:
        res = hierarchy_eq_residual(2, pres=commutative_sl2())
        res_q1 = res.map_coefficients(
            lambda c: QScalar.from_rational(c.eval_q1())
        )
        if not res_q1.is_zero():
            ok = False
            details.append(f"classical limit residual nonzero: {res_q1}")
    except PoleAtQOne as exc:
        ok = False
        details.append(f"classical limit aborted: {exc}")
    if not ok:
        residual = "; ".join(details)
    return VerificationReport(
        check_id="qliouville.suite",
        verdict=ok,
        residual=residual,
        details=details,
    )
