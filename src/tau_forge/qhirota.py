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

The general identity is evaluated without Q(q) arithmetic.  ``lm_sides``
states it literally, as BilinearTerms over the taus; every tau coefficient
is a Laurent polynomial in q with integer coefficients, and the only other
denominators are the brackets [2j] and [2j'] in the prefactors.  Each side
is therefore multiplied by [2j][2j'] and built over packed Laurent integers
(``_LaurentRing``): q-shifts and q-derivatives move exponents on packed
keys, and word products take their normal forms from ``reduce_word``.
[2j][2j'] is a nonzero element of Q(q), so a scaled side, or the scaled
residual, is zero exactly when the unscaled one is, and the zero test
stays exact without a gcd.  ``lm_residual`` divides by [2j][2j'] once and
returns an NCPoly over Q(q).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .funq import tau_q
from .ncalg import NCPoly, Presentation, TimesPoly, funq_sl2
from ._kernels import _addmul, _pack, _trim, _unpack
from .qscalar import ONE, PoleAtQOne, Q, QScalar, bracket, paren
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
# bilinear terms over packed Laurent integers
# ---------------------------------------------------------------------------


def _laurent(c):
    """{q-exponent: int} of a QScalar that is a Laurent polynomial over Z."""
    # canonical denominators are primitive with a positive leading
    # coefficient, so a single-term one is q^k
    if len(c.dc) != 1:
        raise ValueError(f"not a Laurent polynomial: {c}")
    (k, _), = c.dc.items()
    out = {}
    for e, n in c.nc.items():
        v = c.s * n
        if v.denominator != 1:
            raise ValueError(f"not a Laurent polynomial over the integers: {c}")
        out[e - k] = int(v)
    return out


def _add_words(acc, p, sign=1):
    """acc += sign * p for packed NC polynomials, in place; cancelled terms
    stay as zeros."""
    for w, d in p.items():
        a = acc.get(w)
        if a is None:
            a = acc[w] = {}
        for key, c in d.items():
            a[key] = a.get(key, 0) + sign * c
    return acc


def _trim_words(p):
    return {w: d for w, d in ((w, _trim(d)) for w, d in p.items()) if d}


def _degrees(p):
    """Largest exponent of each time variable in a TimesPoly or NCPoly."""
    polys = p.terms.values() if isinstance(p, NCPoly) else (p,)
    out = [0] * len(p.vars)
    for tp in polys:
        for m in tp.terms:
            out = [max(a, b) for a, b in zip(out, m)]
    return out


def _degree_bound(terms):
    """No exponent in any product term exceeds this: each variable's degree
    in prefactor * left * right is at most the sum of the three degrees, a
    q-shift keeps degrees and a q-derivative lowers them."""
    return max(
        (
            max(sum(ds) for ds in zip(_degrees(t.prefactor), _degrees(t.left), _degrees(t.right)))
            for t in terms
        ),
        default=0,
    )


class _LaurentRing:
    """Noncommutative polynomials with Laurent-polynomial integer
    coefficients, packed: {normal word: {key: int}}.

    A key holds the time-variable exponents in ``width``-bit fields (variable
    i in field i, ``_kernels._pack``) and the q-exponent above them, at bit
    ``top``.  That field is signed and unbounded, so adding two keys
    multiplies the monomials, q-powers included, as long as no time field
    overflows; the width comes from ``_degree_bound`` over every term the
    ring will multiply.  Normal forms of words come from the presentation's
    ``reduce_word``, each converted once to packed q-powers.
    """

    def __init__(self, pres, vars, terms):
        self.pres = pres
        self.vars = vars
        self.width = max(1, _degree_bound(terms).bit_length())
        self.top = len(vars) * self.width
        self._factors = {}
        self._words = {}

    def factor(self, p):
        """An NCPoly with Laurent coefficients, packed (once per object)."""
        hit = self._factors.get(id(p))
        if hit is not None and hit[0] is p:
            return hit[1]
        out = {}
        for w, tp in p.terms.items():
            d = {}
            for m, c in tp.terms.items():
                base = _pack(m, self.width)
                for e, v in _laurent(c).items():
                    d[base + (e << self.top)] = v
            out[w] = d
        self._factors[id(p)] = (p, out)
        return out

    def times(self, tp, scale):
        """The TimesPoly ``scale * tp``, whose coefficients must be Laurent."""
        return {
            _pack(m, self.width) + (e << self.top): v
            for m, c in tp.terms.items()
            for e, v in _laurent(c * scale).items()
        }

    def shift(self, p, var, k):
        """var -> q^k var: the q field gains k times the var exponent."""
        at = self.vars.index(var) * self.width
        mask = (1 << self.width) - 1
        top = self.top
        return {
            w: {key + ((((key >> at) & mask) * k) << top): c for key, c in d.items()}
            for w, d in p.items()
        }

    def derivative(self, p, var, base_power):
        """D^(q^base_power)_var: var^n -> (n)_{q^base} var^(n-1)."""
        at = self.vars.index(var) * self.width
        mask = (1 << self.width) - 1
        one = 1 << at
        top = self.top
        out = {}
        for w, d in p.items():
            r = {}
            for key, c in d.items():
                n = (key >> at) & mask
                if n:
                    key -= one
                    for i in range(n):
                        kk = key + ((base_power * i) << top)
                        r[kk] = r.get(kk, 0) + c
            r = _trim(r)
            if r:
                out[w] = r
        return out

    def _normal(self, word):
        """The normal form of a raw word with packed q-power coefficients."""
        hit = self._words.get(word)
        if hit is None:
            top = self.top
            hit = self._words[word] = [
                (w, {e << top: v for e, v in _laurent(c).items()})
                for w, c in self.pres.reduce_word(word).items()
            ]
        return hit

    def product(self, pre, left, right):
        """pre * left * right in normal form (pre a packed commutative
        polynomial)."""
        out = {}
        for w1, d1 in left.items():
            d1 = _addmul({}, pre, d1)
            for w2, d2 in right.items():
                d = _addmul({}, d1, d2)
                for nw, qk in self._normal(w1 + w2):
                    acc = out.get(nw)
                    if acc is None:
                        acc = out[nw] = {}
                    _addmul(acc, d, qk)
        return out

    def sum(self, terms, scale):
        """The sum of the flattened terms, each times scale."""
        acc = {}
        for t in terms:
            _add_words(acc, t.flatten(scale, self))
        return _trim_words(acc)

    def to_ncpoly(self, p, divisor):
        """p / divisor as an NCPoly over Q(q)."""
        inv = divisor.inv()
        low_mask = (1 << self.top) - 1
        n = len(self.vars)
        out = {}
        for w, d in p.items():
            groups = {}
            for key, c in d.items():
                groups.setdefault(key & low_mask, {})[key >> self.top] = c
            out[w] = TimesPoly(
                self.vars,
                {_unpack(m, n, self.width): QScalar.from_terms(lau) * inv for m, lau in groups.items()},
            )
        return NCPoly(self.pres, self.vars, out)


@dataclass
class BilinearTerm:
    """One product term of a bilinear identity:

        prefactor * D_left(left) * D_right(right),

    each factor first q-shifted per variable (``*_shifts``: var -> k means
    var -> q^k var), then q-differentiated (``*_derivs``: (var, base) pairs,
    D^(q^base)_var, applied in order).  The left factor stays to the left."""

    prefactor: TimesPoly
    left: NCPoly
    right: NCPoly
    left_shifts: dict
    right_shifts: dict
    left_derivs: tuple = ()
    right_derivs: tuple = ()

    def flatten(self, scale, ring):
        """scale times the term, packed in ``ring``; scale * prefactor and
        both factors must have Laurent-polynomial coefficients."""
        lf = ring.factor(self.left)
        for v, k in self.left_shifts.items():
            lf = ring.shift(lf, v, k)
        for v, b in self.left_derivs:
            lf = ring.derivative(lf, v, b)
        rf = ring.factor(self.right)
        for v, k in self.right_shifts.items():
            rf = ring.shift(rf, v, k)
        for v, b in self.right_derivs:
            rf = ring.derivative(rf, v, b)
        return ring.product(ring.times(self.prefactor, scale), lf, rf)


@dataclass
class HierarchyCoefficient:
    k: int
    l: int
    value: NCPoly


# ---------------------------------------------------------------------------
# the general bilinear identity
# ---------------------------------------------------------------------------

LM_VARS = ("u", "x", "v", "y")


def lm_sides(j, jp):
    """LHS and RHS of the general identity as lists of BilinearTerms over the
    times ``LM_VARS``."""
    vars = LM_VARS
    two_j, two_jp = twice(j), twice(jp)
    if two_j < 1 or two_jp < 1:
        raise ValueError("both spins must be at least 1/2")
    tj = tau_q(Fraction(two_j, 2), "u", "x", vars)
    tjp = tau_q(Fraction(two_jp, 2), "v", "y", vars)
    dx = (("x", -2),)
    dy = (("y", -2),)
    br_j = bracket(two_j)
    br_jp = bracket(two_jp)
    one = TimesPoly.one(vars)

    lhs = [
        BilinearTerm(one.scale(br_jp.inv()), tj, tjp, {}, {}, (), dy),
        BilinearTerm(
            one.scale(-(QScalar.q_power(-two_j) * br_j.inv())), tj, tjp, {}, {}, dx, ()
        ),
        BilinearTerm(
            (
                TimesPoly.var(vars, "y", coeff=QScalar.q_power(two_jp - two_j - 1))
                - TimesPoly.var(vars, "x", coeff=QScalar.q_power(two_j - 1))
            ).scale((br_j * br_jp).inv()),
            tj,
            tjp,
            {},
            {},
            dx,
            dy,
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


def _lm_packed(j, jp):
    """(ring, scale, LHS, RHS): both sides times scale = [2j][2j'] over
    packed Laurent integers.  The scale clears the only denominators of the
    prefactors, the brackets; it is nonzero, so either side, and their
    difference, is zero exactly when it is zero before scaling."""
    lhs, rhs = lm_sides(j, jp)
    scale = bracket(twice(j)) * bracket(twice(jp))
    ring = _LaurentRing(lhs[0].left.pres, lhs[0].prefactor.vars, lhs + rhs)
    return ring, scale, ring.sum(lhs, scale), ring.sum(rhs, scale)


def lm_residual(j, jp, side="residual"):
    """One side of the general identity, or LHS - RHS, as an NCPoly."""
    if side not in ("lhs", "rhs", "residual"):
        raise ValueError(side)
    ring, scale, lhs, rhs = _lm_packed(j, jp)
    if side == "lhs":
        p = lhs
    elif side == "rhs":
        p = rhs
    else:
        p = _trim_words(_add_words(lhs, rhs, -1))
    return ring.to_ncpoly(p, scale)


def verify_lm(j, jp):
    """Exact zero test of the general bilinear identity for the spin pair.
    A zero LHS fails: the identity would then hold vacuously."""
    ring, scale, lhs, rhs = _lm_packed(j, jp)
    params = {"j": Fraction(twice(j), 2), "jprime": Fraction(twice(jp), 2)}
    if not lhs:
        msg = "the left-hand side is zero, so the identity holds vacuously"
        return VerificationReport(
            check_id="lm", verdict=False, residual=msg, params=params, details=[msg]
        )
    res = _trim_words(_add_words(lhs, rhs, -1))
    ok = not res
    return VerificationReport(
        check_id="lm",
        verdict=ok,
        residual="" if ok else str(ring.to_ncpoly(res, scale)),
        params=params,
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
