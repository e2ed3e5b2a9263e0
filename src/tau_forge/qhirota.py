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
is therefore multiplied by [2j][2j'] and built in ``_LaurentRing``, over
Z[q, q^-1] Kronecker-packed in q (Kronecker 1882; Harvey 2009, "Faster
polynomial multiplication via multipoint Kronecker substitution"): each
(normal word, time monomial) holds one integer, its Laurent polynomial
evaluated at q = 2^B with its lowest exponent kept beside it.  A q-shift
moves that exponent, a q-derivative multiplies by an encoded q-number,
each monomial of the central prefactors folds into a factor, so that terms
sharing a factor make one product (two per side), and words multiply by
PBW block (the power of a or d) with the closed form ``funq_sl2_blocks``,
without rewriting.  B comes from a proven l1 bound on every coefficient of
LHS - RHS (see ``_LaurentRing``), so ``verify_lm`` decides by testing the
LHS - RHS integers for zero.  [2j][2j'] is a nonzero element of Q(q), so a
scaled side, or the scaled residual, is zero exactly when the unscaled one
is.  Only ``lm_residual`` and the FAIL text decode the balanced base-2^B
digits back to Laurent polynomials; ``lm_residual`` decodes both sides of
one packed build, divides each by [2j][2j'] once and returns them as
NCPolys over Q(q).  The hierarchy equations are their q-Taylor
coefficients (``expand_hierarchy``), compared side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .funq import tau_q
from .ncalg import NCPoly, Presentation, TimesPoly, _map_terms, funq_sl2, funq_sl2_blocks
from ._kernels import _addmul, _decode, _encode, _kronecker_bits, _pack, _trim_words, _unpack
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
        return _map_terms(p, lambda t: q_derivative(t, var, base_power))
    # x^n -> (n)_{q^base} x^(n-1) sends distinct monomials to distinct ones and
    # (n)_{q^base} != 0 for n >= 1, so no term merges or cancels
    idx = p.vars.index(var)
    out = {}
    for m, c in p.terms.items():
        n = m[idx]
        if n:
            out[m[:idx] + (n - 1,) + m[idx + 1:]] = c * paren(n, base_power)
    return TimesPoly(p.vars, out)


def q_shift(p, var, k):
    """Substitute var -> q^k var."""
    return p.scale_var(var, QScalar.q_power(k))


def _subs_scaled(p, src, dst, qpow):
    if isinstance(p, NCPoly):
        return _map_terms(p, lambda t: t.subs_var_scaled(src, dst, qpow))
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
# bilinear terms over Kronecker-packed Laurent integers
# ---------------------------------------------------------------------------


def _odd_part(c):
    """(v, t) with c = v << t and v odd, for an int c != 0."""
    t = (c & -c).bit_length() - 1
    return c >> t, t


def _odd_parts(d):
    """[(key, v, t)] with d[key] = v << t, v odd, for a {key: int}; zero
    ints, which a sum can leave, are dropped."""
    return [(k, *_odd_part(c)) for k, c in d.items() if c]


def _addmul_odd(acc, a, b, shift):
    """acc += (a * b) << shift, for a and b as ``_odd_parts`` lists; each
    product is of the odd parts, shifted after."""
    get = acc.get
    for k1, c1, t1 in a:
        t1 += shift
        for k2, c2, t2 in b:
            k = k1 + k2
            acc[k] = get(k, 0) + ((c1 * c2) << (t1 + t2))
    return acc


def _lowest(laurents):
    """The lowest q-exponent in some Laurent polynomials (0 if none)."""
    return min((e for c in laurents for e in c), default=0)


def _degrees(p):
    """Largest exponent of each time variable in a TimesPoly or NCPoly."""
    polys = p.terms.values() if isinstance(p, NCPoly) else (p,)
    out = [0] * len(p.vars)
    for tp in polys:
        for m in tp.terms:
            out = [max(a, b) for a, b in zip(out, m)]
    return out


def _l1(p, derivs=()):
    """A bound on the l1 norm (the sum of |coefficient| over every word,
    time monomial and power of q) of a TimesPoly or NCPoly p with Laurent
    coefficients after its shifts and the derivatives ``derivs``: a shift
    moves powers of q only, and D^(q^b) in a variable of degree n maps
    c x^m to c (m)_{q^b} x^(m-1), whose l1 is m <= n times that of c."""
    polys = p.terms.values() if isinstance(p, NCPoly) else (p,)
    out = sum(abs(v) for tp in polys for c in tp.terms.values() for v in c.as_laurent().values())
    degs = _degrees(p)
    for var, _ in derivs:
        out *= degs[p.vars.index(var)]
    return out


def _word_length(p):
    """The longest word of an NCPoly (0 if none)."""
    return max(map(len, p.terms), default=0)


def _ad_power(p):
    """The largest power of a or d in a word of an NCPoly over funq_sl2."""
    return max((len(w) - w.count("b") - w.count("c") for w in p.terms), default=0)


class _LaurentRing:
    """Polynomials in the time variables over funq_sl2 with coefficients in
    Z[q, q^-1], Kronecker-packed in q: an element is ``(low, {block: {key:
    int}})``.

    A normal word of funq_sl2 is x^n b^i c^k with x in {a, d}; (x, n) is
    its block, ("a", 0) for no a or d.  A key holds the time-variable
    exponents and then i and k in ``width``-bit fields (``_kernels._pack``).
    No field overflows: a term's time degrees are at most the sums of its
    prefactor's and factors' (a shift keeps degrees, a derivative lowers
    them), and the b and c degrees of x^n b^i c^k times y^m b^i' c^k' are
    i + i' + r and k + k' + r, r <= min(n, m), at most the sum of the two
    word lengths (2j + 2j' for tau_j tau_j').
    The int under (block, key) is that coefficient's Laurent polynomial
    times q^-low, evaluated at q = 2^bits; ``low`` is shared by the whole
    element and is at most every exponent in it.  Evaluation at q = 2^bits
    is a ring homomorphism Z[q] -> Z, so sums and products of the ints are
    exact at any size: a product adds the lows and multiplies the ints, a
    sum aligns the lows by shifting.  Words multiply block by block, by the
    closed form ``funq_sl2_blocks``: a twist q^(twist (i+k)) of the left
    factor, a convolution of the two blocks' terms, and a polynomial in
    z = bc, whose z^r term shifts the b and c fields by r.

    Only the zero test and decoding need a bound.  A polynomial whose
    coefficients are all below 2^(bits-1) in absolute value is its balanced
    base-2^bits digits, so it is zero exactly when its int is 0, and
    ``_decode`` recovers it.  ``bits`` comes from l1 bounds (``_l1``, the
    sum of |coefficient| over words, time monomials and powers of q); the
    l1 norm is subadditive and submultiplicative.  Term t of either side
    contributes to each coefficient at most

        l1(scale * prefactor) * l1(left') * l1(right') * max 2^min(n, m),

    where left' and right' are the factors after their shifts and
    derivatives, and the maximum runs over their a- and d-powers n and m:
    the twist is a monomial, and the z-polynomial of a block pair has l1
    norm sum_r [p choose r]_{q^2}(1) = 2^p, p = min(n, m) (1 for equal
    letters).  A product is (sum m L) R or L (sum m R) over monomials m of
    the terms' scale * prefactor; l1(m L) <= l1(m) l1(L), and a prefactor's
    monomials' l1 norms sum to its own, so the sum of this bound over the
    terms of both sides bounds every coefficient of each product and of LHS,
    RHS and LHS - RHS; ``_kronecker_bits`` takes one bit more than it.
    Decoding, a Python loop over digits, runs only for ``lm_residual`` and
    the FAIL text.
    """

    def __init__(self, vars, terms, scale):
        self.vars = vars
        self.scale = scale
        degs = [(_degrees(t.prefactor), _degrees(t.left), _degrees(t.right)) for t in terms]
        times = max((max(map(sum, zip(*d))) for d in degs), default=0)
        words = max((_word_length(t.left) + _word_length(t.right) for t in terms), default=0)
        self.width = max(1, max(times, words).bit_length())
        bound = top = 0
        for t in terms:
            bound += _l1(t.prefactor.scale(scale)) * _l1(t.left, t.left_derivs) * _l1(t.right, t.right_derivs)
            top = max(top, min(_ad_power(t.left), _ad_power(t.right)))
        self.bits = _kronecker_bits(bound << top)
        # the b field, then the c field, above the times
        self._b_at = len(vars) * self.width
        # every field of a time variable that some right factor has
        self._right = _pack([((1 << self.width) - 1) * any(r) for r in zip(*(d[2] for d in degs))], self.width)
        self._factors = {}

    def _laurents(self, tp, extra=()):
        """{time key: Laurent polynomial} of a TimesPoly, ``extra`` in the
        fields after the times."""
        return {_pack(m + extra, self.width): c.as_laurent() for m, c in tp.terms.items()}

    def factor(self, p, shifts, derivs):
        """An NCPoly over funq_sl2 with Laurent coefficients, packed, then
        q-shifted by each var -> k of ``shifts`` and q-differentiated by each
        (var, base) of ``derivs``; once per object and operations, so that
        terms sharing a factor share one object."""
        key = id(p), tuple(shifts.items()), derivs
        hit = self._factors.get(key)
        if hit is not None and hit[0] is p:
            return hit[1]
        if shifts or derivs:
            out = self.factor(p, {}, ())
            for v, k in shifts.items():
                out = self.shift(out, v, k)
            for v, b in derivs:
                out = self.derivative(out, v, b)
        else:
            laurents = {}
            for w, tp in p.terms.items():
                i, k = w.count("b"), w.count("c")
                n = len(w) - i - k
                laurents.setdefault((w[0] if n else "a", n), {}).update(self._laurents(tp, (i, k)))
            low = _lowest(c for d in laurents.values() for c in d.values())
            out = low, {blk: {k: _encode(c, self.bits, low) for k, c in d.items()} for blk, d in laurents.items()}
        self._factors[key] = (p, out)
        return out

    def _exponents(self, p, var):
        """(field offset, mask, largest exponent) of var in element p."""
        at = self.vars.index(var) * self.width
        mask = (1 << self.width) - 1
        return at, mask, max(((key >> at) & mask for d in p.values() for key in d), default=0)

    def shift(self, f, var, k):
        """var -> q^k var: the coefficient of var^n gains q^(k n)."""
        low, p = f
        at, mask, top = self._exponents(p, var)
        base = min(0, k * top)
        bits = self.bits
        return low + base, {
            w: {key: c << (bits * (k * ((key >> at) & mask) - base)) for key, c in d.items()}
            for w, d in p.items()
        }

    def derivative(self, f, var, b):
        """D^(q^b)_var: var^n -> (n)_{q^b} var^(n-1)."""
        low, p = f
        at, mask, top = self._exponents(p, var)
        base = min(0, b * (top - 1))
        bits = self.bits
        # (n)_{q^b} q^-base at q = 2^bits
        paren = [sum(1 << (bits * (b * i - base)) for i in range(n)) for n in range(top + 1)]
        one = 1 << at
        out = {}
        for w, d in p.items():
            r = {key - one: c * paren[(key >> at) & mask] for key, c in d.items() if (key >> at) & mask}
            if r:
                out[w] = r
        return low + base, out

    def product(self, left, right):
        """left * right in normal form."""
        (ll, lp), (rl, rp) = left, right
        bits, width, at = self.bits, self.width, self._b_at
        mask = (1 << width) - 1
        z = (1 << at) | (1 << (at + width))
        # each int is multiplied as its odd part and shifted after: the
        # shared low leaves zero digits below most coefficients
        rp = {blk: _odd_parts(d) for blk, d in rp.items()}
        pairs = []
        for (x, n), d1 in lp.items():
            # (key, b and c degree, odd part, zero bits) of each left term
            d1 = [(k, ((k >> at) & mask) + (k >> (at + width)), *_odd_part(c)) for k, c in d1.items()]
            lo = min(t[1] for t in d1)
            hi = max(t[1] for t in d1)
            for (y, m), d2 in rp.items():
                w, e, twist, zs = funq_sl2_blocks(x, n, y, m)
                tlow = twist * (lo if twist > 0 else hi)
                pairs.append(((w, e), d1, d2, twist, tlow, zs, _lowest(c for _, c in zs)))
        # one low for every pair, so a product's low is the sum of its
        # factors' lows and this
        low = min((tlow + zlow for *_, tlow, _, zlow in pairs), default=0)
        acc = {}
        for blk, d1, d2, twist, tlow, zs, zlow in pairs:
            twisted = [(k, c, t + bits * (twist * s - tlow)) for k, s, c, t in d1]
            a = acc.setdefault(blk, {})
            if len(zs) == 1:  # z-polynomial 1: the convolution goes straight in
                _addmul_odd(a, twisted, d2, bits * (tlow - low))
                continue
            zp = [(r * z, *_odd_part(_encode(c, bits, zlow))) for r, c in zs]
            _addmul_odd(a, _odd_parts(_addmul_odd({}, twisted, d2, 0)), zp, bits * (tlow + zlow - low))
        return ll + rl + low, acc

    def combine(self, *parts):
        """The sum of sign * element over (sign, element) pairs, with zero
        ints dropped."""
        low = min((f[0] for _, f in parts), default=0)
        acc = {}
        for sign, (fl, p) in parts:
            s = self.bits * (fl - low)
            for w, d in p.items():
                a = acc.setdefault(w, {})
                for key, c in d.items():
                    c = sign * (c << s) if s or sign < 0 else c
                    a[key] = a[key] + c if key in a else c
        return low, _trim_words(acc)

    def sum(self, terms):
        """The sum of the terms, each times scale, one product per group.  A
        monomial m of scale * prefactor (Laurent coefficients) is central and
        folds into a factor: m in a right-factor variable into the right one,
        as L (sum m R) with the others of left factor L; m in another one as
        (sum m L) R; a constant joins a group that has one of its factors."""
        pieces = []
        for t in terms:
            lf = self.factor(t.left, t.left_shifts, t.left_derivs)
            rf = self.factor(t.right, t.right_shifts, t.right_derivs)
            laurents = self._laurents(t.prefactor.scale(self.scale))
            low = _lowest(laurents.values())
            pieces += [(key, (low, {key: _encode(c, self.bits, low)}), lf, rf) for key, c in laurents.items()]
        # constants last, to find the others' groups; a group is keyed by
        # (1 if it shares the right factor, the shared factor's id)
        groups = {}
        for key, (ml, mp), lf, rf in sorted(pieces, key=lambda p: not p[0]):
            side = not key & self._right if key else (1, id(rf)) in groups
            f, (gl, gp) = (rf, lf) if side else (lf, rf)
            folded = ml + gl, {blk: _addmul({}, mp, d) for blk, d in gp.items()}  # m * g by block
            groups.setdefault((side, id(f)), (f, []))[1].append((1, folded))
        parts = ((side, f, self.combine(*g)) for (side, _), (f, g) in groups.items())
        return self.combine(*((1, self.product(g, f) if side else self.product(f, g)) for side, f, g in parts))

    def to_ncpoly(self, f, divisor):
        """f / divisor as an NCPoly over Q(q), decoded digit by digit."""
        low, p = f
        inv = divisor.inv()
        n = len(self.vars)
        terms = {}
        for (x, e), d in p.items():
            for key, c in d.items():
                *m, i, k = _unpack(key, n + 2, self.width)
                word = (x,) * e + ("b",) * i + ("c",) * k
                terms.setdefault(word, {})[tuple(m)] = QScalar.from_terms(_decode(c, self.bits, low)) * inv
        return NCPoly(funq_sl2(), self.vars, {w: TimesPoly(self.vars, t) for w, t in terms.items()})


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
    """(ring, scale, LHS, RHS): both sides times scale = [2j][2j'],
    Kronecker-packed.  The scale clears the only denominators of the
    prefactors, the brackets; it is nonzero, so either side, and their
    difference, is zero exactly when it is zero before scaling."""
    lhs, rhs = lm_sides(j, jp)
    scale = bracket(twice(j)) * bracket(twice(jp))
    ring = _LaurentRing(lhs[0].prefactor.vars, lhs + rhs, scale)
    return ring, scale, ring.sum(lhs), ring.sum(rhs)


def lm_residual(j, jp):
    """(LHS, RHS) of the general identity as NCPolys over Q(q), both decoded
    from one packed build; the identity holds when they are equal."""
    ring, scale, lhs, rhs = _lm_packed(j, jp)
    return ring.to_ncpoly(lhs, scale), ring.to_ncpoly(rhs, scale)


def verify_lm(j, jp):
    """Exact zero test of the general bilinear identity for the spin pair:
    every packed int of LHS - RHS must be 0.  A zero LHS fails: the identity
    would then hold vacuously."""
    ring, scale, lhs, rhs = _lm_packed(j, jp)
    params = {"j": Fraction(twice(j), 2), "jprime": Fraction(twice(jp), 2)}
    if not lhs[1]:
        failures = ["the left-hand side is zero, so the identity holds vacuously"]
    else:
        res = ring.combine((1, lhs), (-1, rhs))
        failures = [str(ring.to_ncpoly(res, scale))] if res[1] else []
    return VerificationReport.from_failures(failures, params)


def expand_hierarchy(poly, alpha, beta, kmax=3, lmax=3):
    """Double q-Taylor expansion (base q^-2) of ``poly``, one side of the
    identity, in y around q^alpha x and in v around q^beta u; returns the
    coefficients P_{k,l} for k <= kmax, l <= lmax.  q_taylor is linear, so
    the identity's hierarchy equations are P_{k,l}(LHS) = P_{k,l}(RHS)."""
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
    t1 = spin_half_tau(vars=vars)
    t2 = _subs_scaled(_subs_scaled(t1, "u", "v", ONE), "x", "y", ONE)
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
        t1.pres, TimesPoly.var(vars, "v", coeff=Q) - TimesPoly.var(vars, "u")
    )
    return lhs - rhs


def verify_eq_half():
    res = eq_half_residual()
    return VerificationReport.from_failures([] if res.is_zero() else [str(res)])


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

    Equation 3 holds for every tau affine in x, whatever its coefficient
    words: for tau = a + b u + c x + d u x, Dx^2 tau(q^-1 u, q x) = 0, and
    the other two terms are one product, (c + d u)(q c + d u), once negated
    and once as q^2 (c + d u)(q^-1 c + q^-2 d u).  No relation of the
    algebra is used, so no mutant of a, b, c, d or of the rules reaches it;
    only a term of degree 2 or more in x can.
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


@cache
def commutative_sl2():
    """Commuting a, b, c, d with ad - bc = 1 (the classical-limit carrier)."""
    return Presentation(
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


def spin_half_suite():
    """The displayed spin-1/2 equations plus the classical Liouville limit."""
    details = []
    for n in (1, 2, 3):
        res = hierarchy_eq_residual(n)
        if not res.is_zero():
            details.append(f"equation {n} residual nonzero: {res}")
    # classical limit: commuting a, b, c, d with ad - bc = 1; the equation-2
    # combination evaluated at q = 1 must vanish identically
    try:
        res = hierarchy_eq_residual(2, pres=commutative_sl2())
        res_q1 = res.map_coefficients(
            lambda c: QScalar.from_rational(c.eval_q1())
        )
        if not res_q1.is_zero():
            details.append(f"classical limit residual nonzero: {res_q1}")
    except PoleAtQOne as exc:
        details.append(f"classical limit aborted: {exc}")
    return VerificationReport.from_failures(details)
