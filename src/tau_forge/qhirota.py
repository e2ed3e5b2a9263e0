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

The general identity is evaluated without Q(q) arithmetic.  Every tau
coefficient is a Laurent polynomial in q with integer coefficients, held
once per spin in ``funq._tau_table`` beside its l1 norm, and the only other
denominators are the brackets [2j] and [2j'] of the prefactors, so
``lm_sides`` states the identity times [2j][2j'] as two products per side,
each a pair of sums of tau tables times central time monomials with
Laurent coefficients.  Both sides are built in ``_LaurentRing``, over
Z[q, q^-1] Kronecker-packed in q (Kronecker 1882; Harvey 2009, "Faster
polynomial multiplication via multipoint Kronecker substitution"): each
(normal word, time monomial) holds one integer, its Laurent polynomial
evaluated at q = 2^B with a lowest exponent kept beside it.  A q-shift
moves that exponent, a q-derivative multiplies by an encoded q-number, the
summands of each side of a product fold into one packed factor, and words
multiply by PBW block (the power of a or d) with the closed form
``funq_sl2_blocks``, without rewriting.  The packed plan of both sides is
built once per spin pair (``_lm_packed``, cached on (2j, 2j')), and every
call adds its products into one fresh {block: {key: int}} at one lowest
exponent fixed before the first product.
B comes from a proven l1 bound on every coefficient of LHS - RHS, taken
from the table norms (see ``_LaurentRing``), so ``verify_lm`` decides by
testing integers for zero: the LHS first, then the LHS with the RHS
subtracted into it.  [2j][2j'] is a nonzero element of Q(q), so a scaled
side, or the scaled residual, is zero exactly when the unscaled one is.
Only ``lm_residual`` and the FAIL text decode the balanced base-2^B digits
back to Laurent polynomials; ``lm_residual`` decodes both sides of one
packed build, divides each by [2j][2j'] once and returns them as NCPolys
over Q(q).  The hierarchy equations are their q-Taylor coefficients
(``expand_hierarchy``), compared side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .funq import _tau_table
from .ncalg import NCPoly, Presentation, TimesPoly, _map_terms, funq_sl2, funq_sl2_blocks
from ._kernels import _decode, _encode, _kronecker_bits, _laurent_mul, _pack, _trim_words, _unpack
from .qscalar import ONE, PoleAtQOne, Q, QScalar, _q_bracket, bracket, paren
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


def _addmul_odd(acc, a, b, shift, sign=1):
    """acc += sign * (a * b) << shift, for a and b as ``_odd_parts`` lists;
    each product is of the odd parts, shifted after."""
    get = acc.get
    for k1, c1, t1 in a:
        t1 += shift
        if sign < 0:
            c1 = -c1
        for k2, c2, t2 in b:
            k = k1 + k2
            acc[k] = get(k, 0) + ((c1 * c2) << (t1 + t2))
    return acc


def _lowest(laurents):
    """The lowest q-exponent in some Laurent polynomials (0 if none)."""
    return min(map(min, laurents), default=0)


def _l1(summands):
    """An l1 bound on a sum of ``lm_sides`` summands (see ``_LaurentRing``)."""
    return sum(sum(map(abs, c.values())) * _tau_table(tj)[1] * tj ** len(d) for c, _, tj, _, d in summands)


def _nonzero(acc):
    """Whether a {block: {key: int}} holds an int other than 0."""
    return any(any(d.values()) for d in acc.values())


class _LaurentRing:
    """Polynomials in the times ``LM_VARS`` over funq_sl2 with coefficients
    in Z[q, q^-1], Kronecker-packed in q, for the two sides of one
    bilinear identity as ``lm_sides`` states them.  A factor is
    ``(low, {block: {key: int}})``.

    A normal word of funq_sl2 is x^n b^i c^k with x in {a, d}; (x, n) is
    its block, ("a", 0) for no a or d.  A key holds the exponents of u, x,
    v and y and then i and k in ``width``-bit fields (``_kernels._pack``).
    The summands are tau tables (``funq._tau_table``) times time monomials:
    tau_j has degree at most 2j in each of its flows and words of length at
    most 2j, a left summand flows in u and x and a right one in v and y.
    No field overflows: a product's time degrees are at most the sums of
    its monomials' and its tables' (a shift keeps degrees, a derivative
    lowers them), and the b and c degrees of x^n b^i c^k times y^m b^i' c^k'
    are i + i' + r and k + k' + r, r <= min(n, m), at most 2j + 2j'.
    A factor's int under (block, key) is that coefficient's Laurent
    polynomial times q^-low, evaluated at q = 2^bits, its ``low`` at most
    every exponent in it.  Evaluation at q = 2^bits is a ring homomorphism
    Z[q] -> Z, so sums and products of the ints are exact at any size.
    Words multiply block by block, by the closed form ``funq_sl2_blocks``:
    a twist q^(twist (i+k)) of the left factor, a convolution of the two
    blocks' terms, and a polynomial in z = bc, whose z^r term shifts the b
    and c fields by r.

    Both sides are planned when the ring is built: the left summands of
    each stated product fold into one packed factor and its right summands
    into another (``fold``), and the product of the two into one entry per
    block pair, with its lowest exponent (``product``).  The ring's
    ``low``, the least of these over both sides, is fixed before any
    product is taken, and ``add`` adds products into one {block: {key:
    int}} at that low, so no product is shifted and re-added whole:
    ``verify_lm`` adds the LHS, tests it, subtracts the RHS into the same
    dict and tests that.  The plan (``bits``, ``width``, ``low``, ``lhs``
    and ``rhs``) is read-only after the build, its products tuples:
    ``_lm_packed`` keeps one ring per spin pair for every caller, and
    ``add`` writes only into the accumulator it is given.  The packed tau tables (``factor``) are a
    memo of the build alone.

    Only the zero test and decoding need a bound.  A polynomial whose
    coefficients are all below 2^(bits-1) in absolute value is its balanced
    base-2^bits digits, so it is zero exactly when its int is 0, and
    ``_decode`` recovers it.  ``bits`` comes from l1 bounds (the sum of
    |coefficient| over words, time monomials and powers of q); the l1 norm
    is subadditive and submultiplicative.  A tau table's norm is cached
    beside it, a shift or a monomial moves exponents only, and D^(q^b) in a
    variable of degree n maps c x^m to c (m)_{q^b} x^(m-1), whose l1 is
    m <= n <= 2j times that of c; so l1 of a side of a product (``_l1``)
    is at most the sum over its summands of l1(coefficient) * l1(table) *
    2j^(number of derivatives).  A product contributes to each coefficient
    at most l1(left) * l1(right) * 2^min(2j, 2j'): the twist is a monomial,
    and the z-polynomial of a block pair has l1 norm sum_r [p choose
    r]_{q^2}(1) = 2^p, p = min(n, m) (1 for equal letters), n <= 2j and
    m <= 2j' the blocks' powers.  The sum of this bound over the products
    of both sides bounds every coefficient of each product and of LHS, RHS
    and LHS - RHS; ``_kronecker_bits`` takes one bit more than it.
    Decoding, a Python loop over digits, runs only for ``lm_residual`` and
    the FAIL text.
    """

    def __init__(self, lhs, rhs):
        times = words = bound = top = 0
        for left, right in lhs + rhs:
            dl, dr = max(s[2] for s in left), max(s[2] for s in right)
            # degree 2j in u and x, 2j' in v and y, and the monomials'
            degs = (dl, dl, dr, dr)
            times = max(times, *(e + d for s in left + right for e, d in zip(s[1], degs)))
            words = max(words, dl + dr)
            bound += _l1(left) * _l1(right)
            top = max(top, min(dl, dr))
        self.width = width = max(1, max(times, words).bit_length())
        self.bits = _kronecker_bits(bound << top)
        # the b field, then the c field, above the times; v and y are the
        # fields of the right factors
        self._b_at = len(LM_VARS) * width
        # the packed tau tables of this build, read by no caller after it
        factors = {}
        self.lhs, self.rhs = (
            tuple([self.product(self.fold(l, False, factors), self.fold(r, True, factors)) for l, r in s])
            for s in (lhs, rhs)
        )
        self.low = min((p[-1] for side in (self.lhs, self.rhs) for pairs in side for p in pairs), default=0)

    def factor(self, factors, two_j, right, shifts, derivs):
        """tau_j packed, flowing in v and y if ``right`` and in u and x
        otherwise, then q-shifted by each (var, k) of ``shifts`` and
        q-differentiated by each (var, base) of ``derivs``; once per
        arguments in the build's memo ``factors``, as two products read
        D_x tau and D_y tau'."""
        key = two_j, right, shifts, derivs
        out = factors.get(key)
        if out is not None:
            return out
        if shifts or derivs:
            out = self.factor(factors, two_j, right, (), ())
            for v, k in shifts:
                out = self.shift(out, v, k)
            for v, b in derivs:
                out = self.derivative(out, v, b)
        else:
            blocks = _tau_table(two_j)[0]
            low = _lowest(c for d in blocks.values() for c in d.values())
            w, bits, at = self.width, self.bits, self._b_at
            flow = 2 * w if right else 0  # the field of u or v
            out = low, {
                blk: {
                    (m << flow) + (r << flow + w) + (i << at) + (k << at + w): _encode(c, bits, low)
                    for (m, r, i, k), c in d.items()
                }
                for blk, d in blocks.items()
            }
        factors[key] = out
        return out

    def fold(self, summands, right, factors):
        """One side of a product as one packed factor: the sum of c m f over
        its summands, c, m and f their coefficients, monomials and
        ``factor``s, with zero ints dropped."""
        bits, width = self.bits, self.width
        parts = []
        for c, mono, two_j, shifts, derivs in summands:
            fl, fp = self.factor(factors, two_j, right, shifts, derivs)
            cl = min(c)
            parts.append((fl + cl, _pack(mono, width), _encode(c, bits, cl), fp))
        low = min(p[0] for p in parts)
        acc = {}
        for fl, m, c, fp in parts:
            c <<= bits * (fl - low)
            for blk, d in fp.items():
                a = acc.setdefault(blk, {})
                for key, v in d.items():
                    key += m
                    a[key] = a[key] + c * v if key in a else c * v
        return low, _trim_words(acc)

    def _exponents(self, p, var):
        """(field offset, mask, largest exponent) of var in factor p."""
        at = LM_VARS.index(var) * self.width
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
        """left * right, planned: a tuple of one (block, twisted left terms,
        right terms, z-polynomial or None, lowest exponent) per block pair,
        the terms tuples, each int as its odd part and zero bits (the shared
        low leaves zero digits below most coefficients)."""
        (ll, lp), (rl, rp) = left, right
        bits, width, at = self.bits, self.width, self._b_at
        mask = (1 << width) - 1
        z = (1 << at) | (1 << (at + width))
        rp = {blk: tuple(_odd_parts(d)) for blk, d in rp.items()}
        pairs = []
        for (x, n), d1 in lp.items():
            # (key, b and c degree, odd part, zero bits) of each left term
            d1 = [(k, ((k >> at) & mask) + (k >> (at + width)), *_odd_part(c)) for k, c in d1.items()]
            lo = min(t[1] for t in d1)
            hi = max(t[1] for t in d1)
            for (y, m), d2 in rp.items():
                w, e, twist, zs = funq_sl2_blocks(x, n, y, m)
                tlow = twist * (lo if twist > 0 else hi)
                twisted = tuple([(k, c, t + bits * (twist * s - tlow)) for k, s, c, t in d1])
                zlow = _lowest(c for _, c in zs)
                # a z-polynomial 1 (equal letters or a power 0) leaves the convolution as it is
                zp = tuple([(r * z, *_odd_part(_encode(c, bits, zlow))) for r, c in zs]) if len(zs) > 1 else None
                pairs.append(((w, e), twisted, d2, zp, ll + rl + tlow + zlow))
        return tuple(pairs)

    def add(self, acc, products, sign=1):
        """acc += sign * the planned products, at ``low``."""
        bits, low = self.bits, self.low
        for pairs in products:
            for blk, twisted, d2, zp, plow in pairs:
                a = acc.setdefault(blk, {})
                shift = bits * (plow - low)
                if zp is None:
                    _addmul_odd(a, twisted, d2, shift, sign)
                else:
                    _addmul_odd(a, _odd_parts(_addmul_odd({}, twisted, d2, 0)), zp, shift, sign)
        return acc

    def to_ncpoly(self, acc, divisor):
        """acc / divisor as an NCPoly over Q(q), decoded digit by digit."""
        inv = divisor.inv()
        n = len(LM_VARS)
        terms = {}
        for (x, e), d in acc.items():
            for key, c in d.items():
                if c:
                    *m, i, k = _unpack(key, n + 2, self.width)
                    word = (x,) * e + ("b",) * i + ("c",) * k
                    terms.setdefault(word, {})[tuple(m)] = QScalar.from_terms(_decode(c, self.bits, self.low)) * inv
        return NCPoly(funq_sl2(), LM_VARS, {w: TimesPoly(LM_VARS, t) for w, t in terms.items()})


@dataclass
class HierarchyCoefficient:
    k: int
    l: int
    value: NCPoly


# ---------------------------------------------------------------------------
# the general bilinear identity
# ---------------------------------------------------------------------------

LM_VARS = ("u", "x", "v", "y")
_ONE, _U, _X, _V, _Y = (0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)


def lm_sides(j, jp):
    """LHS and RHS of the general identity times [2j][2j'], each as two
    products:

        ([2j] tau - q^(2j-1) x D_x tau) D_y tau'
            + D_x tau (q^(2j'-2j-1) y D_y tau' - q^-2j [2j'] tau')
        = tau_- ([2j][2j'] v tau'_-) + (-q^-2j [2j][2j'] u tau_-) tau'_-,

    tau = tau_j(u, x), tau' = tau_j'(v, y), tau_- = tau_{j-1/2}(u, q^-1 x)
    and tau'_- = tau_{j'-1/2}(q^-1 v, y), every derivative of base q^-2.
    [2j][2j'] clears the brackets of the unscaled identity; it is a nonzero
    element of Q(q), so either scaled side, and their difference, is zero
    exactly when it is unscaled.  A product is a (left summands, right
    summands) pair.  A summand (c, m, 2j, shifts, derivs) is the Laurent
    coefficient c times the central time monomial m times the tau table of
    twice its spin (``funq._tau_table``), flowing in u and x on the left and
    in v and y on the right, q-shifted by each (var, k) of ``shifts`` (var
    -> q^k var), then q-differentiated by each (var, base) of ``derivs``."""
    two_j, two_jp = twice(j), twice(jp)
    if two_j < 1 or two_jp < 1:
        raise ValueError("both spins must be at least 1/2")
    dx, dy = (("x", -2),), (("y", -2),)
    x1, v1 = (("x", -1),), (("v", -1),)
    br_j, br_jp = _q_bracket(two_j), _q_bracket(two_jp)
    scale = _laurent_mul(br_j, br_jp)
    one = {0: 1}

    def minus_q_2j(lau):  # -q^-2j lau
        return {e - two_j: -c for e, c in lau.items()}

    lhs = [
        ([(br_j, _ONE, two_j, (), ()), ({two_j - 1: -1}, _X, two_j, (), dx)], [(one, _ONE, two_jp, (), dy)]),
        (
            [(one, _ONE, two_j, (), dx)],
            [({two_jp - two_j - 1: 1}, _Y, two_jp, (), dy), (minus_q_2j(br_jp), _ONE, two_jp, (), ())],
        ),
    ]
    rhs = [
        ([(one, _ONE, two_j - 1, x1, ())], [(scale, _V, two_jp - 1, v1, ())]),
        ([(minus_q_2j(scale), _U, two_j - 1, x1, ())], [(one, _ONE, two_jp - 1, v1, ())]),
    ]
    return lhs, rhs


@cache
def _lm_packed(two_j, two_jp):
    """Both sides of the general identity times [2j][2j'], Kronecker-packed
    and planned, once per spin pair: the ring, with its ``lhs`` and ``rhs``
    products.  Every caller reads the plan and adds it into a fresh
    accumulator of its own."""
    return _LaurentRing(*lm_sides(Fraction(two_j, 2), Fraction(two_jp, 2)))


def _lm_scale(two_j, two_jp):
    """[2j][2j'] in Q(q), the divisor for decoding."""
    return bracket(two_j) * bracket(two_jp)


def lm_residual(j, jp):
    """(LHS, RHS) of the general identity as NCPolys over Q(q), both decoded
    from one packed build; the identity holds when they are equal."""
    two_j, two_jp = twice(j), twice(jp)
    ring = _lm_packed(two_j, two_jp)
    scale = _lm_scale(two_j, two_jp)
    return ring.to_ncpoly(ring.add({}, ring.lhs), scale), ring.to_ncpoly(ring.add({}, ring.rhs), scale)


def verify_lm(j, jp):
    """Exact zero test of the general bilinear identity for the spin pair:
    every packed int of LHS - RHS must be 0.  A zero LHS fails: the identity
    would then hold vacuously."""
    two_j, two_jp = twice(j), twice(jp)
    ring = _lm_packed(two_j, two_jp)
    params = {"j": Fraction(two_j, 2), "jprime": Fraction(two_jp, 2)}
    acc = ring.add({}, ring.lhs)
    if not _nonzero(acc):
        failures = ["the left-hand side is zero, so the identity holds vacuously"]
    elif _nonzero(ring.add(acc, ring.rhs, -1)):
        failures = [str(ring.to_ncpoly(acc, _lm_scale(two_j, two_jp)))]
    else:
        failures = []
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
