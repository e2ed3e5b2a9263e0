"""Exact arithmetic in the field Q(q) of rational functions of q.

A :class:`QScalar` is kept in a canonical fraction form at all times, so
equality (in particular, equality to zero) is a structural comparison.
Internally the value is ``(sn / sd) * N(q) / D(q)`` where

* ``sn`` and ``sd > 0`` are coprime ints carrying the sign and all rational
  content (``s`` is their read-only :class:`fractions.Fraction` view),
* ``N`` and ``D`` are primitive integer polynomials in q (dicts mapping
  nonnegative exponent to coefficient) with positive leading coefficients,
  ``gcd(N, D) = 1`` and no common power of q.

Laurent elements such as ``q + q^-1`` are therefore stored with the q-power
cleared into the denominator: ``(q^2+1)/q``, and zero is the one element
with an empty numerator.  ``_make`` canonicalizes raw input; the arithmetic
keeps the form by Henrici's rules (J. ACM 3, 1956; Knuth, TAOCP vol. 2,
4.5.1), since products of primitive, positive-leading polynomials are such
(Gauss's lemma): ``a*b`` cancels gcd(N1, D2) and gcd(N2, D1) and nothing
else; ``a+b`` over g = gcd(D1, D2) cancels only h = gcd(num, g) from
num = k1 N1 (D2/g) + k2 N2 (D1/g), coprime to D1/g and D2/g, and moves num's
content into the rational part; ``inv`` swaps N and D.  When both
denominators are powers of q (Laurent operands), the only common factor
left is a power of q, so a product or sum cancels q^min(ord_q N, K) from
N / q^K and computes no polynomial gcd.  The module also provides the
q-integers ``(n)_q`` and ``[n]_q`` with their factorials and exact
evaluation at q = 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm

from ._kernels import (
    ipoly_divexact,
    ipoly_gcd,
    ipoly_lin,
    ipoly_mul,
    ipoly_signed_content,
)

_ONE_POLY = {0: 1}


class QDivisionError(ZeroDivisionError):
    """Division by the zero element of Q(q)."""


class PoleAtQOne(ArithmeticError):
    """Evaluation at q = 1 hit a non-removable pole; names the denominator."""


def _pair(value):
    """(numerator, denominator > 0) of an int or a rational, in lowest terms."""
    if type(value) is int:
        return value, 1
    f = Fraction(value)
    return f.numerator, f.denominator


def _rmul(an, ad, bn, bd):
    """(an/ad)(bn/bd) in lowest terms, from two lowest-terms pairs."""
    if ad == 1 and bd == 1:
        return an * bn, 1
    g1, g2 = gcd(an, bd), gcd(bn, ad)
    return (an // g1) * (bn // g2), (ad // g2) * (bd // g1)


class QScalar:
    __slots__ = ("sn", "sd", "nc", "dc")

    def __init__(self, sn, sd, nc, dc, _raw=False):
        if not _raw:
            raise TypeError("use from_rational(), from_terms() or q_power()")
        self.sn = sn
        self.sd = sd
        self.nc = nc
        self.dc = dc

    @property
    def s(self):
        """The rational part sn/sd as a Fraction."""
        return Fraction(self.sn, self.sd)

    # -- construction -------------------------------------------------

    @staticmethod
    def _make(s, nc, dc):
        nc = {e: c for e, c in nc.items() if c}
        dc = {e: c for e, c in dc.items() if c}
        if not dc:
            raise QDivisionError("division by zero in Q(q)")
        if s == 0 or not nc:
            return ZERO
        shift = min(min(nc), min(dc))
        if shift:
            nc = {e - shift: c for e, c in nc.items()}
            dc = {e - shift: c for e, c in dc.items()}
        cn = ipoly_signed_content(nc)
        cd = ipoly_signed_content(dc)
        if cn != 1:
            nc = {e: c // cn for e, c in nc.items()}
        if cd != 1:
            dc = {e: c // cd for e, c in dc.items()}
        s = Fraction(s) * Fraction(cn, cd)
        g = ipoly_gcd(nc, dc)
        if g != _ONE_POLY:
            nc = ipoly_divexact(nc, g)
            dc = ipoly_divexact(dc, g)
        return QScalar(s.numerator, s.denominator, nc, dc, _raw=True)

    @staticmethod
    def _laurent(num, den, k):
        """num / (den q^k) in canonical form, for a nonzero integer
        polynomial num and an int den > 0: the content of num moves into the
        rational part and q^min(ord_q num, k) cancels; no other factor can."""
        c = ipoly_signed_content(num)
        low = min(min(num), k)
        if c != 1 or low:
            num = {e - low: v // c for e, v in num.items()}
        h = gcd(c, den)
        return QScalar(c // h, den // h, num, {k - low: 1}, _raw=True)

    @classmethod
    def from_rational(cls, value):
        n, d = _pair(value)
        if not n:
            return ZERO
        # nc/dc dicts are treated as immutable everywhere, so the unit
        # polynomial can be shared rather than copied per scalar
        return cls(n, d, _ONE_POLY, _ONE_POLY, _raw=True)

    @classmethod
    def q_power(cls, k):
        """The monomial q^k (k may be negative)."""
        if k >= 0:
            return cls(1, 1, {k: 1}, dict(_ONE_POLY), _raw=True)
        return cls(1, 1, dict(_ONE_POLY), {-k: 1}, _raw=True)

    @classmethod
    def from_terms(cls, terms):
        """Build from {exponent: rational coefficient} (a Laurent polynomial)."""
        if len(terms) == 1:
            # c*q^e is canonical as it stands
            ((e, c),) = terms.items()
            n, d = _pair(c)
            if not n:
                return ZERO
            if e >= 0:
                return cls(n, d, {e: 1} if e else _ONE_POLY, _ONE_POLY, _raw=True)
            return cls(n, d, _ONE_POLY, {-e: 1}, _raw=True)
        terms = {e: _pair(c) for e, c in terms.items() if c}
        if not terms:
            return ZERO
        den = lcm(*(d for _, d in terms.values()))
        low = min(min(terms), 0)
        num = {e - low: n * (den // d) for e, (n, d) in terms.items()}
        return cls._laurent(num, den, -low)

    # -- Laurent views ---------------------------------------------------

    @property
    def numerator(self):
        """Numerator as {exponent: Fraction}; carries the rational content."""
        s = self.s
        return {e: c * s for e, c in self.nc.items()}

    @property
    def denominator(self):
        """Denominator as {exponent: Fraction}."""
        return {e: Fraction(c) for e, c in self.dc.items()}

    # -- predicates ----------------------------------------------------

    def is_zero(self):
        return not self.nc

    def is_rational(self):
        return not self.nc or self.nc == _ONE_POLY and self.dc == _ONE_POLY

    def as_rational(self):
        if not self.is_rational():
            raise ValueError(f"not a rational constant: {self}")
        return self.s

    def as_laurent(self):
        """{q-exponent: int} of an integer Laurent polynomial; ValueError
        for any other element."""
        # canonical denominators are primitive with a positive leading
        # coefficient, so a single-term one is q^k
        if len(self.dc) != 1:
            raise ValueError(f"not a Laurent polynomial: {self}")
        ((k, _),) = self.dc.items()
        # N is primitive, so s*N is integral exactly when s is
        if self.sd != 1:
            raise ValueError(f"not a Laurent polynomial over the integers: {self}")
        s = self.sn
        return {e - k: s * n for e, n in self.nc.items()}

    # -- ring/field operations ------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QScalar):
            return NotImplemented
        if not self.nc:
            return other
        if not other.nc:
            return self
        an, ad, bn, bd = self.sn, self.sd, other.sn, other.sd
        if self.is_rational() and other.is_rational():
            n, d = an * bd + bn * ad, ad * bd
            if not n:
                return ZERO
            t = gcd(n, d)
            return QScalar(n // t, d // t, _ONE_POLY, _ONE_POLY, _raw=True)
        r = gcd(ad, bd)
        k1, k2, den = an * (bd // r), bn * (ad // r), (ad // r) * bd
        if len(self.dc) == 1 and len(other.dc) == 1:
            # Laurent operands: N1 q^(K-K1) k1 + N2 q^(K-K2) k2 over q^K
            (e1,), (e2,) = self.dc, other.dc
            top = max(e1, e2)
            num = {e + top - e1: k1 * c for e, c in self.nc.items()}
            shift = top - e2
            for e, c in other.nc.items():
                e += shift
                v = num.get(e, 0) + k2 * c
                if v:
                    num[e] = v
                else:
                    del num[e]
            return QScalar._laurent(num, den, top) if num else ZERO
        g = ipoly_gcd(self.dc, other.dc)
        if g == _ONE_POLY:
            d1r, d2r = self.dc, other.dc
        else:
            d1r = ipoly_divexact(self.dc, g)
            d2r = ipoly_divexact(other.dc, g)
        num = ipoly_lin(ipoly_mul(self.nc, d2r), k1, ipoly_mul(other.nc, d1r), k2)
        if not num:
            return ZERO
        c = ipoly_signed_content(num)
        if c != 1:
            num = {e: v // c for e, v in num.items()}
        d1 = self.dc
        if g != _ONE_POLY:
            h = ipoly_gcd(num, g)
            if h != _ONE_POLY:
                num, d1 = ipoly_divexact(num, h), ipoly_divexact(d1, h)
        # (D1/h)(D2/g) = (D1/g)(D2/g)(g/h)
        t = gcd(c, den)
        return QScalar(c // t, den // t, num, ipoly_mul(d1, d2r), _raw=True)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        if not self.nc:
            return self
        return QScalar(-self.sn, self.sd, self.nc, self.dc, _raw=True)

    def __mul__(self, other):
        if not isinstance(other, QScalar):
            return NotImplemented
        if not self.nc or not other.nc:
            return ZERO
        sn, sd = _rmul(self.sn, self.sd, other.sn, other.sd)
        # scaling a canonical fraction by a nonzero rational keeps it canonical
        if self.is_rational():
            return QScalar(sn, sd, other.nc, other.dc, _raw=True)
        if other.is_rational():
            return QScalar(sn, sd, self.nc, self.dc, _raw=True)
        if len(self.dc) == 1 and len(other.dc) == 1:
            # Laurent operands: N1 N2 is primitive, so only a power of q
            # can cancel against q^(K1+K2)
            (e1,), (e2,) = self.dc, other.dc
            top = e1 + e2
            num = ipoly_mul(self.nc, other.nc)
            low = min(min(num), top)
            if low:
                num = {e - low: c for e, c in num.items()}
            return QScalar(sn, sd, num, {top - low: 1}, _raw=True)
        g1 = ipoly_gcd(self.nc, other.dc)
        g2 = ipoly_gcd(other.nc, self.dc)
        n1 = self.nc if g1 == _ONE_POLY else ipoly_divexact(self.nc, g1)
        d2 = other.dc if g1 == _ONE_POLY else ipoly_divexact(other.dc, g1)
        n2 = other.nc if g2 == _ONE_POLY else ipoly_divexact(other.nc, g2)
        d1 = self.dc if g2 == _ONE_POLY else ipoly_divexact(self.dc, g2)
        return QScalar(sn, sd, ipoly_mul(n1, n2), ipoly_mul(d1, d2), _raw=True)

    def inv(self):
        if not self.nc:
            raise QDivisionError("inverse of zero in Q(q)")
        if self.sn < 0:
            return QScalar(-self.sd, -self.sn, self.dc, self.nc, _raw=True)
        return QScalar(self.sd, self.sn, self.dc, self.nc, _raw=True)

    def __truediv__(self, other):
        if not isinstance(other, QScalar):
            return NotImplemented
        return self * other.inv()

    def __pow__(self, k):
        if k < 0:
            return self.inv() ** (-k)
        acc = ONE
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def __eq__(self, other):
        if not isinstance(other, QScalar):
            return NotImplemented
        return (
            self.sn == other.sn and self.sd == other.sd and self.nc == other.nc and self.dc == other.dc
        )

    def __hash__(self):
        return hash((self.sn, self.sd, frozenset(self.nc.items()), frozenset(self.dc.items())))

    # -- q-specific maps -------------------------------------------------

    def eval_q1(self):
        """Exact value at q = 1; raises PoleAtQOne on a genuine pole."""
        if not self.nc:
            return Fraction(0)
        den = sum(self.dc.values())
        if den == 0:
            raise PoleAtQOne(f"pole at q=1 with denominator {_poly_str(self.dc)}")
        return Fraction(self.sn * sum(self.nc.values()), self.sd * den)

    # -- rendering -------------------------------------------------------

    def __str__(self):
        if not self.nc:
            return "0"
        num = _poly_str(self.nc, self.s)
        if self.dc == _ONE_POLY:
            return num
        den = _poly_str(self.dc)
        if len(self.nc) > 1 or "*" in num or "/" in num or num.startswith("-"):
            num = f"({num})"
        if len(self.dc) > 1:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return f"QScalar({self})"


def _term_str(coef, exp):
    if exp == 0:
        return str(coef)
    qpart = "q" if exp == 1 else f"q^{exp}"
    if coef == 1:
        return qpart
    if coef == -1:
        return f"-{qpart}"
    return f"{coef}*{qpart}"


def _poly_str(poly, scale=Fraction(1)):
    parts = []
    for e in sorted(poly, reverse=True):
        c = poly[e] * scale
        t = _term_str(c, e)
        if parts and not t.startswith("-"):
            parts.append("+" + t)
        else:
            parts.append(t)
    return "".join(parts)


ZERO = QScalar(0, 1, {}, dict(_ONE_POLY), _raw=True)
ONE = QScalar(1, 1, dict(_ONE_POLY), dict(_ONE_POLY), _raw=True)
Q = QScalar.q_power(1)
QINV = QScalar.q_power(-1)


def qs(value):
    """Coerce an int/Fraction/QScalar to QScalar."""
    if isinstance(value, QScalar):
        return value
    return QScalar.from_rational(value)


# -- q-combinatorics ------------------------------------------------------


def _check_q_number(n, base_power=1):
    if n < 0:
        raise ValueError("q-numbers require n >= 0")
    if base_power == 0:
        raise ValueError("base power must be nonzero")


def _q_paren(n, base):
    """(n)_{q^base} = 1 + q^base + ... + q^(base (n-1)) as {q-exponent:
    int}: a factor t takes t^(n-1)/(n-1)! to (n)_{q^base} t^n/(n)!."""
    return {base * i: 1 for i in range(n)}


def _q_bracket(n):
    """[n] = q^(n-1) + q^(n-3) + ... + q^(1-n) as {q-exponent: int}."""
    return {2 * i + 1 - n: 1 for i in range(n)}


@cache
def paren(n, base_power=1):
    """(n)_{q^k} = 1 + q^k + ... + q^{k(n-1)}, for k = base_power."""
    _check_q_number(n, base_power)
    return QScalar.from_terms(_q_paren(n, base_power))


@cache
def bracket(n):
    """[n]_q = (q^n - q^-n) / (q - q^-1)."""
    _check_q_number(n)
    return QScalar.from_terms(_q_bracket(n))


@cache
def paren_factorial(n, base_power=1):
    """(n)_{q^k}! = (1)(2)...(n); (0)! = 1."""
    _check_q_number(n, base_power)
    return paren_factorial(n - 1, base_power) * paren(n, base_power) if n else ONE


@cache
def bracket_factorial(n):
    """[n]_q! = [1][2]...[n]; [0]! = 1."""
    _check_q_number(n)
    return bracket_factorial(n - 1) * bracket(n) if n else ONE
