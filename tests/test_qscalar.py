import inspect
import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tau_forge import qscalar
from tau_forge._kernels import ipoly_lin, ipoly_mul
from tau_forge.qscalar import (
    ONE,
    PoleAtQOne,
    Q,
    QDivisionError,
    QINV,
    QScalar,
    ZERO,
    bracket,
    bracket_factorial,
    paren,
    paren_factorial,
    qs,
)


def test_direct_construction_names_existing_constructors():
    # a call with __init__'s own arity reaches the _raw guard; a wrong arity
    # would raise Python's own TypeError, which names __init__ instead
    params = inspect.signature(QScalar.__init__).parameters.values()
    arity = sum(p.default is p.empty for p in params) - 1  # less self
    with pytest.raises(TypeError) as exc:
        QScalar(*[1] * arity)
    names = re.findall(r"(\w+)\(\)", str(exc.value))
    assert names == ["from_rational", "from_terms", "q_power"], names
    assert all(callable(getattr(QScalar, n)) for n in names)


def test_add_laurent():
    assert str(Q + QINV) == "(q^2+1)/q"


def test_div_cancellation():
    assert (Q * Q - ONE) / (Q - ONE) == Q + ONE


def test_mul_inverse():
    lam = Q - QINV
    assert (ONE / lam) * lam == ONE


def test_division_by_zero():
    with pytest.raises(QDivisionError):
        ONE / ZERO
    with pytest.raises(QDivisionError):
        ZERO.inv()


def test_q_number_examples():
    assert bracket(2) == Q + QINV
    assert paren(3, 1) == ONE + Q + Q * Q
    # factorial of (n)_{q^2}: (1)(1+q^2)(1+q^2+q^4)
    expect = (ONE) * (ONE + Q**2) * (ONE + Q**2 + Q**4)
    assert paren_factorial(3, 2) == expect
    assert paren_factorial(0, 1) == ONE
    assert bracket_factorial(0) == ONE
    for fn in (paren, paren_factorial):
        with pytest.raises(ValueError):
            fn(-1, 1)
        with pytest.raises(ValueError):
            fn(2, 0)
    for fn in (bracket, bracket_factorial):
        with pytest.raises(ValueError):
            fn(-1)


def test_repeated_factorial_makes_no_make_call(monkeypatch):
    # each q-number is built once per (n, base); the factorial of n reuses n - 1's
    paren_factorial.cache_clear()
    first = paren_factorial(7, -2)

    def refuse(*args):
        raise AssertionError("QScalar._make called for a cached q-number")

    monkeypatch.setattr(QScalar, "_make", staticmethod(refuse))
    assert paren_factorial(7, -2) is first
    assert paren_factorial(6, -2) * paren(7, -2) == first


def test_bracket_paren_relation():
    # [n]_q = q^{1-n} (n)_{q^2}
    for n in range(1, 21):
        assert bracket(n) == QScalar.q_power(1 - n) * paren(n, 2)


def test_eval_q1_classical_values():
    for n in range(0, 11):
        assert paren(n, 1).eval_q1() == n
        assert bracket(n).eval_q1() == n
        assert paren_factorial(n, 1).eval_q1() == math.factorial(n)
        assert bracket_factorial(n).eval_q1() == math.factorial(n)


def test_eval_q1_brackets():
    assert bracket(5).eval_q1() == 5


def test_eval_q1_pole():
    with pytest.raises(PoleAtQOne) as err:
        (ONE / (Q - ONE)).eval_q1()
    assert "q-1" in str(err.value)


def test_eval_q1_removable_singularity_cancelled():
    # (q^2-1)/(q-1) canonicalizes to q+1 so evaluation succeeds
    x = (Q * Q - ONE) / (Q - ONE)
    assert x.eval_q1() == 2


def test_render_samples():
    # the text a FAIL residual prints
    assert str(Q + QINV) == "(q^2+1)/q"
    assert str(qs(Fraction(-3, 7))) == "-3/7"
    assert str(bracket(4)) == "(q^6+q^4+q^2+1)/q^3"
    assert str((Q**2 - ONE) / (Q**3 + qs(2))) == "(q^2-1)/(q^3+2)"
    assert str(ZERO) == "0"
    assert str(-Q**5) == "-q^5"


def test_pow_negative():
    assert Q**-2 == QINV * QINV
    assert (Q + ONE) ** 0 == ONE


def test_laurent_views():
    # (q^2 + 1)/q: numerator exponents {2, 0}, denominator {1}
    x = Q + QINV
    assert x.numerator == {2: Fraction(1), 0: Fraction(1)}
    assert x.denominator == {1: Fraction(1)}
    y = qs(Fraction(-2, 3)) * (Q + ONE)
    assert y.numerator == {1: Fraction(-2, 3), 0: Fraction(-2, 3)}
    assert y.denominator == {0: Fraction(1)}


scalars = st.builds(
    lambda terms: QScalar.from_terms({e: Fraction(n, d) for (e, n, d) in terms}),
    st.lists(
        st.tuples(
            st.integers(min_value=-4, max_value=4),
            st.integers(min_value=-9, max_value=9),
            st.integers(min_value=1, max_value=9),
        ),
        min_size=0,
        max_size=4,
    ),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - b) + b == a


@settings(max_examples=150, deadline=None, derandomize=True)
@given(scalars, scalars)
def test_canonical_equality_is_structural(a, b):
    # a - b = 0 exactly when the canonical forms coincide structurally
    assert ((a - b).is_zero()) == (a == b)
    if not b.is_zero():
        assert (a / b) * b == a


@settings(max_examples=80, deadline=None, derandomize=True)
@given(scalars)
def test_double_inverse(a):
    if not a.is_zero():
        assert a.inv().inv() == a


# -- the canonical form, reached without _make ---------------------------------

polys = st.dictionaries(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=-4, max_value=4).filter(bool),
    min_size=1,
    max_size=3,
)
rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool)


def _key(x):
    return (x.s, x.nc, x.dc)


def _cross_sum(a, b, sign):
    """_make of a + sign*b over the unreduced denominator D1*D2."""
    k1 = a.s.numerator * b.s.denominator
    k2 = sign * b.s.numerator * a.s.denominator
    num = ipoly_lin(ipoly_mul(a.nc, b.dc), k1, ipoly_mul(b.nc, a.dc), k2)
    return QScalar._make(Fraction(1, a.s.denominator * b.s.denominator), num, ipoly_mul(a.dc, b.dc))


@st.composite
def factor_pairs(draw):
    """Two nonzero scalars built from raw fractions that share a factor f:
    f divides D1, N2 and D2 before _make.  In half the draws b is c - a for
    an unrelated c, so a + b must cancel all of a's denominator."""
    f = draw(polys)
    a = QScalar._make(draw(rationals), draw(polys), ipoly_mul(draw(polys), f))
    if draw(st.booleans()):
        b = QScalar._make(draw(rationals), ipoly_mul(draw(polys), f), ipoly_mul(draw(polys), f))
    else:
        b = _cross_sum(QScalar._make(draw(rationals), draw(polys), draw(polys)), a, -1)
    assume(not b.is_zero())
    return a, b


laurents = st.dictionaries(st.integers(min_value=-3, max_value=3), rationals, min_size=1, max_size=3)


@st.composite
def laurent_pairs(draw):
    """Two nonzero Laurent polynomials with rational coefficients, so both
    denominators are powers of q.  b is drawn free, as -a (a + b = 0) or as
    r - a for a rational r."""
    a = QScalar.from_terms(draw(laurents))
    b = QScalar.from_terms(draw(laurents))
    kind = draw(st.sampled_from(("free", "zero", "rational")))
    if kind == "zero":
        b = -a
    elif kind == "rational":
        b = QScalar.from_rational(draw(rationals)) - a
    assume(not b.is_zero())
    return a, b


def _laurent(terms):
    return QScalar.from_terms({e: Fraction(c) for e, c in terms.items()})


# q-power cancellation both ways: ord_q N < K and ord_q N > K
Q_CANCELS_AGAINST_NUMERATOR = (_laurent({2: 1, 3: 1}), _laurent({-3: 1, -1: 1}))
Q_CANCELS_AGAINST_DENOMINATOR = (_laurent({-1: 1, -2: 1}), _laurent({4: 1, 5: 2}))
FRACTIONAL = (_laurent({1: "1/2", -1: "1/3"}), _laurent({-2: "3/4", 0: "-5/2"}))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(factor_pairs(), laurent_pairs()))
@example(Q_CANCELS_AGAINST_NUMERATOR)
@example(Q_CANCELS_AGAINST_DENOMINATOR)
@example(FRACTIONAL)
@example((FRACTIONAL[0], -FRACTIONAL[0]))
@example((FRACTIONAL[0], qs(Fraction(7, 3)) - FRACTIONAL[0]))
def test_arithmetic_equals_make_of_the_unreduced_fraction(pair):
    a, b = pair
    make = QScalar._make
    assert _key(a * b) == _key(make(a.s * b.s, ipoly_mul(a.nc, b.nc), ipoly_mul(a.dc, b.dc)))
    assert _key(a + b) == _key(_cross_sum(a, b, 1))
    assert _key(a - b) == _key(_cross_sum(a, b, -1))
    assert _key(a / b) == _key(make(a.s / b.s, ipoly_mul(a.nc, b.dc), ipoly_mul(a.dc, b.nc)))
    assert _key(a.inv()) == _key(make(1 / a.s, a.dc, a.nc))


def _frac(num, den):
    return QScalar._make(Fraction(1), num, den)


Q_PLUS_1 = {0: 1, 1: 1}


def test_sum_cancels_gcd_of_numerator_and_common_denominator():
    # 1/(q+1) + q/(q+1): num = 1 + q shares q + 1 with g = gcd(D1, D2)
    assert _frac({0: 1}, Q_PLUS_1) + _frac({1: 1}, Q_PLUS_1) == ONE


def test_product_cancels_cross_gcds():
    # (q+1)/q * q/(q+1): gcd(N1, D2) = q + 1 and gcd(N2, D1) = q
    assert _frac(Q_PLUS_1, {1: 1}) * _frac({1: 1}, Q_PLUS_1) == ONE


def test_sum_moves_numerator_content_into_s():
    # 2q/(q+1) + 2/(q+1) = 2: num = 2q + 2 has content 2
    assert _frac({1: 2}, Q_PLUS_1) + _frac({0: 2}, Q_PLUS_1) == qs(2)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(factor_pairs())
def test_zero_is_the_empty_numerator(pair):
    a, b = pair
    assert (a - a).nc == {}
    assert (a - a).is_zero() and (a - a) == ZERO
    assert (a - b).is_zero() == (a - b == ZERO)
    assert (a * ZERO).nc == {} and (ZERO * a).nc == {}


def test_arithmetic_never_calls_make(monkeypatch):
    # _make canonicalizes raw input only; the arithmetic keeps the form itself
    pairs = [
        (_frac({0: 1}, Q_PLUS_1), _frac({1: 1}, Q_PLUS_1)),
        (_frac(Q_PLUS_1, {1: 1}), _frac({1: 1}, Q_PLUS_1)),
        (_frac({1: 2}, Q_PLUS_1), _frac({0: 2}, Q_PLUS_1)),
        (Q + QINV, QINV),
        (bracket(3), paren(2) / Q**2),
    ]
    laurent = qs(3) * (Q + QINV)
    # both denominators powers of q: no polynomial gcd either
    laurent_pairs = [
        (Q + QINV, QINV),
        Q_CANCELS_AGAINST_NUMERATOR,
        Q_CANCELS_AGAINST_DENOMINATOR,
        FRACTIONAL,
        (FRACTIONAL[0], qs(Fraction(7, 3)) - FRACTIONAL[0]),
    ]

    def refuse(*args):
        raise AssertionError("QScalar._make called from the arithmetic")

    def refuse_gcd(*args):
        raise AssertionError("ipoly_gcd called on Laurent operands")

    monkeypatch.setattr(QScalar, "_make", staticmethod(refuse))
    for a, b in pairs:
        assert not a.is_rational() and not b.is_rational()
        a * b, a + b, a - b, a / b, a.inv()
    assert laurent.as_laurent() == {1: 3, -1: 3}
    monkeypatch.setattr(qscalar, "ipoly_gcd", refuse_gcd)
    for a, b in laurent_pairs:
        assert not a.is_rational() and not b.is_rational()
        assert len(a.dc) == 1 and len(b.dc) == 1
        a * b, a + b, a - b
