import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tau_forge.qscalar import (
    ONE,
    PoleAtQOne,
    Q,
    QDivisionError,
    QINV,
    QScalar,
    ZERO,
    bracket,
    paren,
    q_number,
    qs,
)


def test_direct_construction_names_existing_constructors():
    with pytest.raises(TypeError) as exc:
        QScalar(Fraction(1), {0: 1}, {0: 1})
    names = re.findall(r"(\w+)\(\)", str(exc.value))
    assert names and all(callable(getattr(QScalar, n, None)) for n in names), names


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
    assert q_number("bracket", 2, 1) == Q + QINV
    assert q_number("paren", 3, 1) == ONE + Q + Q * Q
    # factorial of (n)_{q^2}: (1)(1+q^2)(1+q^2+q^4)
    expect = (ONE) * (ONE + Q**2) * (ONE + Q**2 + Q**4)
    assert q_number("paren_factorial", 3, 2) == expect
    assert q_number("paren_factorial", 0, 1) == ONE
    assert q_number("bracket_factorial", 0, 3) == ONE


def test_bracket_paren_relation():
    # [n]_q = q^{1-n} (n)_{q^2}
    for n in range(1, 21):
        assert bracket(n) == QScalar.q_power(1 - n) * paren(n, 2)


def test_eval_q1_classical_values():
    for n in range(0, 11):
        assert q_number("paren", n, 1).eval_q1() == n
        assert q_number("bracket", n, 1).eval_q1() == n
        assert q_number("paren_factorial", n, 1).eval_q1() == math.factorial(n)
        assert q_number("bracket_factorial", n, 2).eval_q1() == math.factorial(n)


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
