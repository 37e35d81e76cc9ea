"""Tests for exact scalars: polynomials, rational functions, q-integers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qalt.scalars import (
    Polynomial,
    QInteger,
    QPoint,
    RationalFunction,
    is_admissible,
    parse_q,
)


def poly(*coeffs):
    # ascending powers
    return Polynomial(coeffs)


def cross_equal(a: RationalFunction, b: RationalFunction) -> bool:
    # oracle for equality of quotients that bypasses canonical reduction:
    # a.num/a.den == b.num/b.den iff a.num * b.den == b.num * a.den
    return (a.num * b.den).coeffs == (b.num * a.den).coeffs


# -- polynomial layer -------------------------------------------------------

def test_polynomial_normalizes_trailing_zeros():
    assert poly(1, 2, 0, 0).coeffs == (Fraction(1), Fraction(2))
    assert poly(0, 0).is_zero
    assert poly().degree == -1


def test_polynomial_divmod_reconstructs():
    a = poly(3, 0, -2, 1, 1)
    b = poly(-1, 1)
    quot, rem = divmod(a, b)
    assert (quot * b + rem).coeffs == a.coeffs
    assert rem.degree < b.degree


def test_polynomial_long_division_ladder():
    # (q^3 - 1) / (q - 1) = q^2 + q + 1 exactly
    num = poly(-1, 0, 0, 1)
    den = poly(-1, 1)
    quot, rem = divmod(num, den)
    assert rem.is_zero
    assert quot.coeffs == (Fraction(1), Fraction(1), Fraction(1))


def test_polynomial_str_descending():
    assert str(poly(1, -2, 1)) == "q^2 - 2*q + 1"
    assert str(poly(Fraction(1, 2), 0, 1)) == "q^2 + 1/2"
    assert str(Polynomial.zero()) == "0"


@st.composite
def polynomials(draw, max_degree=5):
    coeffs = draw(st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=7),
        max_size=max_degree + 1))
    return Polynomial(coeffs)


@given(polynomials(), polynomials())
def test_polynomial_mul_commutes(a, b):
    assert (a * b).coeffs == (b * a).coeffs


@given(polynomials(), polynomials())
def test_polynomial_gcd_divides_both(a, b):
    g = Polynomial.gcd(a, b)
    if g.is_zero:
        assert a.is_zero and b.is_zero
    else:
        assert (a % g).is_zero and (b % g).is_zero


# -- rational function layer ------------------------------------------------

def test_rational_function_reduces_to_canonical_form():
    # (q^3 - 1)/(q - 1) must reduce to the ladder, by the division oracle
    f = RationalFunction(poly(-1, 0, 0, 1), poly(-1, 1))
    assert f.den == Polynomial.one()
    assert cross_equal(f, RationalFunction(poly(1, 1, 1)))
    assert str(f) == "q^2 + q + 1"


def test_denominator_kept_monic():
    f = RationalFunction(poly(1), poly(0, 2))
    assert f.den.leading_coefficient == 1
    assert f.num.coeffs == (Fraction(1, 2),)


def test_c_squared_display():
    q = RationalFunction.q()
    c2 = ((q - 1) / (q + 1)) ** 2
    assert str(c2) == "(q^2 - 2*q + 1)/(q^2 + 2*q + 1)"


@st.composite
def rational_functions(draw):
    num = draw(polynomials(max_degree=4))
    den = draw(polynomials(max_degree=3).filter(lambda p: not p.is_zero))
    return RationalFunction(num, den)


@given(rational_functions(), rational_functions())
def test_rf_add_matches_cross_multiplication(a, b):
    s = a + b
    expected = RationalFunction(a.num * b.den + b.num * a.den, a.den * b.den)
    assert cross_equal(s, expected)


@given(rational_functions())
def test_rf_additive_inverse(a):
    assert (a - a).is_zero
    assert (a + (-a)).is_zero


@given(rational_functions(), rational_functions(), rational_functions())
@settings(max_examples=50)
def test_rf_distributive(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(rational_functions())
def test_rf_multiplicative_inverse(a):
    if not a.is_zero:
        assert (a / a) == 1


def test_rf_evaluate_pole():
    q = RationalFunction.q()
    f = 1 / (q - 1)
    with pytest.raises(ZeroDivisionError):
        f.evaluate(Fraction(1))
    assert f.evaluate(Fraction(3)) == Fraction(1, 2)


# -- q-integers --------------------------------------------------------------

def ladder_oracle(d: int, value: Fraction) -> Fraction:
    # direct evaluation of (1 - q^d)/(1 - q) in exact arithmetic
    return (1 - value ** d) / (1 - value)


@pytest.mark.parametrize("d", [d for d in range(-8, 9) if d != 0])
def test_q_integer_matches_ladder_oracle(d):
    f = QInteger(d).as_function
    for value in (Fraction(2), Fraction(3, 2), Fraction(5, 7), Fraction(-3)):
        assert f.evaluate(value) == ladder_oracle(d, value)


@pytest.mark.parametrize("d", [d for d in range(-8, 9) if d != 0])
def test_q_integer_value_at_one_is_d(d):
    # the removable singularity at q = 1 is gone after reduction
    assert QInteger(d).as_function.evaluate(Fraction(1)) == d


def test_q_integer_rejects_zero():
    with pytest.raises(ValueError):
        QInteger(0)


def test_q_integer_negation_identity():
    # [-d]_q = -[d]_q / q^d
    q = RationalFunction.q()
    for d in (1, 2, 5):
        assert QInteger(-d).as_function == -QInteger(d).as_function / q ** d


# -- admissibility and parsing ------------------------------------------------

def test_is_admissible_exact_cases():
    assert is_admissible(Fraction(2), 7) == (True, None)
    assert is_admissible(Fraction(5, 7), 7) == (True, None)
    assert is_admissible(Fraction(-2), 5) == (True, None)
    assert is_admissible(Fraction(0), 3)[0] is False
    ok, reason = is_admissible(Fraction(-1), 3)
    assert not ok and reason == "q = -1 forbidden by f-generator definition"
    ok, reason = is_admissible(Fraction(1), 3)
    assert not ok and "root of unity" in reason


def test_is_admissible_float_cases():
    assert is_admissible(0.3, 6) == (True, None)
    assert is_admissible(1.7, 6) == (True, None)
    ok, reason = is_admissible(-0.5 + 0.8660254037844387j, 4)  # primitive cube root
    assert not ok and reason == "q^3 = 1 (root of unity with k <= n)"
    assert is_admissible(1.0 + 1e-15, 5)[0] is False
    assert is_admissible(-1.0, 5)[0] is False


def test_qpoint_rejects_inadmissible():
    QPoint(Fraction(2), 5)
    with pytest.raises(ValueError):
        QPoint(Fraction(1), 5)


def test_parse_q_forms():
    assert parse_q("3/2") == Fraction(3, 2)
    assert parse_q("2") == Fraction(2)
    assert isinstance(parse_q("2"), Fraction)
    assert parse_q("0.3") == 0.3
    assert isinstance(parse_q("0.3"), float)
    assert parse_q("1.5e-1") == 0.15
    assert parse_q("2+0.5i") == 2 + 0.5j
    with pytest.raises(ValueError):
        parse_q("spam")
    with pytest.raises(ValueError):
        parse_q("")
