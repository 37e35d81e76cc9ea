"""Tests for exact values (polynomials, rational functions, q-integers)
and for admissible and parsed values of q."""

import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from field_oracle import Q, is_canonical_over_q_power, is_canonical_ring

from qalt.scalars import (
    Polynomial,
    QInteger,
    QPoint,
    RationalFunction,
    is_admissible,
    parse_q,
)
from qalt.word_algebra import _ring_to_rf, c_squared


def poly(*coeffs):
    # ascending powers
    return Polynomial(coeffs)


# -- values --------------------------------------------------------------------

def test_polynomial_normalizes_trailing_zeros():
    assert poly(1, 2, 0, 0).coeffs == (Fraction(1), Fraction(2))
    assert poly(0, 0).is_zero
    assert poly().degree == -1


def test_integral_coefficients_are_stored_as_ints():
    p = poly(Fraction(4, 2), 3, 2.0, Fraction(1, 2))
    assert [type(c) for c in p.coeffs] == [int, int, int, Fraction]
    c2 = c_squared()
    assert all(type(c) is int for c in c2.num.coeffs + c2.den.coeffs)


@pytest.mark.parametrize("value", [Fraction(3, 2), Fraction(-5, 7), 2])
def test_exact_evaluation_returns_a_fraction(value):
    # a constant prints "1" at q = 3/2 through q_to_text, not "1.0"
    for p, expected in ((poly(1), 1), (poly(), 0), (poly(0, 1), value)):
        got = p.evaluate(value)
        assert type(got) is Fraction and got == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-10**30, 10**30)
                | st.fractions(max_denominator=10**6), max_size=12),
       st.fractions(max_denominator=10**6) | st.integers(-50, 50))
def test_exact_evaluation_is_fraction_horner(coeffs, value):
    p = Polynomial(coeffs)
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * value + c
    got = p.evaluate(value)
    assert type(got) is Fraction and got == acc


def test_polynomial_str_descending():
    assert str(poly(1, -2, 1)) == "q^2 - 2*q + 1"
    assert str(poly(Fraction(1, 2), 0, 1)) == "q^2 + 1/2"
    assert str(poly()) == "0"


def test_rational_function_reduces_to_canonical_form():
    # ring values num/(q+1)^e are built in lowest terms:
    # (q^3 + 1)/(q + 1)^2 = (q^2 - q + 1)/(q + 1), and zero is 0/1
    f = _ring_to_rf((1, 0, 0, 1), 2)
    assert (f.num, f.den) == (poly(1, -1, 1), poly(1, 1))
    assert is_canonical_ring(f) and Q.of(f) == Q((1, 0, 0, 1), (1, 2, 1))
    zero = _ring_to_rf((), 3)
    assert (zero.num, zero.den) == (poly(), poly(1))


def test_c_squared_display():
    q = Q.q()
    c2 = c_squared()
    assert Q.of(c2) == ((q - 1) / (q + 1)) ** 2
    assert str(c2) == "(q^2 - 2*q + 1)/(q^2 + 2*q + 1)"


def test_rf_evaluate_pole():
    f = RationalFunction(poly(1), poly(-1, 1))
    assert str(f) == "(1)/(q - 1)"
    assert str(RationalFunction(poly(0, 1), poly(1))) == "q"
    with pytest.raises(ZeroDivisionError):
        f.evaluate(Fraction(1))
    assert f.evaluate(Fraction(3)) == Fraction(1, 2)


@pytest.mark.parametrize("q", [1e200, 1e200 + 1e200j])
def test_rf_evaluate_refuses_a_result_that_is_not_finite(q):
    # q^2 overflows in the numerator and the denominator of c^2 alike,
    # where inf / inf would be nan; in 1/q the value is finite, about 1
    assert abs(c_squared().evaluate(q) - 1) < 1e-15
    assert c_squared().evaluate(1e100) == 1.0
    # q^3 really is out of range, and 1/q^3 underflows to zero
    with pytest.raises(OverflowError, match="q\\^3 is not finite at q = "):
        RationalFunction(poly(0, 0, 0, 1), poly(1)).evaluate(q)
    assert RationalFunction(poly(1), poly(0, 0, 0, 1)).evaluate(q) == 0


def test_rf_evaluate_in_inverse_q_matches_direct_horner():
    # the fallback agrees with direct evaluation where both are finite
    f = RationalFunction(poly(3, -1, 0, 2), poly(1, 2, 1))
    for q in (1e3, -7.5, 2 + 3j, 1e20):
        direct = f.evaluate(q)
        assert abs(f._evaluate_in_inverse(q) - direct) <= 1e-14 * abs(direct)


def horner_through_fractions(p: Polynomial, value):
    """Polynomial.evaluate at a float or complex value as first written:
    each lower Fraction coefficient added through Fraction.__radd__."""
    if p.is_zero:
        return 0.0 * value
    coeffs = [Fraction(c) for c in p.coeffs]
    acc = coeffs[-1]
    acc = complex(acc) if isinstance(value, complex) else float(acc)
    for c in reversed(coeffs[:-1]):
        acc = acc * value + c
    return acc


def outcome(f, *args):
    """The type and bits of f's value, or its exception and message."""
    try:
        z = complex(value := f(*args))
    except OverflowError as exc:
        return "raises", str(exc)
    return type(value), struct.pack("<dd", z.real, z.imag)


finite = st.floats(-1e6, 1e6)
values = st.one_of(st.floats(), st.builds(complex, finite, finite),
                   st.sampled_from([-0.0, 1e-300, 1e300, -1.0 + 1e-9j]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(max_denominator=10**6)
                | st.integers(-10**30, 10**30).map(Fraction), max_size=8),
       values)
def test_float_horner_is_bit_identical_to_the_fraction_loop(coeffs, value):
    p = Polynomial(coeffs)
    assert outcome(p.evaluate, value) == outcome(horner_through_fractions,
                                                 p, value)


@pytest.mark.parametrize("value", [2.0, 0.5 + 1j])
@pytest.mark.parametrize("coeffs", [(1, 10**400), (10**400, 1),
                                    (Fraction(10**400, 3), 0, 1)])
def test_float_horner_overflow_message_unchanged(coeffs, value):
    p = poly(*coeffs)
    expected = outcome(horner_through_fractions, p, value)
    assert expected[0] == "raises"
    assert outcome(p.evaluate, value) == expected


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
    # [-d]_q = -[d]_q / q^d, each side in its canonical form
    q = Q.q()
    for d in (1, 2, 5):
        pos, neg = QInteger(d).as_function, QInteger(-d).as_function
        assert pos.den == poly(1)
        assert is_canonical_over_q_power(neg)
        assert Q.of(neg) == -Q.of(pos) / q ** d


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
    for text in ("spam", "", "1/0", "1e400", "-1e400", "nani", "1e400i",
                 "inf", "nan"):
        with pytest.raises(ValueError):
            parse_q(text)
