"""Tests for exact values (polynomials, rational functions, q-integers)
and for admissible and parsed values of q."""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from field_oracle import Q, is_canonical_over_q_power, is_canonical_ring
from word_oracle import ring_to_rf

from qalt.hecke_rep import _qint_value
from qalt.scalars import (
    Polynomial,
    RationalFunction,
    is_admissible,
    parse_q,
)
from qalt.word_algebra import c_squared, rewrite_y_word


def poly(*coeffs):
    # ascending powers
    return Polynomial(coeffs)


# -- values --------------------------------------------------------------------

def test_polynomial_normalizes_trailing_zeros():
    assert poly(1, 2, 0, 0).coeffs == (Fraction(1), Fraction(2))
    assert poly(0, 0).is_zero
    assert poly().degree == -1


def test_integral_coefficients_are_stored_as_ints():
    c2 = c_squared()
    assert all(type(c) is int for c in c2.num.coeffs + c2.den.coeffs)


@pytest.mark.parametrize("value", [Fraction(3, 2), Fraction(-5, 7), 2])
def test_exact_evaluation_returns_a_fraction(value):
    # a constant prints "1" at q = 3/2 through q_to_text, not "1.0"
    for p, expected in ((poly(1), 1), (poly(), 0), (poly(0, 1), value)):
        got = RationalFunction(p, poly(1)).evaluate(value)
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
    got = RationalFunction(p, poly(1)).evaluate(value)
    assert type(got) is Fraction and got == acc


def test_polynomial_str_descending():
    assert str(poly(1, -2, 1)) == "q^2 - 2*q + 1"
    assert str(poly(Fraction(1, 2), 0, 1)) == "q^2 + 1/2"
    assert str(poly()) == "0"


def test_rational_function_reduces_to_canonical_form():
    # ring values num/(q+1)^e are built in lowest terms:
    # (q^3 + 1)/(q + 1)^2 = (q^2 - q + 1)/(q + 1), and zero is 0/1
    f = ring_to_rf((1, 0, 0, 1), 2)
    assert (f.num, f.den) == (poly(1, -1, 1), poly(1, 1))
    assert is_canonical_ring(f) and Q.of(f) == Q((1, 0, 0, 1), (1, 2, 1))
    zero = ring_to_rf((), 3)
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
    # q^2 is beyond the float range, but c^2 is finite, about 1
    assert abs(c_squared().evaluate(q) - 1) < 1e-15
    assert c_squared().evaluate(1e100) == 1.0
    # q^3 really is out of range, and 1/q^3 rounds to zero
    with pytest.raises(OverflowError,
                       match="integer division result too large for a float"):
        RationalFunction(poly(0, 0, 0, 1), poly(1)).evaluate(q)
    assert RationalFunction(poly(1), poly(0, 0, 0, 1)).evaluate(q) == 0


def rounded_oracle(f, q):
    """f at q in Fraction arithmetic on q's exact value, summed power by
    power; at a float or complex q each part of the quotient is rounded
    once by float(Fraction), which is correctly rounded."""
    x, y = Fraction(q.real), Fraction(q.imag)

    def value(p):
        re = im = Fraction(0)
        pr, pi = Fraction(1), Fraction(0)
        for c in p.coeffs:
            re, im = re + c * pr, im + c * pi
            pr, pi = pr * x - pi * y, pr * y + pi * x
        return re, im

    (nr, ni), (dr, di) = value(f.num), value(f.den)
    norm = dr * dr + di * di
    re, im = (nr * dr + ni * di) / norm, (ni * dr - nr * di) / norm
    if isinstance(q, complex):
        return complex(float(re), float(im))
    return float(re) if isinstance(q, float) else re


def typed_value(f, *args):
    """f's value with its type, or the type of the exception raised.
    Values compare with ==, so the sign of an exact zero, which has none,
    does not count."""
    try:
        value = f(*args)
    except (OverflowError, ZeroDivisionError) as exc:
        return type(exc)
    return type(value), value


# every coefficient of a few normal forms: integer numerators over
# (q + 1)^(2k), which cancel catastrophically in floats near q = -1
ENGINE_COEFFS = [c for word, n in (([1] * 10, 3), ([1, 2, 1, 2, 2, 1], 4),
                                   ([3, 1, 2, 3, 1, 1, 2], 5))
                 for c in rewrite_y_word(word, n).terms.values()]
coefficients = st.integers(-10**30, 10**30) | st.sampled_from([10**400,
                                                                -10**400])
polynomials = st.lists(coefficients, max_size=8).map(Polynomial)
finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.builds(RationalFunction, polynomials,
                 polynomials.filter(lambda p: not p.is_zero))
       | st.sampled_from(ENGINE_COEFFS),
       finite | st.builds(complex, finite, finite)
       | st.sampled_from([-1.01, -0.9999, -0.9, 0.999, 1.001, 1e-5, 1e200,
                          0.5j])
       | st.fractions(max_denominator=10**6) | st.integers(-50, 50))
# polynomials whose value is beyond the float range at 2.0 and 0.5+1j
@example(RationalFunction(poly(1, 10**400), poly(1)), 2.0)
@example(RationalFunction(poly(1, 10**400), poly(1)), 0.5 + 1j)
@example(RationalFunction(poly(10**400, 1), poly(1)), 2.0)
@example(RationalFunction(poly(10**400, 1), poly(1)), 0.5 + 1j)
@example(RationalFunction(poly(Fraction(10**400, 3), 0, 1), poly(1)), 2.0)
@example(RationalFunction(poly(Fraction(10**400, 3), 0, 1), poly(1)),
         0.5 + 1j)
def test_evaluate_is_the_exact_value_rounded_once(f, q):
    assert typed_value(f.evaluate, q) == typed_value(rounded_oracle, f, q)
    num = RationalFunction(f.num, poly(1))
    assert typed_value(num.evaluate, q) == typed_value(rounded_oracle, num, q)


# -- q-integers --------------------------------------------------------------

@dataclass(frozen=True)
class QInteger:
    """The q-analogue [d]_q = (1 - q^d)/(1 - q) of a nonzero integer d, in
    closed form: the exact reference of hecke_rep._qint_value.

    For d > 0 this is the ladder 1 + q + ... + q^{d-1}; for d < 0 it is
    -q^d (1 + q + ... + q^{|d|-1}), a genuine rational function.  Its value
    at q = 1 is d, which is what makes it the right regularizer for matrix
    entries with 1 - q^d denominators.
    """

    d: int

    def __post_init__(self):
        if self.d == 0:
            raise ValueError("QInteger needs d != 0")

    @cached_property
    def as_function(self) -> RationalFunction:
        # canonical as built: the ladder has value 1 at q = 0, so it is
        # coprime to q^m
        m = abs(self.d)
        if self.d > 0:
            return RationalFunction(Polynomial([1] * m), Polynomial([1]))
        return RationalFunction(Polynomial([-1] * m), Polynomial([0] * m + [1]))


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


@pytest.mark.parametrize("d", range(1, 9))
def test_qint_value_is_the_q_integer(d):
    # the entry formulas' numeric ladder, exact at rational q
    f = QInteger(d).as_function
    for value in (Fraction(2), Fraction(3, 2), Fraction(5, 7), Fraction(-3),
                  Fraction(1)):
        assert _qint_value(d, value) == f.evaluate(value)


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
