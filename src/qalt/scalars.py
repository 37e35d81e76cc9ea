"""Exact coefficient values in Q(q), and admissible values of q.

The exact calculi of this package compute in rings of integer
polynomials (see word_algebra) and hand their results out as
:class:`RationalFunction` values: a numerator and a denominator
:class:`Polynomial` with int coefficients, built already in lowest terms
with a monic denominator, so equal values have equal fields.  There is
no field arithmetic and no polynomial gcd here; a value is printed,
compared and evaluated at a number exactly, then rounded once at a
float q.  Square roots are deliberately not representable: every
square-root-bearing quantity lives in the floating-point matrix backend
instead, so that the exact code paths stay exact.

Numeric values of q are parsed by :func:`parse_q`, printed by
:func:`q_to_text`, and checked by :func:`is_admissible`, which rejects
the degenerate parameters (q = 0, q = -1, and k-th roots of unity for k
up to the algebra size).

>>> is_admissible(Fraction(3, 2), 6)
(True, None)
>>> is_admissible(Fraction(-1), 3)
(False, 'q = -1 forbidden by f-generator definition')
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

__all__ = [
    "Scalar",
    "exact_parts",
    "Polynomial",
    "RationalFunction",
    "is_admissible",
    "parse_q",
    "q_to_text",
    "ROOT_OF_UNITY_TOLERANCE",
]

# A specialization value for q: exact rational, or float/complex.
Scalar = Union[Fraction, int, float, complex]

# |q^k - 1| below this counts as a root of unity for float/complex q.
ROOT_OF_UNITY_TOLERANCE = 1e-12


def exact_parts(q):
    """Integers (x, y, b), b > 0, with q = (x + iy)/b exactly: a float is a
    dyadic rational, a complex a Gaussian dyadic one, and y = 0 otherwise."""
    if isinstance(q, complex):
        (x, bx), (y, by) = q.real.as_integer_ratio(), q.imag.as_integer_ratio()
        b = max(bx, by)     # both are powers of two
        return x * (b // bx), y * (b // by), b
    x, b = q.as_integer_ratio()
    return x, 0, b


def _rounded(re, im, den, q):
    """(re + i im)/den: a Fraction for exact q, else each part rounded once
    by int / int true division, which raises OverflowError beyond floats."""
    if isinstance(q, complex):
        return complex(re / den, im / den)
    if isinstance(q, float):
        return float(re / den)  # re / den is a Fraction if a coefficient is
    return Fraction(re, den)


class Polynomial:
    """Dense univariate polynomial in q.

    Coefficients are stored ascending by power with no trailing zeros, so
    equality of tuples is equality of polynomials; every producer in this
    package passes ints.  The zero polynomial is the empty tuple and has
    degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def _horner(self, x, y, b):
        """(re, im, s) with this polynomial's value at (x + iy)/b equal to
        (re + i im)/s: Horner in Gaussian integers, s = b^(degree + 1)."""
        re, im, scale = 0, 0, 1
        for c in reversed(self.coeffs):
            scale *= b
            re, im = re * x - im * y + c * scale, re * y + im * x
        return re, im, scale

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            elif k == 1:
                body = "q" if mag == 1 else f"{mag}*q"
            else:
                body = f"q^{k}" if mag == 1 else f"{mag}*q^{k}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


@dataclass(frozen=True)
class RationalFunction:
    """An element num/den of Q(q), as its producers hand it out.

    There is no arithmetic here.  Every producer builds the canonical form
    directly: num and den coprime, den monic, den = 1 when num = 0.  So
    equality of the fields is equality of the functions.
    """

    num: Polynomial
    den: Polynomial

    def evaluate(self, value):
        """The value at q: a Fraction for int or Fraction input, else the
        exact value at q's binary value with each part rounded once;
        ZeroDivisionError at a pole, OverflowError beyond the float range."""
        x, y, b = exact_parts(value)
        nr, ni, ns = self.num._horner(x, y, b)
        dr, di, ds = self.den._horner(x, y, b)
        if not (dr or di):
            raise ZeroDivisionError(f"pole at q = {value}")
        if di:
            # divide by dr + i di through its conjugate
            nr, ni, dr = nr * dr + ni * di, ni * dr - nr * di, dr * dr + di * di
        return _rounded(nr * ds, ni * ds, dr * ns, value)

    def __str__(self) -> str:
        if self.den.coeffs == (1,):
            return str(self.num)
        return f"({self.num})/({self.den})"


def is_admissible(q: Scalar, n: int):
    """Whether q is a valid parameter for the algebras on n symbols.

    Returns (True, None) or (False, reason).  Forbidden values: q = 0,
    q = -1 (the involutive generators need 2/(q+1)), and k-th roots of
    unity for 1 <= k <= n (semisimplicity).  Rational q is tested exactly;
    float/complex q to tolerance ROOT_OF_UNITY_TOLERANCE.
    """
    if isinstance(q, (int, Fraction)):
        qf = Fraction(q)
        if qf == 0:
            return False, "q = 0 is not invertible"
        if qf == -1:
            return False, "q = -1 forbidden by f-generator definition"
        if qf == 1:
            return False, "q^1 = 1 (root of unity with k <= n)"
        # Any other rational has |q| != 1, hence no power equals 1.
        return True, None
    z = complex(q)
    if abs(z) < ROOT_OF_UNITY_TOLERANCE:
        return False, "q = 0 is not invertible"
    if abs(z + 1) < ROOT_OF_UNITY_TOLERANCE:
        return False, "q = -1 forbidden by f-generator definition"
    w = z
    for k in range(1, n + 1):
        if abs(w - 1) < ROOT_OF_UNITY_TOLERANCE:
            return False, f"q^{k} = 1 (root of unity with k <= n)"
        w = w * z
    return True, None


def q_to_text(value: Scalar) -> str:
    """Canonical text form of a q value; the inverse of parse_q.

    >>> q_to_text(Fraction(3, 2)), q_to_text(Fraction(2)), q_to_text(0.3)
    ('3/2', '2', '0.3')
    >>> q_to_text(2 + 0.5j)
    '2.0+0.5i'
    """
    if isinstance(value, (int, Fraction)):
        return str(Fraction(value))
    if isinstance(value, complex):
        sign = "+" if value.imag >= 0 else "-"
        return f"{value.real!r}{sign}{abs(value.imag)!r}i"
    return repr(float(value))


def parse_q(text: str) -> Scalar:
    """Parse a q value from text.

    Accepted forms: "p/r" (exact rational), an integer literal (exact),
    a decimal literal (float), or "a+bi" (complex float).  A zero
    denominator and a float or complex value that is not finite ("1e400",
    "nani") are rejected.
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty q value")
    try:
        if s.endswith(("i", "I")):
            value = complex(s[:-1] + "j")
        elif "/" in s:
            value = Fraction(s)
        elif any(ch in s for ch in ".eE"):
            value = float(s)
        else:
            value = Fraction(int(s))
    except ValueError:
        raise ValueError(f"cannot parse q from {text!r}") from None
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in q {text!r}") from None
    if not isinstance(value, Fraction) and not cmath.isfinite(value):
        raise ValueError(f"q is not finite: {text!r}")
    return value
