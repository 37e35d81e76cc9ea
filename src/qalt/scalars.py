"""Exact scalar arithmetic over the field Q(q), and admissible values of q.

All exact computation in this package happens in the field of rational
functions in one indeterminate q with rational coefficients.  Square roots
are deliberately not representable here: every square-root-bearing quantity
lives in the floating-point matrix backend instead, so that the exact code
paths stay exact.

Numeric specialization points are wrapped in :class:`QPoint`, which rejects
the degenerate parameters (q = 0, q = -1, and k-th roots of unity for k up
to the algebra size) once, at construction time.  :class:`QInteger` holds
the q-analogue [d]_q = (1 - q^d)/(1 - q) of an integer d; writing matrix
entries in terms of q-integers removes the removable singularities at
q = 1, so the same formulas evaluate cleanly at the limit point.

>>> q = RationalFunction.q()
>>> print(((q - 1) / (q + 1)) ** 2)
(q^2 - 2*q + 1)/(q^2 + 2*q + 1)
>>> print(QInteger(3).as_function)
q^2 + q + 1
>>> is_admissible(Fraction(3, 2), 6)
(True, None)
>>> is_admissible(Fraction(-1), 3)
(False, 'q = -1 forbidden by f-generator definition')
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Union

__all__ = [
    "Rational",
    "Scalar",
    "Polynomial",
    "RationalFunction",
    "QPoint",
    "QInteger",
    "is_admissible",
    "parse_q",
    "q_to_text",
    "ROOT_OF_UNITY_TOLERANCE",
]

# Exact rational scalars.  fractions.Fraction already maintains the
# canonical form required here: positive denominator, lowest terms.
Rational = Fraction

# A specialization value for q: exact rational, or float/complex.
Scalar = Union[Fraction, int, float, complex]

# |q^k - 1| below this counts as a root of unity for float/complex q.
ROOT_OF_UNITY_TOLERANCE = 1e-12


class Polynomial:
    """Dense univariate polynomial in q over Fraction.

    Coefficients are stored ascending by power with no trailing zeros, so
    equality of tuples is equality of polynomials.  The zero polynomial is
    the empty tuple and has degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @staticmethod
    def constant(c) -> "Polynomial":
        return Polynomial((Fraction(c),))

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial(())

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial((Fraction(1),))

    @staticmethod
    def q_power(k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("q_power needs k >= 0")
        return Polynomial((Fraction(0),) * k + (Fraction(1),))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading_coefficient(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        return self.coeffs[-1]

    def scaled(self, c) -> "Polynomial":
        c = Fraction(c)
        return Polynomial(a * c for a in self.coeffs)

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        return self.scaled(1 / self.leading_coefficient)

    def __neg__(self) -> "Polynomial":
        return Polynomial(-a for a in self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero or other.is_zero:
            return Polynomial.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __divmod__(self, other: "Polynomial"):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        quot = [Fraction(0)] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        rem = list(self.coeffs)
        dlead = other.leading_coefficient
        dn = other.degree
        for k in range(len(rem) - 1, dn - 1, -1):
            if rem[k] == 0:
                continue
            f = rem[k] / dlead
            quot[k - dn] = f
            for j, c in enumerate(other.coeffs):
                rem[k - dn + j] -= f * c
        return Polynomial(quot), Polynomial(rem)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    @staticmethod
    def gcd(a: "Polynomial", b: "Polynomial") -> "Polynomial":
        # Euclid with monic remainders; keeps coefficient growth in check.
        while not b.is_zero:
            a, b = b, (a % b).monic()
        if a.is_zero:
            return a
        return a.monic()

    def evaluate(self, value):
        """Horner evaluation; exact for Fraction input, float otherwise."""
        if self.is_zero:
            return Fraction(0) if isinstance(value, (int, Fraction)) else 0.0 * value
        acc = self.coeffs[-1]
        if not isinstance(value, (int, Fraction)):
            acc = complex(acc) if isinstance(value, complex) else float(acc)
        for c in reversed(self.coeffs[:-1]):
            acc = acc * value + c
        return acc

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


class RationalFunction:
    """Quotient of two Polynomials, kept in canonical reduced form.

    Canonical form: gcd(numerator, denominator) = 1 and the denominator is
    monic, so syntactic equality is mathematical equality.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = Polynomial.constant(num)
        if den is None:
            den = Polynomial.one()
        elif isinstance(den, (int, Fraction)):
            den = Polynomial.constant(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator in rational function")
        if num.is_zero:
            num, den = Polynomial.zero(), Polynomial.one()
        else:
            g = Polynomial.gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
            lc = den.leading_coefficient
            if lc != 1:
                num, den = num.scaled(1 / lc), den.scaled(1 / lc)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @staticmethod
    def _canonical(num: Polynomial, den: Polynomial) -> "RationalFunction":
        """Wrap num/den without a gcd; the caller guarantees canonical form
        (coprime, den monic, den = 1 when num = 0)."""
        rf = object.__new__(RationalFunction)
        object.__setattr__(rf, "num", num)
        object.__setattr__(rf, "den", den)
        return rf

    @staticmethod
    def q() -> "RationalFunction":
        return RationalFunction(Polynomial.q_power(1))

    @staticmethod
    def zero() -> "RationalFunction":
        return RationalFunction(0)

    @staticmethod
    def one() -> "RationalFunction":
        return RationalFunction(1)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @staticmethod
    def _coerce(value) -> "RationalFunction":
        if isinstance(value, RationalFunction):
            return value
        if isinstance(value, (int, Fraction, Polynomial)):
            return RationalFunction(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to RationalFunction")

    def __add__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    def __radd__(self, other) -> "RationalFunction":
        return self.__add__(other)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other) -> "RationalFunction":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RationalFunction":
        return self._coerce(other) - self

    def __mul__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __rmul__(self, other) -> "RationalFunction":
        return self.__mul__(other)

    def __truediv__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RationalFunction":
        return self._coerce(other) / self

    def __pow__(self, k: int) -> "RationalFunction":
        if k < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of zero")
            return RationalFunction(self.den ** (-k), self.num ** (-k))
        return RationalFunction(self.num ** k, self.den ** k)

    def evaluate(self, value):
        """Substitute a value for q.  Exact on Fraction input.

        Raises ZeroDivisionError when the value is a pole.
        """
        dv = self.den.evaluate(value)
        if dv == 0:
            raise ZeroDivisionError(f"pole at q = {value}")
        return self.num.evaluate(value) / dv

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RationalFunction(other)
        return (isinstance(other, RationalFunction)
                and self.num == other.num and self.den == other.den)

    def __hash__(self) -> int:
        return hash((self.num.coeffs, self.den.coeffs))

    def __str__(self) -> str:
        if self.den == Polynomial.one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


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


@dataclass(frozen=True)
class QPoint:
    """An admissible specialization point for q.

    value: exact Fraction, or float/complex.
    n_context: the algebra size the admissibility check is scoped to.
    """

    value: Scalar
    n_context: int

    def __post_init__(self):
        if self.n_context < 1:
            raise ValueError("n_context must be positive")
        ok, reason = is_admissible(self.value, self.n_context)
        if not ok:
            raise ValueError(f"inadmissible q for n = {self.n_context}: {reason}")

    @property
    def is_exact(self) -> bool:
        return isinstance(self.value, (int, Fraction))


@dataclass(frozen=True)
class QInteger:
    """The q-analogue [d]_q = (1 - q^d)/(1 - q) of a nonzero integer d.

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
        m = abs(self.d)
        ladder = Polynomial([Fraction(1)] * m)
        if self.d > 0:
            return RationalFunction(ladder)
        return RationalFunction(-ladder, Polynomial.q_power(m))


def q_to_text(value: Scalar) -> str:
    """Canonical text form of a q value; the inverse of parse_q.

    >>> q_to_text(Fraction(3, 2)), q_to_text(Fraction(2)), q_to_text(0.3)
    ('3/2', '2', '0.3')
    >>> q_to_text(2 + 0.5j)
    '2+0.5i'
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
    a decimal literal (float), or "a+bi" (complex float).
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty q value")
    try:
        if s.endswith(("i", "I")):
            return complex(s[:-1] + "j")
        if "/" in s:
            return Fraction(s)
        if any(ch in s for ch in ".eE"):
            return float(s)
        return Fraction(int(s))
    except ValueError:
        raise ValueError(f"cannot parse q from {text!r}") from None


if __name__ == "__main__":
    import doctest

    doctest.testmod()
