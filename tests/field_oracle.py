"""A Q(q) oracle for the tests: unreduced quotients of polynomials.

A `Q` value is a pair (num, den) of coefficient tuples in ascending powers
of q, with int or Fraction entries, and it is never reduced: no gcd runs
here.  Two values are equal when num_a * den_b == num_b * den_a.  So the
oracle's arithmetic shares nothing with the canonical forms that the
package builds; `is_canonical_ring` and `is_canonical_over_q_power` check
those forms by their structure instead.
"""

import math


def _trim(cs) -> tuple:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _add(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    return _trim(x + (b[k] if k < len(b) else 0) for k, x in enumerate(a))


def _mul(a: tuple, b: tuple) -> tuple:
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _at(p: tuple, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


class Q:
    """num/den in Q(q); exact arithmetic on unreduced quotients."""

    __slots__ = ("num", "den")

    def __init__(self, num=(), den=(1,)):
        self.num, self.den = _trim(num), _trim(den)
        if not self.den:
            raise ZeroDivisionError("zero denominator")

    @staticmethod
    def q() -> "Q":
        return Q((0, 1))

    @staticmethod
    def of(value) -> "Q":
        """A Q from a number, a Q, or the package's RationalFunction."""
        if isinstance(value, Q):
            return value
        if hasattr(value, "num"):
            return Q(value.num.coeffs, value.den.coeffs)
        return Q((value,))

    def __add__(self, other) -> "Q":
        other = Q.of(other)
        if self.den == other.den:
            return Q(_add(self.num, other.num), self.den)
        return Q(_add(_mul(self.num, other.den), _mul(other.num, self.den)),
                 _mul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self) -> "Q":
        return Q(tuple(-x for x in self.num), self.den)

    def __sub__(self, other) -> "Q":
        return self + -Q.of(other)

    def __rsub__(self, other) -> "Q":
        return Q.of(other) - self

    def __mul__(self, other) -> "Q":
        other = Q.of(other)
        return Q(_mul(self.num, other.num), _mul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Q":
        other = Q.of(other)
        return Q(_mul(self.num, other.den), _mul(self.den, other.num))

    def __rtruediv__(self, other) -> "Q":
        return Q.of(other) / self

    def __pow__(self, k: int) -> "Q":
        out = Q((1,))
        for _ in range(abs(k)):
            out = out * self
        return out if k >= 0 else 1 / out

    def __eq__(self, other) -> bool:
        other = Q.of(other)
        return _mul(self.num, other.den) == _mul(other.num, self.den)


def is_canonical_ring(rf) -> bool:
    """Canonical form of num/(q+1)^e: e = 0, or num(-1) != 0; zero is 0/1.

    (q+1) is the only irreducible factor of the denominator, so this is
    num and den coprime with den monic.
    """
    num, den = rf.num.coeffs, rf.den.coeffs
    e = len(den) - 1
    if den != tuple(math.comb(e, k) for k in range(e + 1)):
        return False
    if not num:
        return e == 0
    return e == 0 or _at(num, -1) != 0


def is_canonical_over_q_power(rf) -> bool:
    """Canonical form of num/q^d: num nonzero with num(0) != 0."""
    num, den = rf.num.coeffs, rf.den.coeffs
    d = len(den) - 1
    return den == (0,) * d + (1,) and bool(num) and num[0] != 0
