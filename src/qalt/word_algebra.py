"""Words in generators, normal word bases, and the exact rewriting engine
for the even subalgebra.

Two exact calculi live here.

The first is the natural word basis {T_w} of the Hecke algebra H_n(q),
indexed by permutations, with right multiplication by a generator g_i
given by the quadratic rule: T_w g_i = T_{w s_i} when the length goes up,
and (q-1) T_w + q T_{w s_i} when it goes down.  On top of it sits an exact
check of the involutive generators f_i = (2 g_i - (q-1))/(q+1): each f_i
squares to 1, adjacent pairs satisfy a braid relation corrected by
c^2 (f_{i+1} - f_i) with c = (q-1)/(q+1), and distant pairs commute.

The second is the even subalgebra A_n(q) of even-length words in the f_i,
generated by a_i = f_1 f_{i+1} for i = 1..n-2.  Its defining relations are

    a_1^3 = -c^2 (a_1^2 - a_1) + 1,
    a_i^2 = 1                          (i >= 2),
    (a_{i-1} a_i)^3 = -c^2 ((a_{i-1} a_i)^2 - a_{i-1} a_i) + 1,
    (a_i a_j)^2 = 1                    (|i - j| > 1),

and every element is a combination of the n!/2 normal-form monomials
U_1 U_2 ... U_{n-2}, where U_i is one of the staircase words
{1, a_i, a_i a_{i-1}, ..., a_i...a_2 a_1, a_i...a_2 a_1^2}.  The rewriting
engine reduces an arbitrary word onto this basis by right multiplication,
one letter at a time, using the consequences of the defining relations:

    a_1^{-1} = a_1^2 + c^2 (a_1 - 1),
    a_i^{-1} = a_i                                      (i >= 2),
    a_{i-1} a_i a_{i-1} = a_i a_{i-1}^{-1} a_i - c^2 (a_{i-1} - a_i),
    a_i a_{i-1} a_i = a_{i-1}^{-1} a_i a_{i-1}^{-1} - c^2 (a_i - a_{i-1}^{-1}),
    a_i a_1 = a_1^{-1} a_i  and  a_1 a_i = a_i a_1^{-1}  (i > 2),
    a_i a_j = a_j a_i                                    (|i - j| > 1, i, j > 1).

All structure constants are integer polynomials in u = c^2, so the engine,
normal-form combinations, their products and their re-reduction all work
over Z[u].  Both calculi keep their coefficients in Z[q, 1/(q+1)], as
integer polynomials over a power of (q+1), and compute with integers
alone: there is no Q(q) arithmetic and no polynomial gcd.  A coefficient
of the engine becomes a canonical RationalFunction only at the edge, in
_u_to_rf, whose closed form is already in lowest terms.  The exact
T-basis check compares its residuals with zero and never converts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .scalars import Polynomial, RationalFunction

__all__ = [
    "UWord",
    "YWord",
    "NormalFormMonomial",
    "NormalFormCombination",
    "c_squared",
    "enumerate_even_uwords",
    "enumerate_normal_monomials",
    "rewrite_y_word",
    "verify_presentation_relations",
    "parse_y_word",
    "HeckeElement",
    "hecke_f_relation_check_exact",
]


# ---------------------------------------------------------------------------
# descent vectors: the normal word basis of H_n(q)

@dataclass(frozen=True)
class UWord:
    """Descent vector (d_2, ..., d_n) with 0 <= d_i <= i - 1.

    Encodes the normal word U_2 U_3 ... U_n where the stage-i factor is the
    descending run of generators with indices i-1, i-2, ..., i-d_i (empty
    when d_i = 0).  Descent vectors biject with permutations.
    """

    descents: tuple[int, ...]

    def __post_init__(self):
        ds = tuple(int(d) for d in self.descents)
        object.__setattr__(self, "descents", ds)
        for pos, d in enumerate(ds):
            i = pos + 2
            if not 0 <= d <= i - 1:
                raise ValueError(f"descent {d} out of range at stage {i}")


def enumerate_even_uwords(n: int) -> list[UWord]:
    """All descent vectors of even total length; there are n!/2 of them."""
    if n < 2:
        raise ValueError("enumerate_even_uwords needs n >= 2")
    out = []
    for ds in itertools.product(*(range(i) for i in range(2, n + 1))):
        if sum(ds) % 2 == 0:
            out.append(UWord(ds))
    return out


# ---------------------------------------------------------------------------
# integer polynomials: coefficient tuples, ascending powers, no trailing
# zeros; the empty tuple is zero.  The engine's are polynomials in u = c^2,
# the coefficient ring's below are polynomials in q.
_UONE = (1,)
_U = (0, 1)


def _u_add(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, c in enumerate(b):
        out[k] += c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _u_neg(a: tuple) -> tuple:
    return tuple(-x for x in a)


def _u_shift(a: tuple) -> tuple:
    # multiply by the variable
    return ((0,) + a) if a else ()


def _u_mul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    if a == _UONE:
        return b
    if b == _UONE:
        return a
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


# ---------------------------------------------------------------------------
# the coefficient ring Z[q, 1/(q+1)]
#
# An element is num/(q+1)^e with num an integer polynomial in q.  Every
# coefficient of the engine lies here, since u = (q-1)^2/(q+1)^2, and so
# does every T-basis coefficient of an f-word, since f_i = (2 g_i - (q-1))
# /(q+1).  Sums and products need no gcd; (q+1) factors are cancelled only
# where a canonical RationalFunction is built.

_Q_MINUS_ONE_SQ = (1, -2, 1)
_Q_PLUS_ONE_SQ = (1, 2, 1)


def _q_plus_one_power(e: int) -> tuple:
    return tuple(math.comb(e, k) for k in range(e + 1))


def _u_to_rf(p: tuple) -> RationalFunction:
    """p(u) in Q(q): sum_j a_j (q-1)^{2j} (q+1)^{2(k-j)} over (q+1)^{2k}.

    The numerator is a_k 4^k at q = -1 (k the degree of p), never zero, so
    the fraction is already reduced: it is built as it stands.
    """
    k = len(p) - 1
    while k >= 0 and not p[k]:
        k -= 1
    if k < 0:
        return RationalFunction(Polynomial(()), Polynomial(_UONE))
    num, den = (p[k],), _UONE
    for a in reversed(p[:k]):
        den = _u_mul(den, _Q_PLUS_ONE_SQ)
        num = _u_mul(num, _Q_MINUS_ONE_SQ)
        if a:
            num = _u_add(num, tuple(a * x for x in den))
    return RationalFunction(Polynomial(num), Polynomial(den))


def c_squared() -> RationalFunction:
    """The twist constant c^2 = ((q-1)/(q+1))^2 of the defining relations."""
    return _u_to_rf(_U)


# ---------------------------------------------------------------------------
# normal-form monomials and combinations

@dataclass(frozen=True)
class NormalFormMonomial:
    """Code (d_1, ..., d_{n-2}) for the monomial U_1 U_2 ... U_{n-2}.

    Slot i holds the descending run a_i a_{i-1} ... a_{i-d+1} for code
    d <= i, and a_i ... a_2 a_1^2 for code d = i + 1, so slot i has i + 2
    admissible codes and the monomial count is 3 * 4 * ... * n = n!/2.
    """

    code: tuple[int, ...]

    def __post_init__(self):
        code = tuple(int(d) for d in self.code)
        object.__setattr__(self, "code", code)
        for pos, d in enumerate(code):
            i = pos + 1
            if not 0 <= d <= i + 1:
                raise ValueError(f"slot {i} code {d} out of range 0..{i + 1}")

    def letters(self) -> tuple[int, ...]:
        out = []
        for pos, d in enumerate(self.code):
            i = pos + 1
            if d <= i:
                out.extend(range(i, i - d, -1))
            else:
                out.extend(range(i, 0, -1))
                out.append(1)
        return tuple(out)


def enumerate_normal_monomials(n: int) -> list[NormalFormMonomial]:
    """All normal-form monomial codes for A_n(q), lexicographically."""
    if n < 2:
        raise ValueError("enumerate_normal_monomials needs n >= 2")
    ranges = [range(i + 2) for i in range(1, n - 1)]
    return [NormalFormMonomial(code) for code in itertools.product(*ranges)]


@dataclass(frozen=True)
class NormalFormCombination:
    """Exact linear combination of normal-form monomials.

    u_terms maps monomial codes to the engine's coefficients, nonzero
    integer polynomials in u = c^2, so equal combinations have equal
    fields.  terms holds the same coefficients as canonical
    RationalFunctions, built on first use.
    """

    n: int
    u_terms: dict[tuple[int, ...], tuple]

    @cached_property
    def terms(self) -> dict[tuple[int, ...], RationalFunction]:
        return {code: _u_to_rf(p) for code, p in self.u_terms.items()}

    def sorted_terms(self) -> list[tuple[tuple[int, ...], RationalFunction]]:
        return sorted(self.terms.items())


# ---------------------------------------------------------------------------
# the rewriting engine

# Right multiplication of a normal monomial by one generator, memoized.
# A monomial is its code tuple; a combination is a dict code -> u-poly.
_RMUL_CACHE: dict[tuple[tuple[int, ...], int], tuple] = {}


def _comb_rmul(comb: dict, j: int) -> dict:
    # the walk's hot loop: _merge with _add_into inlined
    out: dict = {}
    get = out.get
    for code, p in comb.items():
        for key, r in _rmul(code, j):
            term = _u_mul(r, p)
            cur = get(key)
            if cur is None:
                out[key] = term
            elif total := _u_add(cur, term):
                out[key] = total
            else:
                del out[key]
    return out


def _comb_rmul_word(comb: dict, letters: Iterable[int]) -> dict:
    for j in letters:
        comb = _comb_rmul(comb, j)
    return comb


def _comb_rmul_inv1(comb: dict) -> dict:
    # right multiplication by a_1^{-1} = a_1^2 + c^2 a_1 - c^2
    once = _comb_rmul(comb, 1)
    out = _comb_rmul(once, 1)
    _merge(out, once, _U)
    _merge(out, comb, _u_neg(_U))
    return out


def _with_slot(items, d: int) -> dict:
    return {code + (d,): p for code, p in items}


def _rmul(code: tuple[int, ...], j: int):
    key = (code, j)
    hit = _RMUL_CACHE.get(key)
    if hit is None:
        hit = tuple(sorted(_rmul_compute(code, j).items()))
        _RMUL_CACHE[key] = hit
    return hit


def _rmul_compute(code: tuple[int, ...], j: int) -> dict:
    m = len(code)
    if not 1 <= j <= m:
        raise ValueError(f"letter {j} out of range for {m} slots")
    d = code[-1]
    if m == 1:
        # slot 1 holds a_1^d with d in {0, 1, 2}; the only letter is a_1,
        # and a_1^3 = 1 + c^2 a_1 - c^2 a_1^2
        if d == 0:
            return {(1,): _UONE}
        if d == 1:
            return {(2,): _UONE}
        return {(0,): _UONE, (1,): _U, (2,): _u_neg(_U)}
    prefix = code[:-1]
    if d == 0:
        if j == m:
            return {prefix + (1,): _UONE}
        return _with_slot(_rmul(prefix, j), 0)
    if d <= m - 1:
        # slot m holds the run a_m a_{m-1} ... a_t with t = m - d + 1 >= 2
        t = m - d + 1
        if j == t - 1:
            return {prefix + (d + 1,): _UONE}
        if j == t:
            # a_t is involutive (t >= 2), so the run loses its last letter
            return {prefix + (d - 1,): _UONE}
        if j < t - 1:
            if j >= 2 or d % 2 == 0:
                # the letter commutes past the whole run (a_1 flips once per
                # letter and an even run length leaves it uninverted)
                return _with_slot(_rmul(prefix, j), d)
            return _with_slot(_comb_rmul_inv1({prefix: _UONE}).items(), d)
        # t + 1 <= j <= m: braid step against the run letter a_j, using
        # a_j a_{j-1} a_j = a_{j-1} a_j a_{j-1} - c^2 (a_j - a_{j-1})
        tail = tuple(range(j - 2, t - 1, -1))
        out: dict = {}
        _merge(out, _with_slot(_rmul(prefix, j - 1), d), _UONE)
        mid = _comb_rmul_word({prefix + (m - j + 1,): _UONE}, tail)
        _merge(out, mid, _u_neg(_U))
        low = _comb_rmul_word(_with_slot(_rmul(prefix, j - 1), m - j), tail)
        _merge(out, low, _U)
        return out
    if d == m:
        # the run is a_m ... a_2 a_1
        if j == 1:
            return {prefix + (m + 1,): _UONE}
        if j == 2:
            # a_2 a_1 a_2 = a_1^{-1} a_2 a_1^{-1} - c^2 (a_2 - a_1^{-1});
            # the leading a_1^{-1} flips m - 2 times moving past the run
            inverted = (m - 1) % 2 == 1
            pa = (_comb_rmul_inv1({prefix: _UONE}) if inverted
                  else _comb_rmul({prefix: _UONE}, 1))
            out = _comb_rmul_inv1(_with_slot(pa.items(), m - 1))
            _merge(out, {prefix + (m - 1,): _UONE}, _u_neg(_U))
            _merge(out, _with_slot(pa.items(), m - 2), _U)
            return out
        # 3 <= j <= m: as in the braid step, but the run's trailing a_1
        # moves right past a_j and comes back inverted
        tail = tuple(range(j - 2, 1, -1))
        out = {}
        top = _with_slot(_rmul(prefix, j - 1), m - 1)
        _merge(out, _comb_rmul_inv1(top), _UONE)
        mid = _comb_rmul_word({prefix + (m - j + 1,): _UONE}, tail)
        _merge(out, _comb_rmul_inv1(mid), _u_neg(_U))
        low = _comb_rmul_word(_with_slot(_rmul(prefix, j - 1), m - j), tail)
        _merge(out, _comb_rmul_inv1(low), _U)
        return out
    # d == m + 1: the run is a_m ... a_2 a_1^2
    if j == 1:
        return {prefix + (m - 1,): _UONE, prefix + (m,): _U,
                prefix + (m + 1,): _u_neg(_U)}
    if j == 2:
        # a_2 a_1^2 a_2 = a_1 a_2 a_1 + c^2 (a_1 - a_2) - c^2 (a_2 a_1 a_2 - 1);
        # the leading a_1 flips m - 2 times moving past the run
        inverted = m % 2 == 1
        pa = (_comb_rmul_inv1({prefix: _UONE}) if inverted
              else _comb_rmul({prefix: _UONE}, 1))
        out = {}
        _merge(out, _with_slot(pa.items(), m), _UONE)
        _merge(out, _with_slot(pa.items(), m - 2), _U)
        _merge(out, {prefix + (m - 1,): _UONE}, _u_neg(_U))
        _merge(out, _comb_rmul({prefix + (m,): _UONE}, 2), _u_neg(_U))
        _merge(out, {prefix + (m - 2,): _UONE}, _U)
        return out
    # 3 <= j <= m: a_1^2 a_j = a_j a_1^{-2}
    core = _comb_rmul({prefix + (m - 1,): _UONE}, j)
    return _comb_rmul_inv1(_comb_rmul_inv1(core))


def _merge(dst: dict, items, scale: tuple) -> None:
    """Add scale times each (code, u-poly) of items into dst."""
    pairs = items.items() if isinstance(items, dict) else items
    for code, p in pairs:
        _add_into(dst, code, _u_mul(p, scale))


def _rewrite_letters_u(letters: Sequence[int], n: int) -> dict:
    """Engine-level rewrite over Z[u]: word in a-letters to normal form."""
    if n < 2:
        raise ValueError("rewrite needs n >= 2")
    for letter in letters:
        if not 1 <= letter <= n - 2:
            raise ValueError(f"letter {letter} out of range for n = {n}")
    comb = {(0,) * (n - 2): _UONE}
    return _comb_rmul_word(comb, letters)


# ---------------------------------------------------------------------------
# public rewriting interface

@dataclass(frozen=True)
class YWord:
    """Word in the even-subalgebra generators, letters in 1..n-2."""

    letters: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "letters",
                           tuple(int(v) for v in self.letters))


def parse_y_word(text: str) -> YWord:
    """Parse a word like "y1 y2 y1" (bare indices are also accepted)."""
    letters = []
    for token in text.split():
        tok = token.lower()
        if tok.startswith("y"):
            tok = tok[1:]
        try:
            letters.append(int(tok))
        except ValueError:
            raise ValueError(f"cannot parse word letter {token!r}") from None
    if any(v < 1 for v in letters):
        raise ValueError("word letters must be >= 1")
    return YWord(tuple(letters))


def rewrite_y_word(word, n: int) -> NormalFormCombination:
    """Reduce a word in the generators onto the normal-form basis.

    The result is exact.  Every coefficient is p(c^2) for an integer
    polynomial p, kept as p in u_terms; terms hands it out as the element
    of Z[q, 1/(q+1)] with denominator (q+1)^(2 deg p), a canonical
    RationalFunction.
    """
    letters = word.letters if isinstance(word, YWord) else tuple(word)
    return NormalFormCombination(n, _rewrite_letters_u(letters, n))


# ---------------------------------------------------------------------------
# exact relation checks

def verify_presentation_relations(n: int) -> dict:
    """Reduce every defining relation of A_n(q) to zero, exactly.

    Returns a report listing one entry per relation instance with the
    number of surviving terms (all must be zero for pass).
    """
    if n < 3:
        raise ValueError("verify_presentation_relations needs n >= 3")

    def unit() -> dict:
        return {(0,) * (n - 2): _UONE}

    def residual_of(lhs: dict, rhs: dict) -> dict:
        out = dict(lhs)
        _merge(out, rhs, (-1,))
        return out

    relations = []

    def record(name: str, residual: dict) -> None:
        nonzero = {code: p for code, p in residual.items() if p}
        entry = {"relation": name, "residual_terms": len(nonzero),
                 "pass": not nonzero}
        if nonzero:
            entry["residual"] = {
                str(code): str(_u_to_rf(p)) for code, p in sorted(nonzero.items())}
        relations.append(entry)

    # a_1^3 + c^2 (a_1^2 - a_1) - 1 = 0
    r = _rewrite_letters_u([1, 1, 1], n)
    _merge(r, _rewrite_letters_u([1, 1], n), _U)
    _merge(r, _rewrite_letters_u([1], n), _u_neg(_U))
    record("cubic(a1)", residual_of(r, unit()))

    # a_i^2 = 1 for i >= 2
    for i in range(2, n - 1):
        record(f"involution(a{i})",
               residual_of(_rewrite_letters_u([i, i], n), unit()))

    # (a_{i-1} a_i)^3 + c^2 ((a_{i-1} a_i)^2 - a_{i-1} a_i) - 1 = 0
    for i in range(2, n - 1):
        pair = [i - 1, i]
        r = _rewrite_letters_u(pair * 3, n)
        _merge(r, _rewrite_letters_u(pair * 2, n), _U)
        _merge(r, _rewrite_letters_u(pair, n), _u_neg(_U))
        record(f"pair_cubic(a{i - 1},a{i})", residual_of(r, unit()))

    # (a_i a_j)^2 = 1 for |i - j| > 1
    for i in range(1, n - 1):
        for j in range(i + 2, n - 1):
            record(f"distant_square(a{i},a{j})",
                   residual_of(_rewrite_letters_u([i, j, i, j], n), unit()))

    return {"n": n, "relations": relations,
            "pass": all(entry["pass"] for entry in relations)}


# ---------------------------------------------------------------------------
# exact Hecke algebra elements in the T_w basis

class HeckeElement:
    """Exact element of H_n(q) in the T_w basis, over Z[q, 1/(q+1)].

    terms maps one-line permutations w to integer polynomials in q (tuples
    as in the engine, never zero), all over the one denominator
    (q+1)^exp, so the coefficient of T_w is terms[w]/(q+1)^exp and the
    ring arithmetic below runs on integers alone.
    """

    __slots__ = ("n", "terms", "exp")

    def __init__(self, n: int, terms: dict | None = None, exp: int = 0):
        self.n = n
        self.exp = exp
        self.terms: dict[tuple[int, ...], tuple] = \
            {w: c for w, c in terms.items() if c} if terms else {}

    @staticmethod
    def unit(n: int) -> "HeckeElement":
        return HeckeElement(n, {tuple(range(1, n + 1)): _UONE})

    def _combine(self, other: "HeckeElement", sign: int) -> "HeckeElement":
        # self + sign * other, over the larger of the two denominators
        exp = max(self.exp, other.exp)
        lift_a = _q_plus_one_power(exp - self.exp)
        lift_b = _u_mul(_q_plus_one_power(exp - other.exp), (sign,))
        terms = {w: _u_mul(c, lift_a) for w, c in self.terms.items()}
        for w, c in other.terms.items():
            _add_into(terms, w, _u_mul(c, lift_b))
        return HeckeElement(self.n, terms, exp)

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        return self._combine(other, 1)

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return self._combine(other, -1)

    def scale(self, factor: RationalFunction) -> "HeckeElement":
        """Multiply by a RationalFunction whose denominator is a power of
        (q+1); any other denominator lies outside the ring."""
        den = factor.den.coeffs
        if den != _q_plus_one_power(len(den) - 1):
            raise ValueError(f"scale factor {factor} has a denominator that "
                             f"is not a power of (q+1)")
        num = factor.num.coeffs
        return HeckeElement(self.n,
                            {w: _u_mul(c, num) for w, c in self.terms.items()},
                            self.exp + len(den) - 1)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def rmul_g(self, i: int) -> "HeckeElement":
        """Right multiplication by the generator g_i.

        T_w g_i is T_{w s_i} when w(i) < w(i+1), and otherwise
        (q - 1) T_w + q T_{w s_i}.
        """
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"generator index {i} out of range")
        terms: dict = {}
        for w, c in self.terms.items():
            ws = _swap(w, i)
            if w[i - 1] < w[i]:
                _add_into(terms, ws, c)
            else:
                qc = _u_shift(c)
                _add_into(terms, w, _u_add(qc, _u_neg(c)))
                _add_into(terms, ws, qc)
        return HeckeElement(self.n, terms, self.exp)

    def rmul_f(self, i: int) -> "HeckeElement":
        """Right multiplication by f_i = (2 g_i - (q - 1))/(q + 1)."""
        terms = {w: tuple(2 * x for x in c)
                 for w, c in self.rmul_g(i).terms.items()}
        for w, c in self.terms.items():
            _add_into(terms, w, _u_mul(c, (1, -1)))     # (1 - q) c
        return HeckeElement(self.n, terms, self.exp + 1)


def _swap(w: tuple[int, ...], i: int) -> tuple[int, ...]:
    # w s_i in one-line form: the entries at positions i and i+1 trade places
    return w[:i - 1] + (w[i], w[i - 1]) + w[i + 1:]


def _add_into(terms: dict, w, c: tuple) -> None:
    # terms[w] += c, dropping a key whose sum is zero
    cur = terms.get(w)
    total = c if cur is None else _u_add(cur, c)
    if total:
        terms[w] = total
    else:
        terms.pop(w, None)


def _f_word(n: int, letters: Sequence[int]) -> HeckeElement:
    acc = HeckeElement.unit(n)
    for i in letters:
        acc = acc.rmul_f(i)
    return acc


def hecke_f_relation_check_exact(n: int) -> dict:
    """Exact verification of the f-generator relations inside H_n(q).

    Expands every f-word in the T_w basis over Z[q, 1/(q+1)] and checks:
    f_i^2 = 1; the corrected braid relation
    f_i f_{i+1} f_i - f_{i+1} f_i f_{i+1} = c^2 (f_{i+1} - f_i); and
    commutation of distant pairs.
    """
    if n < 3:
        raise ValueError("hecke_f_relation_check_exact needs n >= 3")
    c2 = c_squared()
    checks = []

    def record(name: str, residual: HeckeElement) -> None:
        checks.append({"relation": name,
                       "residual_terms": len(residual.terms),
                       "pass": residual.is_zero})

    for i in range(1, n):
        record(f"involution(f{i})",
               _f_word(n, [i, i]) - HeckeElement.unit(n))
    for i in range(1, n - 1):
        lhs = _f_word(n, [i, i + 1, i]) - _f_word(n, [i + 1, i, i + 1])
        rhs = (_f_word(n, [i + 1]) - _f_word(n, [i])).scale(c2)
        record(f"twisted_braid(f{i},f{i + 1})", lhs - rhs)
    for i in range(1, n):
        for j in range(i + 2, n):
            record(f"commute(f{i},f{j})",
                   _f_word(n, [i, j]) - _f_word(n, [j, i]))

    return {"n": n, "relations": checks,
            "pass": all(entry["pass"] for entry in checks)}
