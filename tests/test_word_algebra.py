"""Tests for the even-subalgebra rewriting engine and the exact Hecke layer.

The load-bearing oracle: every word in the generators a_i = f_1 f_{i+1} has
an exact image in the Hecke algebra's T_w basis, computed by a calculus
that shares nothing with the rewriting engine.  Rewriting a word and then
mapping the normal form into the Hecke algebra must reproduce that image
coefficient for coefficient.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qalt import word_algebra
from qalt.scalars import RationalFunction
from qalt.word_algebra import (
    HeckeElement,
    NormalFormCombination,
    NormalFormMonomial,
    Permutation,
    UWord,
    c_squared,
    enumerate_even_uwords,
    enumerate_normal_monomials,
    hecke_f_relation_check_exact,
    multiply_normal_forms,
    normal_reduced_expression,
    parse_y_word,
    rewrite_combination,
    rewrite_y_word,
    uword_to_permutation,
    verify_presentation_relations,
)


# -- permutations and descent words --------------------------------------------

def test_permutation_composition_order():
    s1 = Permutation.adjacent_transposition(3, 1)
    s2 = Permutation.adjacent_transposition(3, 2)
    # maps compose right to left: (s1 * s2)(2) = s1(s2(2)) = s1(3) = 3
    assert (s1 * s2).images == (2, 3, 1)
    assert (s2 * s1).images == (3, 1, 2)


def test_permutation_inverse_and_length():
    w = Permutation((3, 1, 2))
    assert (w * w.inverse()).images == (1, 2, 3)
    assert w.length() == 2
    assert Permutation.identity(4).length() == 0
    assert Permutation((4, 3, 2, 1)).length() == 6


def test_descent_vector_known_example():
    assert normal_reduced_expression(Permutation((3, 1, 2))).descents == (0, 2)


def test_descent_vector_bijection():
    for n in range(2, 6):
        seen = set()
        for images in itertools.permutations(range(1, n + 1)):
            sigma = Permutation(images)
            word = normal_reduced_expression(sigma)
            assert uword_to_permutation(word) == sigma
            # the stage word string is a reduced expression
            assert word.length() == sigma.length()
            seen.add(word.descents)
        assert len(seen) == math.factorial(n)


def test_uword_letters_layout():
    word = UWord((1, 2, 0, 3))
    assert word.letters() == (1, 2, 1, 4, 3, 2)
    with pytest.raises(ValueError):
        UWord((2,))


def test_enumerate_even_uwords_counts_and_parity():
    for n in range(2, 7):
        words = enumerate_even_uwords(n)
        assert len(words) == math.factorial(n) // 2
        assert all(w.length() % 2 == 0 for w in words)
        perms = {uword_to_permutation(w).images for w in words}
        assert len(perms) == len(words)


# -- normal-form monomials -------------------------------------------------------

def test_monomial_counts():
    for n in range(2, 9):
        assert len(enumerate_normal_monomials(n)) == math.factorial(n) // 2


def test_monomial_letters_layout():
    assert NormalFormMonomial((0, 0)).letters() == ()
    assert NormalFormMonomial((1, 0)).letters() == (1,)
    assert NormalFormMonomial((2, 0)).letters() == (1, 1)
    assert NormalFormMonomial((0, 3)).letters() == (2, 1, 1)
    assert NormalFormMonomial((2, 2)).letters() == (1, 1, 2, 1)
    with pytest.raises(ValueError):
        NormalFormMonomial((3, 0))


def test_monomials_are_rewrite_fixed_points():
    for n in (3, 4, 5):
        for mono in enumerate_normal_monomials(n):
            comb = rewrite_y_word(mono.letters(), n)
            assert comb.sorted_terms() == [(mono.code, RationalFunction.one())]


# -- rewriting ---------------------------------------------------------------------

def test_cubic_relation_expansion():
    # a_1^3 = 1 + c^2 a_1 - c^2 a_1^2
    comb = rewrite_y_word([1, 1, 1], 4)
    c2 = c_squared()
    assert comb.terms == {(0, 0): RationalFunction.one(),
                          (1, 0): c2, (2, 0): -c2}


def test_involution_relation():
    comb = rewrite_y_word([2, 2], 4)
    assert comb == NormalFormCombination.unit(4)


def test_rewrite_rejects_bad_letters():
    with pytest.raises(ValueError):
        rewrite_y_word([1], 2)
    with pytest.raises(ValueError):
        rewrite_y_word([3], 4)


def test_presentation_relations_reduce_to_zero():
    for n in (3, 4, 5):
        report = verify_presentation_relations(n)
        assert report["pass"], report
        assert all(entry["residual_terms"] == 0 for entry in report["relations"])
    assert len(verify_presentation_relations(3)["relations"]) == 1
    assert len(verify_presentation_relations(5)["relations"]) == 6


# -- the Hecke-algebra oracle ---------------------------------------------------

def f_word_element(n, letters):
    acc = HeckeElement.unit(n)
    for i in letters:
        acc = acc.rmul_f(i)
    return acc


def y_word_as_hecke(letters, n):
    # a_i = f_1 f_{i+1}
    flat = []
    for letter in letters:
        flat.extend((1, letter + 1))
    return f_word_element(n, flat)


def combination_as_hecke(comb):
    acc = HeckeElement(comb.n)
    for code, coeff in comb.terms.items():
        mono = y_word_as_hecke(NormalFormMonomial(code).letters(), comb.n)
        acc = acc + mono.scale(coeff)
    return acc


def test_hecke_quadratic_and_braid():
    q = RationalFunction.q()
    for n in (3, 4):
        for i in range(1, n):
            gi = HeckeElement.unit(n).rmul_g(i)
            lhs = gi.rmul_g(i)
            rhs = gi.scale(q - 1) + HeckeElement.unit(n).scale(q)
            assert (lhs - rhs).is_zero
        for i in range(1, n - 1):
            a = HeckeElement.unit(n).rmul_g(i).rmul_g(i + 1).rmul_g(i)
            b = HeckeElement.unit(n).rmul_g(i + 1).rmul_g(i).rmul_g(i + 1)
            assert (a - b).is_zero


def test_hecke_f_relations_exact():
    for n in (3, 4):
        report = hecke_f_relation_check_exact(n)
        assert report["pass"], report


# -- the coefficient ring Z[q, 1/(q+1)] -----------------------------------------

def test_u_to_rf_matches_powers_of_c_squared():
    # oracle: sum_j a_j (c^2)^j in gcd-reduced RationalFunction arithmetic
    rng = np.random.default_rng(5)
    c2 = c_squared()
    polys = [(), (0,), (0, 0, 0), (3,), (0, 0, 1), (1, -1, 0, 0)]
    for _ in range(120):
        p = rng.integers(-4, 5, int(rng.integers(1, 9)))
        p[:int(rng.integers(0, 3))] = 0         # zero low coefficients
        polys.append(tuple(int(a) for a in p))  # and often a zero top one
    for p in polys:
        oracle = RationalFunction.zero()
        for j, a in enumerate(p):
            oracle = oracle + c2 ** j * a
        got = word_algebra._u_to_rf(p)
        assert (got.num, got.den) == (oracle.num, oracle.den), p


class RationalHecke:
    """T-basis element with RationalFunction coefficients, the reference
    for HeckeElement's integer arithmetic."""

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {w: c for w, c in (terms or {}).items() if not c.is_zero}

    @staticmethod
    def unit(n):
        identity = tuple(range(1, n + 1))
        return RationalHecke(n, {identity: RationalFunction.one()})

    def _plus(self, other, sign):
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, RationalFunction.zero()) + c * sign
        return RationalHecke(self.n, terms)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def scale(self, factor):
        return RationalHecke(self.n,
                             {w: c * factor for w, c in self.terms.items()})

    def rmul_g(self, i):
        q = RationalFunction.q()
        out = RationalHecke(self.n)
        for w, c in self.terms.items():
            ws = list(w)
            ws[i - 1], ws[i] = ws[i], ws[i - 1]
            if w[i - 1] < w[i]:
                part = {tuple(ws): c}
            else:
                part = {w: c * (q - 1), tuple(ws): c * q}
            out = out + RationalHecke(self.n, part)
        return out

    def rmul_f(self, i):
        q = RationalFunction.q()
        return (self.rmul_g(i).scale(RationalFunction(2)) - self.scale(q - 1)) \
            .scale(1 / (q + 1))


def _scale_factors():
    q = RationalFunction.q()
    return (c_squared(), q - 1, (q ** 2 + 3) / (q + 1) ** 3,
            RationalFunction(Fraction(-3, 2)), RationalFunction.zero())


@st.composite
def hecke_programs(draw):
    n = draw(st.integers(min_value=3, max_value=4))
    steps = draw(st.lists(
        st.one_of(
            st.tuples(st.sampled_from(["g", "f"]),
                      st.integers(min_value=1, max_value=n - 1)),
            st.tuples(st.just("scale"),
                      st.integers(0, len(_scale_factors()) - 1)),
            st.tuples(st.sampled_from(["add", "sub"]),
                      st.lists(st.integers(min_value=1, max_value=n - 1),
                               max_size=4))),
        max_size=10))
    return n, steps


@given(hecke_programs())
@settings(max_examples=80, deadline=None)
def test_hecke_ring_arithmetic_matches_rational_functions(case):
    n, steps = case
    got, ref = HeckeElement.unit(n), RationalHecke.unit(n)
    for op, arg in steps:
        if op == "g":
            got, ref = got.rmul_g(arg), ref.rmul_g(arg)
        elif op == "f":
            got, ref = got.rmul_f(arg), ref.rmul_f(arg)
        elif op == "scale":
            factor = _scale_factors()[arg]
            got, ref = got.scale(factor), ref.scale(factor)
        else:
            other, other_ref = HeckeElement.unit(n), RationalHecke.unit(n)
            for i in arg:
                other, other_ref = other.rmul_f(i), other_ref.rmul_f(i)
            if op == "add":
                got, ref = got + other, ref + other_ref
            else:
                got, ref = got - other, ref - other_ref
    assert set(got.terms) == set(ref.terms)
    assert got.is_zero == (not ref.terms)
    for w in itertools.permutations(range(1, n + 1)):
        expected = ref.terms.get(w, RationalFunction.zero())
        coeff = got.coefficient(w)
        assert (coeff.num, coeff.den) == (expected.num, expected.den)


def test_hecke_scale_needs_a_power_of_q_plus_one():
    q = RationalFunction.q()
    unit = HeckeElement.unit(3)
    for factor in (1 / q, 1 / (q + 2), 1 / (q ** 2 + 1), (q + 1) / (q - 1)):
        with pytest.raises(ValueError, match="not a power of"):
            unit.scale(factor)
    scaled = unit.scale(Fraction(1, 3) / (q + 1) ** 2)
    assert scaled.coefficient((1, 2, 3)) == Fraction(1, 3) / (q + 1) ** 2


@st.composite
def small_y_words(draw):
    n = draw(st.integers(min_value=3, max_value=5))
    letters = draw(st.lists(st.integers(min_value=1, max_value=n - 2),
                            max_size=7))
    return n, letters


@given(small_y_words())
@settings(max_examples=60, deadline=None)
def test_rewrite_matches_hecke_image(case):
    n, letters = case
    direct = y_word_as_hecke(letters, n)
    via_normal_form = combination_as_hecke(rewrite_y_word(letters, n))
    assert (direct - via_normal_form).is_zero


@given(small_y_words())
@settings(max_examples=30, deadline=None)
def test_rewrite_is_idempotent(case):
    n, letters = case
    comb = rewrite_y_word(letters, n)
    assert rewrite_combination(comb) == comb


def test_specialization_at_one_is_permutation_product():
    # at q = 1 the twist vanishes and a word collapses to the single
    # normal monomial representing the same even permutation under
    # a_i -> s_1 s_{i+1}
    for n in (3, 4, 5):
        def perm_of(letters):
            acc = Permutation.identity(n)
            for letter in letters:
                acc = acc * Permutation.adjacent_transposition(n, 1)
                acc = acc * Permutation.adjacent_transposition(n, letter + 1)
            return acc.images

        by_perm = {perm_of(m.letters()): m.code
                   for m in enumerate_normal_monomials(n)}
        assert len(by_perm) == math.factorial(n) // 2
        for letters in ([1], [1, 1], [1, 2, 1], [2, 1, 2, 1], [1, 1, 1, 2]):
            if max(letters) > n - 2:
                continue
            comb = rewrite_y_word(letters, n)
            at_one = {code: coeff.evaluate(Fraction(1))
                      for code, coeff in comb.terms.items()}
            at_one = {code: v for code, v in at_one.items() if v != 0}
            assert at_one == {by_perm[perm_of(letters)]: Fraction(1)}


# -- multiplication ---------------------------------------------------------------

def test_multiply_unit_is_identity():
    for n in (3, 4):
        unit = NormalFormCombination.unit(n)
        for mono in enumerate_normal_monomials(n):
            comb = rewrite_y_word(mono.letters(), n)
            assert multiply_normal_forms(unit, comb) == comb
            assert multiply_normal_forms(comb, unit) == comb


def test_multiply_matches_concatenation():
    for n in (3, 4):
        monos = enumerate_normal_monomials(n)
        for a in monos[:6]:
            for b in monos[:6]:
                left = rewrite_y_word(a.letters(), n)
                right = rewrite_y_word(b.letters(), n)
                prod = multiply_normal_forms(left, right)
                direct = rewrite_y_word(a.letters() + b.letters(), n)
                assert prod == direct


@st.composite
def monomial_triples(draw):
    n = draw(st.integers(min_value=3, max_value=4))
    monos = enumerate_normal_monomials(n)
    picks = draw(st.tuples(*(st.integers(0, len(monos) - 1),) * 3))
    return n, [monos[k] for k in picks]


@given(monomial_triples())
@settings(max_examples=25, deadline=None)
def test_multiplication_associative(case):
    n, (a, b, c) = case
    fa = rewrite_y_word(a.letters(), n)
    fb = rewrite_y_word(b.letters(), n)
    fc = rewrite_y_word(c.letters(), n)
    assert multiply_normal_forms(multiply_normal_forms(fa, fb), fc) == \
        multiply_normal_forms(fa, multiply_normal_forms(fb, fc))


# -- parsing ------------------------------------------------------------------------

def test_parse_y_word():
    assert parse_y_word("y1 y2 y1").letters == (1, 2, 1)
    assert parse_y_word("1 2").letters == (1, 2)
    assert parse_y_word("").letters == ()
    with pytest.raises(ValueError):
        parse_y_word("y0")
    with pytest.raises(ValueError):
        parse_y_word("yx")
