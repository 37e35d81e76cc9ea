"""Words, permutations and products the package does not need, as a
reference for the tests.

- `Permutation`, `normal_reduced_expression`, `uword_to_permutation` and
  `uword_letters`: the symmetric group in one-line form and the descent
  vectors of word_algebra.UWord as words in the s_i, the oracle of
  `enumerate_even_uwords` and a source of cycle types.
- `evaluate_word`: the image of a word in the generator matrices of a
  representation, one product per letter.
- `rewrite_combination` and `multiply_normal_forms`: re-reduction and
  products of normal-form combinations by the rewriting engine, for its
  idempotence and associativity tests.
- `ring_to_rf` and `coefficient`: a coefficient num/(q+1)^e of the ring
  Z[q, 1/(q+1)], and so of a HeckeElement, in canonical form.
"""

import math
from dataclasses import dataclass

import numpy as np

from qalt.scalars import Polynomial, RationalFunction
from qalt.word_algebra import (
    NormalFormCombination,
    NormalFormMonomial,
    UWord,
    _comb_rmul_word,
    _merge,
    _rewrite_letters_u,
    _u_mul,
)


# -- permutations and descent words --------------------------------------------

@dataclass(frozen=True)
class Permutation:
    """Permutation of 1..n in one-line form: images[k-1] = sigma(k)."""

    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(int(v) for v in self.images)
        object.__setattr__(self, "images", images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError("images must be a bijection on 1..n")

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @staticmethod
    def adjacent_transposition(n: int, i: int) -> "Permutation":
        if not 1 <= i <= n - 1:
            raise ValueError(f"transposition index {i} out of range")
        images = list(range(1, n + 1))
        images[i - 1], images[i] = images[i], images[i - 1]
        return Permutation(tuple(images))

    @property
    def n(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        # composition of maps: (self * other)(k) = self(other(k))
        return Permutation(tuple(self.images[v - 1] for v in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for k, v in enumerate(self.images, start=1):
            inv[v - 1] = k
        return Permutation(tuple(inv))

    def length(self) -> int:
        """Coxeter length: the inversion count."""
        im = self.images
        return sum(1 for a in range(len(im)) for b in range(a + 1, len(im))
                   if im[a] > im[b])


def uword_letters(word: UWord) -> tuple[int, ...]:
    """The normal word U_2 U_3 ... U_n of a descent vector: stage i is the
    descending run of generator indices i-1, i-2, ..., i-d_i."""
    out = []
    for pos, d in enumerate(word.descents):
        i = pos + 2
        out.extend(range(i - 1, i - 1 - d, -1))
    return tuple(out)


def normal_reduced_expression(sigma: Permutation) -> UWord:
    """The descent vector of a permutation.

    d_i counts the entries smaller than i that appear to the right of i in
    the one-line form; stringing the stage words together gives a reduced
    expression, and the map is a bijection onto descent vectors.
    """
    im = sigma.images
    ds = []
    for i in range(2, sigma.n + 1):
        k = im.index(i)
        ds.append(sum(1 for j in range(k + 1, sigma.n) if im[j] < i))
    return UWord(tuple(ds))


def uword_to_permutation(word: UWord) -> Permutation:
    n = len(word.descents) + 1
    acc = Permutation.identity(n)
    for letter in uword_letters(word):
        acc = acc * Permutation.adjacent_transposition(n, letter)
    return acc


# -- matrix images ----------------------------------------------------------------

def evaluate_word(rep, word) -> np.ndarray:
    """Ordered product of generator matrices; the empty word is identity."""
    dtype = rep.generator_matrices[0].dtype if rep.generator_matrices \
        else np.float64
    acc = np.eye(rep.dim, dtype=dtype)
    for i in word:
        if not 1 <= i <= rep.n - 1:
            raise ValueError(f"generator index {i} out of range for n = {rep.n}")
        acc = acc @ rep.generator_matrices[i - 1]
    return acc


# -- normal-form combinations ---------------------------------------------------

def rewrite_combination(comb: NormalFormCombination) -> NormalFormCombination:
    """Re-reduce a combination monomial by monomial (idempotence check)."""
    out: dict = {}
    for code, p in comb.u_terms.items():
        letters = NormalFormMonomial(code).letters()
        _merge(out, _rewrite_letters_u(letters, comb.n), p)
    return NormalFormCombination(comb.n, out)


def multiply_normal_forms(a: NormalFormCombination,
                          b: NormalFormCombination) -> NormalFormCombination:
    """Exact product in A_n(q): rewrite the concatenation of the factors."""
    if a.n != b.n:
        raise ValueError("mixed n in multiplication")
    terms: dict = {}
    for code_b, p_b in b.u_terms.items():
        letters = NormalFormMonomial(code_b).letters()
        for code_a, p_a in a.u_terms.items():
            image = _comb_rmul_word({code_a: (1,)}, letters)
            _merge(terms, image, _u_mul(p_a, p_b))
    return NormalFormCombination(a.n, terms)


# -- the coefficient ring Z[q, 1/(q+1)] -------------------------------------------

def ring_to_rf(num: tuple, e: int) -> RationalFunction:
    """Canonical num/(q+1)^e: divide num by (q+1) while q = -1 is a root."""
    if not num:
        e = 0
    while e:
        # synthetic division by q + 1, highest coefficient first
        quot = [0] * (len(num) - 1)
        carry = 0
        for k in range(len(num) - 1, 0, -1):
            carry = num[k] - carry
            quot[k - 1] = carry
        if num[0] != carry:         # nonzero remainder num(-1)
            break
        num, e = tuple(quot), e - 1
    return RationalFunction(Polynomial(num), Polynomial(
        tuple(math.comb(e, k) for k in range(e + 1))))


def coefficient(element, w) -> RationalFunction:
    """The coefficient of T_w in a HeckeElement, in canonical form."""
    return ring_to_rf(element.terms.get(tuple(w), ()), element.exp)
