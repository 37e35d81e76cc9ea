"""Tests for the tableau-basis matrix representations."""

import json
import math
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from field_oracle import Q
from rank_oracle import guarded_rank, numeric_rank
from tableau_oracle import position_of, transpose_tableau
from word_oracle import evaluate_word, uword_letters

from qalt import hecke_rep
from qalt.cli import render_json
from qalt.tableaux import (
    YoungDiagram,
    enumerate_diagrams,
    enumerate_standard_tableaux,
    parse_shape,
    transpose,
)
from qalt.hecke_rep import (
    IndeterminateRankError,
    build_representation,
    dimension_certificate,
    representation_to_jsonable,
    sup_norm,
    transpose_witness,
    verify_relations,
)
from qalt.word_algebra import enumerate_even_uwords

SAMPLE_Q = (Fraction(2), Fraction(3, 2), Fraction(5, 7), 0.3, 1.7)
COMPLEX_Q = complex(1, 0.5)


def qint(d, q):
    # independent ladder oracle 1 + q + ... + q^{d-1}
    return sum(q ** k for k in range(d))


def block_oracle(d, q):
    # anchored f-block entries from the regularized formulas
    a = (1 + q ** d) / ((1 + q) * qint(d, q))
    b = 2 * math.sqrt(float(q * qint(d - 1, q) * qint(d + 1, q))) \
        / float((1 + q) * qint(d, q))
    return float(a), b


# -- block structure -----------------------------------------------------------

def old_build_loop(shape, q, form):
    """The matrices of the former per-tableau build loop, which located i
    and i+1 in every tableau and rebuilt each partner's entries, with the
    entry formulas evaluated uncached."""
    qv = None if form == "sym" else hecke_rep._coerce_q(q, shape.n)
    basis = tuple(enumerate_standard_tableaux(shape))
    index = {t.entries: k for k, t in enumerate(basis)}
    use_complex = isinstance(qv, complex) or (qv is not None and qv < 0)
    dtype = np.complex128 if use_complex else np.float64
    cast = complex if use_complex else float
    diagonal = {same_row: cast(hecke_rep._diagonal_entry(same_row, qv, form))
                for same_row in (False, True)}
    matrices = []
    for i in range(1, shape.n):
        mat = np.zeros((len(basis), len(basis)), dtype=dtype)
        for k, t in enumerate(basis):
            (ri, ci), (rj, cj) = position_of(t, i), position_of(t, i + 1)
            if ri == rj or ci == cj:
                mat[k, k] = diagonal[ri == rj]
                continue
            d = (ci - ri) - (cj - rj)
            if d < 0:
                continue
            rows = [list(row) for row in t.entries]
            rows[ri - 1][ci - 1], rows[rj - 1][cj - 1] = i + 1, i
            b = index[tuple(map(tuple, rows))]
            anchor_diag, partner_diag, off = \
                map(cast, hecke_rep._block_entries(d, qv, form))
            mat[k, k], mat[b, b] = anchor_diag, partner_diag
            mat[k, b] = mat[b, k] = off
        matrices.append(mat)
    return basis, matrices


def assert_old_build(rep):
    basis, matrices = old_build_loop(rep.shape, rep.q_value, rep.form)
    assert rep.basis == basis
    assert len(rep.generator_matrices) == len(matrices) == rep.n - 1
    for mat, old in zip(rep.generator_matrices, matrices):
        assert mat.dtype == old.dtype
        assert np.array_equal(mat, old)


@pytest.mark.parametrize("form", hecke_rep.FORMS)
@pytest.mark.parametrize("q", SAMPLE_Q + (COMPLEX_Q, -0.9, 0.5j, Fraction(1),
                                          -0.99))
def test_builder_matches_the_per_entry_reference(form, q):
    # the skeleton fill against the per-tableau loop, every shape n <= 7
    for n in range(1, 8):
        for shape in enumerate_diagrams(n):
            assert_old_build(build_representation(shape, q, form))


@pytest.mark.parametrize("exact, rounded, shape, differ", [
    (Fraction(2), 2.0, "4,2,1", False),
    # the exact d = 6 entries rounded once differ from the float ones
    (Fraction(415, 128), 415 / 128, "6,1", True),
    # == ignores the sign of a zero part; the branch of B does not
    (complex(-2, 0.0), complex(-2, -0.0), "2,1", True),
])
def test_block_value_cache_keeps_equal_q_apart(exact, rounded, shape, differ):
    # whichever q reaches the per-process cache first, each gets its own
    # entries, as the uncached formulas give them
    assert exact == rounded and hash(exact) == hash(rounded)
    shape = parse_shape(shape)
    for order in ((exact, rounded), (rounded, exact)):
        hecke_rep._block_values.cache_clear()
        for q in order:
            assert_old_build(build_representation(shape, q, "f"))
    old = [old_build_loop(shape, q, "f")[1] for q in (exact, rounded)]
    assert all(map(np.array_equal, *old)) is not differ


def test_skeleton_is_read_only_and_built_once():
    shape = parse_shape("3,2,1")
    skeleton = hecke_rep._skeleton(shape)
    rep = build_representation(shape, Fraction(2), "f")
    assert hecke_rep._skeleton(shape) is skeleton
    assert rep.basis is skeleton.basis
    index, signs = transpose_witness(rep, rep)
    arrays = (skeleton.same_row, skeleton.same_column, skeleton.blocks,
              skeleton.distance_index, index, signs) + rep.generator_matrices
    for array in arrays:
        assert array.size
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 0


def test_skeleton_branches_are_the_restrictions():
    # deleting n from the k-th tableau gives mu's i-th tableau exactly
    # when k = start + i in mu's branch
    assert hecke_rep._skeleton(parse_shape("1")).branches == ()
    for n in range(2, 8):
        for shape in enumerate_diagrams(n):
            skeleton = hecke_rep._skeleton(shape)
            expected = []
            for k, t in enumerate(skeleton.basis):
                entries = tuple(filter(None, (tuple(v for v in row if v != n)
                                              for row in t.entries)))
                mu = YoungDiagram(tuple(map(len, entries)))
                basis = [u.entries for u in enumerate_standard_tableaux(mu)]
                expected.append((k, mu, basis.index(entries)))
            assert [(k, mu, k - start)
                    for mu, start, stop in skeleton.branches
                    for k in range(start, stop)] == expected


def test_one_row_shape_is_trivial():
    rep = build_representation(parse_shape("4"), Fraction(2), "f")
    for m in rep.generator_matrices:
        assert m.shape == (1, 1) and m[0, 0] == 1.0


def test_one_column_shape_is_sign():
    rep = build_representation(parse_shape("1,1,1,1"), Fraction(2), "f")
    for m in rep.generator_matrices:
        assert m.shape == (1, 1) and m[0, 0] == -1.0


@pytest.mark.parametrize("q", [Fraction(2), Fraction(3, 2), Fraction(5, 7), 1.7])
def test_two_one_block_matches_oracle(q):
    # basis order is (1,3/2), (1,2/3); the anchor (d=2) is the second
    rep = build_representation(parse_shape("2,1"), q, "f")
    a, b = block_oracle(2, q)
    expected = np.array([[a, b], [b, -a]])
    assert sup_norm(rep.generator_matrices[1] - expected) < 1e-14
    assert sup_norm(rep.generator_matrices[0] - np.diag([-1.0, 1.0])) < 1e-14


def test_block_entry_identity_exact():
    # (1+q^d)^2 + 4 q [d-1][d+1] = ((1+q)[d])^2, the exact form of A^2+B^2=1
    q = Q.q()
    for d in range(2, 7):
        lhs = (1 + q ** d) ** 2 + 4 * q * qint(d - 1, q) * qint(d + 1, q)
        rhs = ((1 + q) * qint(d, q)) ** 2
        assert lhs == rhs


@pytest.mark.parametrize("q", SAMPLE_Q)
def test_block_is_involution_numeric(q):
    for d in range(2, 7):
        a, b = block_oracle(d, q)
        assert abs(a * a + b * b - 1.0) < 1e-12


# -- relations -----------------------------------------------------------------

@pytest.mark.parametrize("q", SAMPLE_Q)
def test_f_form_relations_all_shapes(q):
    for n in (3, 4, 5):
        for shape in enumerate_diagrams(n):
            report = verify_relations(build_representation(shape, q, "f"))
            assert report["pass"], report
            assert report["max_residual"] < 1e-10


def test_g_form_relations():
    for shape in enumerate_diagrams(4):
        rep = build_representation(shape, Fraction(3, 2), "g")
        report = verify_relations(rep)
        assert report["pass"], report
        assert set(report["residuals"]) == {"quadratic", "braid", "commuting"}


def test_sym_form_relations():
    for shape in enumerate_diagrams(5):
        report = verify_relations(build_representation(shape, None, "sym"))
        assert report["pass"], report


def test_complex_and_negative_q():
    for q in (1.0 + 0.5j, -2.0, Fraction(-3)):
        rep = build_representation(parse_shape("3,1"), q, "f")
        assert rep.generator_matrices[0].dtype == np.complex128
        assert verify_relations(rep)["pass"]


def test_f_spectrum_is_plus_minus_one():
    for shape in enumerate_diagrams(5):
        rep = build_representation(shape, Fraction(3, 2), "f")
        for m in rep.generator_matrices:
            eig = np.linalg.eigvals(m)
            assert np.max(np.abs(np.abs(eig) - 1.0)) < 1e-8
            assert np.max(np.abs(eig.imag)) < 1e-8


# -- the q = 1 limit -------------------------------------------------------------

def test_limit_equals_symmetric_group_form():
    for n in (3, 4, 5):
        for shape in enumerate_diagrams(n):
            lim = build_representation(shape, Fraction(1), "f")
            sym = build_representation(shape, None, "sym")
            for a, b in zip(lim.generator_matrices, sym.generator_matrices):
                assert sup_norm(a - b) < 1e-12


def test_sym_form_ignores_q():
    a = build_representation(parse_shape("2,2"), None, "sym")
    b = build_representation(parse_shape("2,2"), Fraction(7), "sym")
    assert a.q_value is None and b.q_value is None
    for x, y in zip(a.generator_matrices, b.generator_matrices):
        assert sup_norm(x - y) == 0.0


# -- transpose sign pattern -------------------------------------------------------

def test_transpose_swaps_diagonal_signs():
    q = Fraction(2)
    for n in (3, 4, 5):
        for shape in enumerate_diagrams(n):
            rep = build_representation(shape, q, "f")
            rep_t = build_representation(transpose(shape), q, "f")
            index_t = {t.entries: k for k, t in enumerate(rep_t.basis)}
            mapping = [index_t[transpose_tableau(t).entries] for t in rep.basis]
            for i in range(1, n):
                m, mt = rep.generator_matrices[i - 1], rep_t.generator_matrices[i - 1]
                for k, t in enumerate(rep.basis):
                    kt = mapping[k]
                    if abs(abs(m[k, k]) - 1.0) < 1e-12 and \
                            abs(m[k, np.arange(len(rep.basis)) != k]).max(initial=0.0) < 1e-12:
                        # diagonal (same row/column) case: sign swaps
                        assert abs(mt[kt, kt] + m[k, k]) < 1e-12
                    # absolute values always transfer
                    assert abs(abs(mt[kt, kt]) - abs(m[k, k])) < 1e-12


def even_word_images(rep):
    """Images of the even descent-vector words, one evaluate_word each."""
    return [evaluate_word(rep, uword_letters(w))
            for w in enumerate_even_uwords(rep.n)]


def reading_sign(t):
    # (-1)^(inversions of the row reading word); flips under t -> s_i t
    word = [v for row in t.entries for v in row]
    inversions = sum(a > b for k, a in enumerate(word) for b in word[k + 1:])
    return -1.0 if inversions % 2 else 1.0


def reading_sign_oracle(rep, rep_t):
    """E P, where P sends v_T to v_(transpose T) and E = diag(reading_sign)
    on the transposed basis."""
    index_t = {t.entries: k for k, t in enumerate(rep_t.basis)}
    p = np.zeros((rep.dim, rep.dim))
    for k, t in enumerate(rep.basis):
        p[index_t[transpose_tableau(t).entries], k] = 1.0
    return np.diag([reading_sign(t) for t in rep_t.basis]) @ p


def witness_matrix(rep, rep_t):
    index, signs = transpose_witness(rep, rep_t)
    x = np.zeros((rep.dim, rep.dim))
    x[index, np.arange(rep.dim)] = signs
    return x


WITNESS_Q = (Fraction(2), Fraction(5, 7), 0.3, 1 + 0.5j, -0.9)


@pytest.mark.parametrize("q", WITNESS_Q)
def test_transposed_even_words_are_signed_permutations(q):
    # the identity behind the certificate's transpose-pair column cut:
    # rho'(w) = E P rho(w) P^T E for every even word w, where P sends v_T
    # to v_(transpose T) and E = diag(+-1) on the transposed basis.  The
    # tolerance is relative to |f_i1| ... |f_iL|, the scale of the rounding
    # in a product: near q = -1 even words cancel to entries far below it.
    for n in range(3, 7):
        for shape in enumerate_diagrams(n):
            rep = build_representation(shape, q, "f")
            rep_t = build_representation(transpose(shape), q, "f")
            ep = reading_sign_oracle(rep, rep_t)
            for m, mt in zip(rep.generator_matrices, rep_t.generator_matrices):
                assert sup_norm(mt + ep @ m @ ep.T) == 0.0
            for word in enumerate_even_uwords(n):
                letters = uword_letters(word)
                scale = np.eye(rep.dim)
                for i in letters:
                    scale = scale @ np.abs(rep.generator_matrices[i - 1])
                image = ep @ evaluate_word(rep, letters) @ ep.T
                assert sup_norm(evaluate_word(rep_t, letters) - image) \
                    <= 1e-12 * sup_norm(scale)


@pytest.mark.parametrize("q", WITNESS_Q)
def test_transpose_witness_is_the_reading_sign_oracle(q):
    # transpose_witness is E P, and it intertwines the restrictions to the
    # even subalgebra with no rounding at all
    for n in range(3, 8):
        for shape in enumerate_diagrams(n):
            rep = build_representation(shape, q, "f")
            rep_t = build_representation(transpose(shape), q, "f")
            x = witness_matrix(rep, rep_t)
            assert np.array_equal(x, reading_sign_oracle(rep, rep_t))
            f, f_t = rep.generator_matrices, rep_t.generator_matrices
            for i in range(1, n - 1):
                assert sup_norm(f_t[0] @ f_t[i] @ x - x @ f[0] @ f[i]) == 0.0


def test_transpose_witness_is_the_old_tableau_route():
    # index[k] is the position of transpose(T_k), signs[k] the reading
    # sign of that validated tableau, for the f- and the sym-form
    for n in range(1, 8):
        for shape in enumerate_diagrams(n):
            for q, form in ((Fraction(2), "f"), (None, "sym")):
                rep = build_representation(shape, q, form)
                onto = build_representation(transpose(shape), q, form)
                position = {t.entries: k for k, t in enumerate(onto.basis)}
                old_index = [position[transpose_tableau(t).entries]
                             for t in rep.basis]
                index, signs = transpose_witness(rep, onto)
                assert index.tolist() == old_index
                assert signs.tolist() == [reading_sign(onto.basis[k])
                                          for k in old_index]


def test_transpose_witness_forms():
    # the orthogonal form of the symmetric group obeys the same identity;
    # the g-form does not, and a shape that is not the transpose is refused
    for n in range(2, 7):
        for shape in enumerate_diagrams(n):
            rep = build_representation(shape, None, "sym")
            rep_t = build_representation(transpose(shape), None, "sym")
            x = witness_matrix(rep, rep_t)
            for m, m_t in zip(rep.generator_matrices,
                              rep_t.generator_matrices):
                assert sup_norm(m_t @ x + x @ m) == 0.0
    rep = build_representation(parse_shape("3,1"), Fraction(2), "f")
    with pytest.raises(ValueError):
        transpose_witness(rep, rep)
    g = build_representation(parse_shape("2,1"), Fraction(2), "g")
    with pytest.raises(ValueError):
        transpose_witness(g, g)


# -- words ----------------------------------------------------------------------

def test_evaluate_word():
    rep = build_representation(parse_shape("3,1"), Fraction(3, 2), "f")
    assert sup_norm(evaluate_word(rep, []) - np.eye(3)) == 0.0
    assert sup_norm(evaluate_word(rep, [2, 2]) - np.eye(3)) < 1e-10
    with pytest.raises(ValueError):
        evaluate_word(rep, [4])
    repg = build_representation(parse_shape("3,1"), Fraction(3, 2), "g")
    braid = evaluate_word(repg, [1, 2, 1]) - evaluate_word(repg, [2, 1, 2])
    assert sup_norm(braid) < 1e-10


# -- admissibility -----------------------------------------------------------------

def test_inadmissible_q_rejected():
    shape = parse_shape("2,1")
    for bad in (Fraction(0), Fraction(-1), 0.0, -1.0, 1.0):
        with pytest.raises(ValueError):
            build_representation(shape, bad, "f")
    # the exact limit point is the one admitted specialization of q = 1
    build_representation(shape, Fraction(1), "f")
    with pytest.raises(ValueError):
        build_representation(shape, Fraction(2), "nope")
    with pytest.raises(ValueError):
        build_representation(shape, None, "f")


# -- rank certificate ----------------------------------------------------------------

def gaussian(seed, shape, dtype=np.float64):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal(shape).astype(dtype)
    if dtype is np.complex128:
        m = m + 1j * rng.standard_normal(shape)
    return m


def rank_eight():
    rng = np.random.default_rng(12)
    return rng.standard_normal((20, 8)) @ rng.standard_normal((8, 30))


# the tests' rank rule (rank_oracle), the reference for the word matrix
@pytest.mark.parametrize("matrix, rank", [
    pytest.param(np.diag([3.0, 2.0, 1e-12]), 2, id="diag"),
    pytest.param(np.zeros((4, 4)), 0, id="zero"),
    pytest.param(np.eye(5), 5, id="eye"),
    *(pytest.param(gaussian(11, shape, dtype), 30,
                   id=f"{dtype.__name__}-{shape[0]}x{shape[1]}")
      for dtype in (np.float64, np.complex128)
      for shape in ((30, 50), (50, 30))),
    # full rank with a small sigma_min / sigma_max
    pytest.param(np.diag([1.0, 0.5, 3e-4]), 3, id="ratio-3e-4"),
    pytest.param(np.diag([1.0, 0.5, 1e-5]), 3, id="ratio-1e-5"),
    pytest.param(rank_eight(), 8, id="deficient-20x30"),
    pytest.param(rank_eight().T, 8, id="deficient-30x20"),
    pytest.param(gaussian(13, (10, 20), np.float32), 10, id="float32"),
])
def test_numeric_rank_plain(matrix, rank):
    assert numeric_rank(matrix) == rank


def test_numeric_rank_refuses_ambiguity():
    m = np.diag([1.0, 5e-8, 2e-8, 1e-9])
    with pytest.raises(IndeterminateRankError):
        numeric_rank(m)


def test_numeric_rank_refusal_comes_from_the_svd():
    # the refusal and its message are those of the rank rule
    with pytest.raises(IndeterminateRankError,
                       match=r"^singular values 2\.000e-08 and 1\.000e-09 "
                             r"straddle the cutoff without a 1e\+02 gap$"):
        numeric_rank(np.diag([1.0, 5e-8, 2e-8, 1e-9]))


def test_dimension_certificate_small():
    assert dimension_certificate(3) == {
        "even_words": 3, "rank": 3, "expected": 3, "pass": True}
    assert dimension_certificate(4) == {
        "even_words": 12, "rank": 12, "expected": 12, "pass": True}
    assert dimension_certificate(5, Fraction(3, 2))["pass"]


ORACLE_Q = (Fraction(2), Fraction(3, 2), Fraction(5, 7), 0.3, 1.7, 1 + 0.5j,
            -0.9, -0.5, 0.5j, 1e-5)


def full_rank(n):
    rows = math.factorial(n) // 2
    return {"even_words": rows, "rank": rows, "expected": rows, "pass": True}


def all_shapes_matrix(n, q):
    """The even word images on every shape, one row per word."""
    return np.hstack([
        np.array([w.ravel() for w in even_word_images(
            build_representation(shape, q, "f"))])
        for shape in enumerate_diagrams(n)])


def word_matrix(n, q):
    """The even word images on one shape per transpose pair, weighted
    sqrt(2), and on each self-conjugate shape (README criterion 1)."""
    return np.hstack([
        (1.0 if shape.is_self_conjugate else math.sqrt(2.0))
        * np.array([w.ravel() for w in even_word_images(
            build_representation(shape, q, "f"))])
        for shape in enumerate_diagrams(n) if shape.is_transpose_anchor])


def all_shapes_certificate(n, q):
    """The certificate on the full direct sum: every shape's block, SVD rank."""
    rows = math.factorial(n) // 2
    rank = guarded_rank(np.linalg.svd(all_shapes_matrix(n, q),
                                      compute_uv=False))
    return {"even_words": rows, "rank": rank, "expected": rows,
            "pass": rank == rows}


@pytest.mark.parametrize("q", ORACLE_Q)
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_dimension_certificate_matches_all_shapes_oracle(n, q):
    try:
        expected = all_shapes_certificate(n, q)
    except IndeterminateRankError:
        # the SVD cannot read this rank; the squares prove it full
        expected = full_rank(n)
    assert dimension_certificate(n, q) == expected


@pytest.mark.parametrize("q", ORACLE_Q)
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_word_matrix_is_the_weighted_even_word_images(n, q):
    # weighting the anchors by sqrt(2) stands in for their transposes: the
    # word matrix has the M M^H of the full direct sum, so its rank
    full, weighted = all_shapes_matrix(n, q), word_matrix(n, q)
    assert len(weighted) == len(full) == math.factorial(n) // 2
    gram = full @ full.conj().T
    assert sup_norm(weighted @ weighted.conj().T - gram) \
        <= 1e-12 * sup_norm(gram)


def branching_bound(n, q):
    """r_2 ... r_n, r_m = min_mu sigma_min(S_mu) / max_mu sigma_max(S_mu),
    a lower bound on sigma_min / sigma_max of the word matrix, since F_n
    is (I (x) F_{n-1}) K_n up to permutations and its even and odd rows
    are orthogonal."""
    bound = 1.0
    for m in range(2, n + 1):
        svals = [np.linalg.svd(square, compute_uv=False)
                 for square in hecke_rep._branching_squares(m, q).values()]
        bound *= min(s[-1] for s in svals) / max(s[0] for s in svals)
    return bound


@pytest.mark.parametrize("q", ORACLE_Q)
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_branching_bound_is_below_the_word_matrix_ratio(n, q):
    # the squares are the factors of the word matrix
    svals = np.linalg.svd(word_matrix(n, q), compute_uv=False)
    assert branching_bound(n, q) <= svals[-1] / svals[0] * (1 + 1e-9)


def spy_on_rank_routes(monkeypatch) -> list:
    """The primes the exact verdict tries as dimension_certificate runs."""
    calls = []
    route = hecke_rep._nonsingular_mod

    def spy(matrix, p):
        calls.append(p)
        return route(matrix, p)

    monkeypatch.setattr(hecke_rep, "_nonsingular_mod", spy)
    return calls


@pytest.mark.parametrize("n, q", [(7, Fraction(2)), (7, 0.5j), (6, 1 + 0.5j),
                                  (7, Fraction(1))])
def test_branching_bound_certifies_without_the_word_matrix(n, q, monkeypatch):
    # the float verdict passes every square; the exact one never runs
    calls = spy_on_rank_routes(monkeypatch)
    assert dimension_certificate(n, q) == full_rank(n)
    assert calls == []


@pytest.mark.parametrize("n, q, pending", [
    (3, -0.9999, 2), (5, 1e-5, 2), (6, -0.9, 5), (6, 1e-5, 9)])
def test_exact_verdict_decides_the_squares_floats_cannot(n, q, pending,
                                                         monkeypatch):
    # each square below 1e-6 is nonsingular mod the first prime
    calls = spy_on_rank_routes(monkeypatch)
    assert dimension_certificate(n, q) == full_rank(n)
    assert calls == [hecke_rep._PRIMES[0][0]] * pending


def test_singular_squares_are_refused_naming_n_q_and_mu(monkeypatch):
    # f_{m-1} = I makes the coset factors 1 and f_{m-1} equal, so every
    # square is singular mod every prime; only the squares floats leave
    # undecided get that far, first 4,1 at m = 6
    route = hecke_rep._rational_generators

    def collapsed(shape, q, p):
        mats = route(shape, q, p)
        mats[-1] = np.eye(len(mats[-1]), dtype=mats.dtype)
        return mats

    monkeypatch.setattr(hecke_rep, "_rational_generators", collapsed)
    monkeypatch.setattr(hecke_rep, "_PRIMES", hecke_rep._PRIMES[:2])
    calls = spy_on_rank_routes(monkeypatch)
    with pytest.raises(IndeterminateRankError, match=(
            r"^the branching square of 4,1 at n = 6, q = -0\.9 is below "
            r"1e-06 in floats and singular mod every prime tried$")):
        dimension_certificate(6, -0.9)
    assert calls == [2097133] * 5 + [2097097] * 5
    assert dimension_certificate(5, -0.9) == full_rank(5)


def test_primes_are_one_mod_four_with_a_root_of_minus_one():
    for p, root in hecke_rep._PRIMES:
        assert p < 2 ** 21 and p % 4 == 1
        assert all(p % k for k in range(2, math.isqrt(p) + 1))
        assert root * root % p == p - 1


def test_residues_are_exact_and_skip_primes_that_do_not_suit():
    (p, root), (p1, _) = hecke_rep._PRIMES[:2]
    # -0.9 is 3602879701896397 / 2^52 exactly, not -9/10
    exact = Fraction(-0.9)
    assert next(hecke_rep._residues(6, -0.9)) == (
        p, exact.numerator * pow(exact.denominator, -1, p) % p)
    assert next(hecke_rep._residues(6, Fraction(-9, 10)))[1] \
        == -9 * pow(10, -1, p) % p
    # 1 + 0.5i -> 1 + root / 2
    assert next(hecke_rep._residues(6, 1 + 0.5j)) == (
        p, (1 + root * pow(2, -1, p)) % p)
    # q = 0, 1 + q = 0, [3]_q = 0 or a denominator vanish mod p
    for q in (Fraction(p), Fraction(p - 1), Fraction(1, p)):
        assert next(hecke_rep._residues(6, q))[0] == p1
    cube_root = next(x for x in (pow(a, (p - 1) // 3, p) for a in range(2, 9))
                     if x != 1)
    assert next(hecke_rep._residues(3, Fraction(cube_root)))[0] == p1
    assert next(hecke_rep._residues(2, Fraction(cube_root)))[0] == p


def test_nonsingular_mod_swaps_rows_and_sees_singular_matrices():
    p = hecke_rep._PRIMES[0][0]
    check = hecke_rep._nonsingular_mod
    # a zero pivot that a row swap resolves, at the first and second step
    assert check(np.array([[0, 1], [1, 0]]), p)
    assert check(np.array([[1, 2, 3], [2, 4, 5], [1, 1, 1]]), p)
    # singular over the integers, and singular mod p only: det = p
    assert not check(np.array([[1, 2], [2, 4]]), p)
    assert not check(np.array([[2, 1], [1, (p + 1) // 2]]), p)
    assert not check(np.array([[1, 2, 3], [2, 4, 6], [0, 0, 1]]), p)
    assert check(np.array([[2, 1], [1, (p + 3) // 2]]), p)


def rational_relations(shape, q, p):
    """The worst violations mod p of f_i^2 = I, the braid relation with
    c^2 (f_{i+1} - f_i), c = (q - 1)/(q + 1), and far commutation."""
    mats = hecke_rep._rational_generators(shape, q, p)
    eye = np.eye(len(mats[0]), dtype=np.int64)
    c = (q - 1) * pow(q + 1, -1, p) % p

    def mul(*factors):
        acc = eye
        for f in factors:
            acc = acc @ f % p
        return acc

    bad = [mul(f, f) - eye for f in mats]
    bad += [mul(a, b, a) - mul(b, a, b) - c * c % p * (b - a)
            for a, b in zip(mats, mats[1:])]
    bad += [mul(mats[i], mats[j]) - mul(mats[j], mats[i])
            for i in range(len(mats)) for j in range(i + 2, len(mats))]
    return [int(np.count_nonzero(x % p)) for x in bad]


@pytest.mark.parametrize("q", [Fraction(2), Fraction(5, 7), -0.9, -0.9999,
                               1e-5, 1 + 0.5j, 0.5j])
def test_rational_form_satisfies_the_relations_mod_p(q):
    for n in range(2, 8):
        for p, r in islice(hecke_rep._residues(n, q), 2):
            for shape in enumerate_diagrams(n):
                assert not any(rational_relations(shape, r, p)), shape


@pytest.mark.parametrize("q", ORACLE_Q)
def test_float_verdict_agrees_with_the_exact_one(q):
    # every square, whatever its float ratio, is nonsingular mod the
    # first prime that suits q
    for m in range(2, 8):
        p, r = next(hecke_rep._residues(m, q))
        for mu, square in hecke_rep._branching_squares(m, r, p).items():
            assert square.shape == (m * len(hecke_rep._skeleton(mu).basis),) * 2
            assert hecke_rep._nonsingular_mod(square, p), (m, mu)


# -- serialization ---------------------------------------------------------------------

def test_representation_jsonable():
    rep = build_representation(parse_shape("2,1"), Fraction(2), "f")
    data = json.loads(render_json(representation_to_jsonable(rep)))
    assert data["shape"] == "2,1"
    assert data["q"] == "2"
    assert data["basis"] == ["1,3/2", "1,2/3"]
    assert len(data["generator_matrices"]) == 2
    entry = data["generator_matrices"][0][0][0]
    assert set(entry) == {"re", "im"} and entry["re"] == -1.0
