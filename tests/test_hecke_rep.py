"""Tests for the tableau-basis matrix representations."""

import math
from fractions import Fraction

import numpy as np
import pytest

from qalt import hecke_rep
from qalt.scalars import QInteger, QPoint, RationalFunction
from qalt.tableaux import (
    enumerate_diagrams,
    enumerate_standard_tableaux,
    parse_shape,
    transpose,
)
from qalt.hecke_rep import (
    IndeterminateRankError,
    build_representation,
    dimension_certificate,
    direct_sum,
    evaluate_word,
    nullspace,
    numeric_rank,
    representation_to_jsonable,
    sup_norm,
    verify_relations,
)
from qalt.word_algebra import enumerate_even_uwords

SAMPLE_Q = (Fraction(2), Fraction(3, 2), Fraction(5, 7), 0.3, 1.7)


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
    q = RationalFunction.q()
    for d in range(2, 7):
        lhs = (1 + q ** d) ** 2 \
            + 4 * q * QInteger(d - 1).as_function * QInteger(d + 1).as_function
        rhs = ((1 + q) * QInteger(d).as_function) ** 2
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
            mapping = [index_t[transpose(t).entries] for t in rep.basis]
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
    return [evaluate_word(rep, w.letters())
            for w in enumerate_even_uwords(rep.n)]


def reading_sign(t):
    # (-1)^(inversions of the row reading word); flips under t -> s_i t
    word = [v for row in t.entries for v in row]
    inversions = sum(a > b for k, a in enumerate(word) for b in word[k + 1:])
    return -1.0 if inversions % 2 else 1.0


@pytest.mark.parametrize("q", [Fraction(2), Fraction(5, 7), 0.3, 1 + 0.5j, -0.9])
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
            index_t = {t.entries: k for k, t in enumerate(rep_t.basis)}
            p = np.zeros((rep.dim, rep.dim))
            for k, t in enumerate(rep.basis):
                p[index_t[transpose(t).entries], k] = 1.0
            e = np.diag([reading_sign(t) for t in rep_t.basis])
            for m, mt in zip(rep.generator_matrices, rep_t.generator_matrices):
                assert sup_norm(mt + e @ p @ m @ p.T @ e) == 0.0
            for word in enumerate_even_uwords(n):
                letters = word.letters()
                scale = np.eye(rep.dim)
                for i in letters:
                    scale = scale @ np.abs(rep.generator_matrices[i - 1])
                image = e @ p @ evaluate_word(rep, letters) @ p.T @ e
                assert sup_norm(evaluate_word(rep_t, letters) - image) \
                    <= 1e-12 * sup_norm(scale)


# -- words and sums ---------------------------------------------------------------

def test_evaluate_word():
    rep = build_representation(parse_shape("3,1"), Fraction(3, 2), "f")
    assert sup_norm(evaluate_word(rep, []) - np.eye(3)) == 0.0
    assert sup_norm(evaluate_word(rep, [2, 2]) - np.eye(3)) < 1e-10
    with pytest.raises(ValueError):
        evaluate_word(rep, [4])
    repg = build_representation(parse_shape("3,1"), Fraction(3, 2), "g")
    braid = evaluate_word(repg, [1, 2, 1]) - evaluate_word(repg, [2, 1, 2])
    assert sup_norm(braid) < 1e-10


def test_direct_sum_dimension_check():
    for n, total in ((3, 6), (4, 24), (5, 120)):
        reps, checks = direct_sum(n, Fraction(3, 2), "f")
        assert checks == {"sum_dim_sq": total, "expected": total, "pass": True}
        assert len(reps) == len(enumerate_diagrams(n))
        dims = sorted(rep.dim for rep in reps)
        assert dims == sorted(len(enumerate_standard_tableaux(s))
                              for s in enumerate_diagrams(n))


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


def test_qpoint_input_accepted():
    rep = build_representation(parse_shape("2,1"), QPoint(Fraction(2), 3), "f")
    assert rep.q_value == Fraction(2)


# -- rank machinery ------------------------------------------------------------------

def test_numeric_rank_plain():
    m = np.diag([3.0, 2.0, 1e-12])
    assert numeric_rank(m) == 2
    assert numeric_rank(np.zeros((4, 4))) == 0
    assert numeric_rank(np.eye(5)) == 5


def test_numeric_rank_refuses_ambiguity():
    # one gap guard decides both the rank and the kernel
    m = np.diag([1.0, 5e-8, 2e-8, 1e-9])
    for solve in (numeric_rank, nullspace):
        with pytest.raises(IndeterminateRankError):
            solve(m)


@pytest.fixture
def svd_calls(monkeypatch):
    """Counts numeric_rank's SVD calls; an empty count means the Gram path."""
    calls = []
    svd = np.linalg.svd

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


@pytest.mark.parametrize("shape", [(30, 50), (50, 30)])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_numeric_rank_reads_clear_full_rank_from_gram(shape, dtype, svd_calls):
    rng = np.random.default_rng(11)
    m = rng.standard_normal(shape).astype(dtype)
    if dtype is np.complex128:
        m = m + 1j * rng.standard_normal(shape)
    assert numeric_rank(m) == 30
    assert svd_calls == []


@pytest.mark.parametrize("ratio", [3e-4, 1e-5])
def test_numeric_rank_takes_svd_below_the_acceptance_ratio(ratio, svd_calls):
    # full rank, but sigma_min / sigma_max is below 1e-3: the SVD decides
    m = np.diag([1.0, 0.5, ratio])
    assert numeric_rank(m) == 3
    assert len(svd_calls) == 1


def test_numeric_rank_of_deficient_matrix_comes_from_svd(svd_calls):
    rng = np.random.default_rng(12)
    m = rng.standard_normal((20, 8)) @ rng.standard_normal((8, 30))
    assert numeric_rank(m) == 8
    assert numeric_rank(m.T) == 8
    assert len(svd_calls) == 2


def shifted_hadamard_root(delta, phases):
    """M with M M^H = D ((2 + delta) I + H) D^H, H the 4x4 Hadamard matrix
    and D = diag(exp(i phases)): lambda = delta (twice) and 4 + delta
    (twice), while ||G||_1 = 6 + delta, half as much again as lambda_max."""
    h = np.array([[1, 1, 1, 1], [1, -1, 1, -1],
                  [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float)
    root = np.linalg.cholesky((2 + delta) * np.eye(4) + h)
    if phases is None:
        return root
    return np.exp(1j * np.asarray(phases))[:, None] * root


@pytest.mark.parametrize("phases", [None, [0.0, 0.4, 1.3, 2.9]])
def test_numeric_rank_shift_uses_the_one_norm_with_a_factor_two(phases,
                                                                svd_calls):
    # lambda_min / ||G||_1 = 3e-6 clears the shift 2e-6 ||G||_1: Cholesky
    # succeeds and no SVD runs
    assert numeric_rank(shifted_hadamard_root(6 * 3e-6 / (1 - 3e-6),
                                              phases)) == 4
    assert svd_calls == []
    # lambda_min / ||G||_1 = 1.5e-6 fails that shift, though it would clear
    # 1e-6 ||G||_1 or 2e-6 lambda_max (lambda_min / lambda_max = 2.25e-6):
    # one SVD decides, and the rank is still full
    assert numeric_rank(shifted_hadamard_root(6 * 1.5e-6 / (1 - 1.5e-6),
                                              phases)) == 4
    assert len(svd_calls) == 1


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_block_cholesky_test_matches_the_spectrum(dtype, monkeypatch):
    # blocks of 3 so that every path of the blocked loop runs; the shift
    # sits halfway between two eigenvalues, so definiteness is clear-cut
    monkeypatch.setattr(hecke_rep, "_CHOLESKY_BLOCK", 3)
    rng = np.random.default_rng(14)
    for _ in range(40):
        p = int(rng.integers(1, 12))
        m = rng.standard_normal((p, p + 2)).astype(dtype)
        if dtype is np.complex128:
            m = m + 1j * rng.standard_normal((p, p + 2))
        gram = m @ m.conj().T
        lam = np.linalg.eigvalsh(gram)
        j = int(rng.integers(0, p))
        gram -= (lam[0] / 2 if j == 0 else (lam[j - 1] + lam[j]) / 2) \
            * np.eye(p)
        assert hecke_rep._has_cholesky_factor(gram) == (j == 0)


def test_numeric_rank_refusal_comes_from_the_svd(svd_calls):
    # the shifted Gram matrix has no Cholesky factor, and the SVD's
    # refusal and its message are those of the rank rule
    with pytest.raises(IndeterminateRankError,
                       match=r"^singular values 2\.000e-08 and 1\.000e-09 "
                             r"straddle the cutoff without a 1e\+02 gap$"):
        numeric_rank(np.diag([1.0, 5e-8, 2e-8, 1e-9]))
    assert len(svd_calls) == 1


def test_numeric_rank_gram_path_needs_the_rounding_bound(svd_calls):
    # at single precision (p + k) p eps exceeds 1e-2 GAP_GUARD RANK_THRESHOLD
    # for every shape, so even a well-conditioned matrix goes to the SVD
    m = np.random.default_rng(13).standard_normal((10, 20)).astype(np.float32)
    assert numeric_rank(m) == 10
    assert len(svd_calls) == 1


def test_nullspace_of_tall_matrix():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 2))
    m = np.column_stack([a, a[:, 0] - 2 * a[:, 1]])  # kernel (1, -2, -1)
    null = nullspace(m)
    assert null.shape == (1, 3)
    assert sup_norm(m @ null.T) < 1e-12
    expected = np.array([1.0, -2.0, -1.0]) / math.sqrt(6.0)
    assert abs(abs(float(null[0] @ expected)) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        nullspace(m.T)


def test_nullspace_of_complex_matrix():
    # rows are kernel vectors, not their conjugates
    m = np.array([[1, 1j], [2, 2j], [1j, -1]])
    null = nullspace(m)
    assert null.shape == (1, 2)
    assert np.linalg.norm(m @ null[0]) < 1e-12
    assert abs(np.linalg.norm(null[0]) - 1.0) < 1e-12


def test_nullspace_reference_scale():
    # the cutoff is RANK_THRESHOLD times the given scale, not sigma_max
    m = np.diag([1e-3, 1e-12])
    assert nullspace(m).shape == (1, 2)
    assert nullspace(m, scale=1e6).shape == (2, 2)
    with pytest.raises(IndeterminateRankError):
        nullspace(np.diag([1e-3, 2e-4]), scale=5e4)


def test_nullspace_of_zero_system_is_everything():
    null = nullspace(np.zeros((6, 4)))
    assert null.shape == (4, 4)
    assert sup_norm(null @ null.T - np.eye(4)) < 1e-12


def test_dimension_certificate_small():
    assert dimension_certificate(3) == {
        "even_words": 3, "rank": 3, "expected": 3, "pass": True}
    assert dimension_certificate(4) == {
        "even_words": 12, "rank": 12, "expected": 12, "pass": True}
    assert dimension_certificate(5, Fraction(3, 2))["pass"]


ORACLE_Q = (Fraction(2), Fraction(3, 2), Fraction(5, 7), 0.3, 1.7, 1 + 0.5j,
            -0.9, -0.5, 0.5j, 1e-5)


def all_shapes_certificate(n, q):
    """The certificate on the full direct sum: every shape's block, SVD rank."""
    big = np.hstack([
        np.array([w.ravel() for w in even_word_images(
            build_representation(shape, q, "f"))])
        for shape in enumerate_diagrams(n)])
    rows = math.factorial(n) // 2
    rank = hecke_rep._guarded_rank(np.linalg.svd(big, compute_uv=False))
    return {"even_words": rows, "rank": rank, "expected": rows,
            "pass": rank == rows}


@pytest.mark.parametrize("q", ORACLE_Q)
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_dimension_certificate_matches_all_shapes_oracle(n, q):
    try:
        expected = all_shapes_certificate(n, q)
    except IndeterminateRankError as exc:
        with pytest.raises(IndeterminateRankError) as info:
            dimension_certificate(n, q)
        assert str(info.value) == str(exc)
    else:
        assert dimension_certificate(n, q) == expected


def certificate_gb(rows, cols, itemsize):
    # the word matrix, then a copy of it beside the Gram matrix
    return (2 * rows * cols + min(rows, cols) ** 2) * itemsize / 1e9


def test_dimension_certificate_refuses_beyond_physical_memory(monkeypatch):
    monkeypatch.setattr(hecke_rep, "_physical_memory", lambda: 0)
    # n = 8: 20160 even words; the anchors of the transpose pairs and the
    # self-conjugate shapes 4,2,1,1 and 3,3,2 give 25092 columns
    for q, itemsize in ((Fraction(2), 8), (1 + 0.5j, 16)):
        gb = certificate_gb(20160, 25092, itemsize)
        with pytest.raises(ValueError, match=(
                f"needs about {gb:.1f} GB \\(a 20160 x 25092 word matrix")):
            dimension_certificate(8, q)
    assert f"{certificate_gb(20160, 25092, 8):.1f}" == "11.3"
    monkeypatch.setattr(hecke_rep, "_physical_memory", lambda: None)
    assert dimension_certificate(3)["pass"]


# -- serialization ---------------------------------------------------------------------

def test_representation_jsonable():
    rep = build_representation(parse_shape("2,1"), Fraction(2), "f")
    data = representation_to_jsonable(rep)
    assert data["shape"] == "2,1"
    assert data["q"] == "2"
    assert data["basis"] == ["1,3/2", "1,2/3"]
    assert len(data["generator_matrices"]) == 2
    entry = data["generator_matrices"][0][0][0]
    assert set(entry) == {"re", "im"} and entry["re"] == -1.0
