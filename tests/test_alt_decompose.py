"""Tests for restriction to the even subalgebra and its classification."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from rank_oracle import numeric_rank

from qalt import alt_decompose, hecke_rep
from qalt.tableaux import enumerate_diagrams, parse_shape, transpose
from qalt.hecke_rep import build_representation, sup_norm
from qalt.word_algebra import NormalFormMonomial, enumerate_normal_monomials
from qalt.alt_decompose import (
    IndeterminateRankError,
    classify,
    commutant_dimension,
    induction_multiplicities,
    induction_table,
    n3_spectrum_report,
    restrict,
    split_self_conjugate,
    transpose_symmetry_report,
)

SAMPLE_Q = (Fraction(2), Fraction(3, 2), Fraction(5, 7), 0.3, 1.7)
COMPLEX_Q = complex(1, 0.5)


def restricted(shape_text, q=Fraction(2)):
    return restrict(build_representation(parse_shape(shape_text), q, "f"))


def c_squared_at(q):
    return float((q - 1) ** 2) / float((q + 1) ** 2)


# -- restriction ------------------------------------------------------------------

def test_one_dimensional_restrictions_are_trivial():
    for text in ("3", "1,1,1", "4", "1,1,1,1"):
        r = restricted(text)
        for y in r.y_matrices:
            assert y.shape == (1, 1) and abs(y[0, 0] - 1.0) < 1e-14


def test_restrict_requires_f_form():
    rep = build_representation(parse_shape("2,1"), Fraction(2), "g")
    with pytest.raises(ValueError):
        restrict(rep)


def test_restricted_matrices_satisfy_presentation():
    # y1 cubic, later involutions, pair cubics, distant squares
    for n in (3, 4, 5):
        for shape in enumerate_diagrams(n):
            r = restricted(shape.text(), Fraction(3, 2))
            ys = r.y_matrices
            u = c_squared_at(Fraction(3, 2))
            eye = np.eye(r.dim)
            y1 = ys[0]
            assert sup_norm(
                np.linalg.matrix_power(y1, 3)
                - (eye + u * y1 - u * (y1 @ y1))) < 1e-10
            for i in range(1, len(ys)):
                assert sup_norm(ys[i] @ ys[i] - eye) < 1e-10
            for i in range(len(ys) - 1):
                p = ys[i] @ ys[i + 1]
                assert sup_norm(
                    np.linalg.matrix_power(p, 3)
                    - (eye + u * p - u * (p @ p))) < 1e-10
            for i in range(len(ys)):
                for j in range(i + 2, len(ys)):
                    p = ys[i] @ ys[j]
                    assert sup_norm(p @ p - eye) < 1e-10


def test_word_images_match_rewriting():
    # matrix image of a word equals the image of its rewritten normal form
    from qalt.word_algebra import rewrite_y_word

    rng = np.random.default_rng(7)
    for n, shape_text in ((4, "3,1"), (5, "3,2")):
        r = restricted(shape_text, Fraction(3, 2))
        u = c_squared_at(Fraction(3, 2))
        for _ in range(10):
            word = [int(rng.integers(1, n - 1)) for _ in range(8)]
            direct = np.eye(r.dim)
            for letter in word:
                direct = direct @ r.y_matrices[letter - 1]
            comb = rewrite_y_word(word, n)
            image = np.zeros_like(direct)
            for code, coeff in comb.terms.items():
                m = np.eye(r.dim)
                for letter in NormalFormMonomial(code).letters():
                    m = m @ r.y_matrices[letter - 1]
                image = image + float(coeff.evaluate(Fraction(3, 2))) * m
            assert sup_norm(direct - image) < 1e-9


# -- commutants --------------------------------------------------------------------

def test_commutant_dimensions():
    assert commutant_dimension(restricted("3,1")) == 1
    assert commutant_dimension(restricted("2,2")) == 2
    assert commutant_dimension(restricted("4")) == 1
    assert commutant_dimension(restricted("2,1,1")) == 1
    assert commutant_dimension(restricted("2,1")) == 2


def with_scaled_entries(text, q, scale):
    """restricted(text, q) with the off-diagonal entries in the row and
    column of tableau 0 scaled in every F_i."""
    rep = build_representation(parse_shape(text), q, "f")
    mats = [f.copy() for f in rep.generator_matrices]
    for f in mats:
        diagonal = f[0, 0]
        f[0, :] *= scale
        f[:, 0] *= scale
        f[0, 0] = diagonal
    return restrict(dataclasses.replace(rep, generator_matrices=tuple(mats)))


def test_commutant_without_the_identity_is_indeterminate():
    # cutting one tableau off the graph leaves two components, and the
    # identity is no longer among the rows: with the cut entries exactly 0
    # the two indicators commute, and 4,2,1 gets the dimension 2 that
    # fails classify.  Entries that are small but nonzero still join the
    # tableau to the rest, however small next to the diagonal
    assert commutant_dimension(restricted("4,2,1")) == 1
    assert commutant_dimension(
        with_scaled_entries("4,2,1", Fraction(2), 0.0)) == 2
    assert commutant_dimension(
        with_scaled_entries("4,2,1", Fraction(2), 1e-12)) == 1


def test_a_large_q_keeps_every_edge():
    # at large q each block is nearly diagonal, B / A about 2 / sqrt(q),
    # but B is still computed to full relative precision and every mixed
    # pair stays an edge
    assert classify(5, 5e12).checks["pass"]
    assert classify(3, 1e100).checks["pass"]


@pytest.mark.parametrize("solve,reason", [
    pytest.param(lambda: commutant_dimension(restricted("3,1").y_matrices),
                 "raw matrix sequences", id="raw-commutant"),
])
def test_hom_refuses_inputs_other_than_shape_restrictions(solve, reason):
    # only a shape restriction carries the F_i and the tableau graph that
    # the commutant is read off
    with pytest.raises(ValueError, match=reason):
        solve()
    rep = build_representation(parse_shape("3,1"), Fraction(2), "f")
    with pytest.raises(ValueError, match=reason):
        commutant_dimension(rep.generator_matrices)


@pytest.mark.parametrize("n", range(1, 10))
def test_the_mixed_pair_graph_is_connected(n):
    # every standard tableau reaches the row-reading one by the s_i that
    # keep it standard, so the +1 part of each commutant is the identity
    for shape in enumerate_diagrams(n):
        skeleton = hecke_rep._skeleton(shape)
        assert skeleton.components.tolist() == [0] * len(skeleton.basis)


def test_components_are_numbered_by_their_first_vertex():
    anchors, partners = np.array([4, 1, 5]), np.array([2, 3, 4])
    labels = hecke_rep._components(7, anchors, partners)
    assert labels.tolist() == [0, 1, 2, 1, 2, 2, 3]
    assert hecke_rep._components(3, anchors[:0], partners[:0]).tolist() \
        == [0, 1, 2]


# -- Hom spaces against the dense Kronecker system ----------------------------------

def kron_hom_dimension(y1, y2):
    """Nullity of the stacked system X Y1_i = Y2_i X in d1 d2 unknowns."""
    eye1, eye2 = np.eye(y1[0].shape[0]), np.eye(y2[0].shape[0])
    system = np.vstack([np.kron(b, eye1) - np.kron(eye2, a.T)
                        for a, b in zip(y1, y2)])
    return system.shape[1] - numeric_rank(system)


@pytest.mark.parametrize("q", SAMPLE_Q + (COMPLEX_Q, -0.9, -0.99,
                                           complex(0, 0.5), Fraction(1)))
def test_hom_matches_kronecker_oracle(q):
    # Hom(Res V_λ, Res V_μ) is [μ = λ] + [μ = ^tλ] by the dense Kronecker
    # system: classify's inequivalences and induce rest on it, and for
    # μ = λ it is the commutant read off the tableau graph
    for n in (3, 4, 5):
        shapes = enumerate_diagrams(n)
        reps = {shape: restricted(shape.text(), q) for shape in shapes}
        for lam, r1 in reps.items():
            for mu, r2 in reps.items():
                expected = int(mu == lam) + int(mu == transpose(lam))
                assert kron_hom_dimension(r1.y_matrices,
                                          r2.y_matrices) == expected
                if mu == lam:
                    assert commutant_dimension(r1) == expected


def test_split_route_rows_are_orthonormal_intertwiners():
    for q in (Fraction(2), 0.3, -0.99, COMPLEX_Q):
        for text in ("2,2", "3,1,1", "4,1", "3,2,1"):
            r = restricted(text, q)
            null = alt_decompose._commutant(r, 1e-10)
            assert len(null) == 1 + r.source.shape.is_self_conjugate
            # real for real input
            assert np.isrealobj(null) or not np.isrealobj(r.y_matrices[0])
            assert sup_norm(null.conj() @ null.T - np.eye(len(null))) < 1e-12
            for row in null:
                x = row.reshape(r.dim, r.dim)
                for y in r.y_matrices:
                    assert sup_norm(y @ x - x @ y) < 1e-10 * max(
                        1.0, sup_norm(y))


def hom_basis(r1, r2):
    """Orthonormal rows spanning Hom(r1, r2), X flattened: the commutant
    for r1 = r2, else the normalised transpose witness (Hom is 1-dim)."""
    if r1 is r2:
        return alt_decompose._commutant(r1, 1e-10)
    index, signs = hecke_rep.transpose_witness(r1.source, r2.source)
    x = np.zeros((r2.dim, r1.dim))
    x[index, np.arange(r1.dim)] = signs / math.sqrt(r1.dim)
    return x.reshape(1, -1)


def test_hom_basis_is_orthonormal_and_real_for_real_input():
    r22 = restricted("2,2")
    pairs = [(restricted("3,1"), restricted("2,1,1")), (r22, r22),
             (restricted("3,2", 0.3), restricted("2,2,1", 0.3))]
    for r1, r2 in pairs:
        null = hom_basis(r1, r2)
        assert null.shape[0] >= 1
        assert np.isrealobj(null)
        assert sup_norm(null @ null.T - np.eye(null.shape[0])) < 1e-12
        for row in null:
            x = row.reshape(r2.dim, r1.dim)
            for a, b in zip(r1.y_matrices, r2.y_matrices):
                assert sup_norm(b @ x - x @ a) < 1e-12
    r1, r2 = restricted("3,2", COMPLEX_Q), restricted("2,2,1", COMPLEX_Q)
    null = hom_basis(r1, r2)
    assert null.shape[0] == 1
    assert sup_norm(null @ null.conj().T - np.eye(1)) < 1e-12
    x = null[0].reshape(r2.dim, r1.dim)
    for a, b in zip(r1.y_matrices, r2.y_matrices):
        assert sup_norm(b @ x - x @ a) < 1e-12


def moved_diagonal(text, q, shift, scale=1.0):
    """The f-form of text at q, every F_i times scale, with shift added to
    entry (0, 0) of F_2."""
    rep = build_representation(parse_shape(text), q, "f")
    mats = [scale * f for f in rep.generator_matrices]
    mats[1] = mats[1].copy()
    mats[1][0, 0] += shift
    return dataclasses.replace(rep, generator_matrices=tuple(mats))


def test_split_route_refuses_a_large_residual(monkeypatch):
    # a 1e-6 change of one diagonal entry of f_2 leaves the identity in
    # the commutant, but gives the transpose witness a residual on the F_i
    # (1e-6) above the limit (1.4e-10).  The -1 row is left out, the
    # commutant of 2,2 is 1, and classify fails instead of passing
    assert commutant_dimension(restricted("2,2")) == 2
    assert commutant_dimension(
        restrict(moved_diagonal("2,2", Fraction(2), 1e-6))) == 1

    def moved(shape, q, form="f"):
        if shape.text() != "2,2":
            return build_representation(shape, q, form)
        return moved_diagonal("2,2", q, 1e-6)

    monkeypatch.setattr(alt_decompose, "build_representation", moved)
    report = classify(4, Fraction(2))
    assert report.checks["pass"] is False
    halves = [label for label in report.labels if label["shape"] == "2,2"]
    assert [label["commutant_dim"] for label in halves] == [None, None]


def test_intertwiner_residual_is_relative_to_the_generators():
    # after scaling the F_i by 1e8, a 1e-3 change of one entry gives the
    # witness a residual far above an absolute 1e-10 but within tol times
    # the norms, so the -1 row stays; unscaled, the same change is about
    # 1e-3 of the entries, and the row is left out
    scale = 1e8
    s = restrict(moved_diagonal("2,2", Fraction(2), 1e-3, scale))
    null = alt_decompose._commutant(s, 1e-10)
    assert null.shape[0] == 2
    x = null[1].reshape(s.dim, s.dim)
    residual = max(sup_norm(f @ x + x @ f)
                   for f in s.source.generator_matrices)
    assert 1e-10 < residual <= 1e-10 * scale * 1.5
    unscaled = restrict(moved_diagonal("2,2", Fraction(2), 1e-3))
    assert alt_decompose._commutant(unscaled, 1e-10).shape[0] == 1


# -- self-conjugate splitting ----------------------------------------------------------

@pytest.mark.parametrize("shape_text,q", [
    ("2,1", Fraction(2)),
    ("2,2", Fraction(2)),
    ("3,1,1", Fraction(2)),
    ("2,2", Fraction(3, 2)),
    ("3,1,1", 1.7),
    # real and complex q took different split branches once
    ("3,2,1", Fraction(2)),
    ("3,2,1", complex(0, 0.5)),
    ("3,2,1", COMPLEX_Q),
    ("3,2,1", -0.9),
    ("3,2,1", Fraction(1)),
    ("4,1,1,1", Fraction(2)),
    ("4,1,1,1", COMPLEX_Q),
])
def test_split_halves_evenly(shape_text, q):
    r = restricted(shape_text, q)
    plus, minus, report = split_self_conjugate(r)
    assert plus.shape[1] == minus.shape[1] == r.dim // 2
    assert report["pass"]
    assert report["method"] == "transpose witness eigenspaces"
    assert report["invariance_residual"] < 1e-10
    assert report["split_dims"] == [r.dim // 2, r.dim // 2]
    assert set(report) == {
        "shape", "dim", "method", "split_dims", "invariance_residual", "pass"}


def half_matrices(r):
    """The Y_i of r on each half of split_self_conjugate(r), (plus, minus)."""
    return [tuple(basis.conj().T @ y @ basis for y in r.y_matrices)
            for basis in split_self_conjugate(r)[:2]]


def test_split_pieces_inequivalent():
    # classify infers that the halves of 3,2,1 are irreducible and
    # inequivalent; the dense Kronecker system on their matrices agrees
    for q in (Fraction(2), COMPLEX_Q, -0.99):
        report = classify(6, q)
        halves = [label for label in report.labels
                  if label["shape"] == "3,2,1"]
        assert [label["commutant_dim"] for label in halves] == [1, 1]
        plus, minus = half_matrices(report.restrictions["3,2,1"])
        assert kron_hom_dimension(plus, plus) == 1
        assert kron_hom_dimension(minus, minus) == 1
        assert kron_hom_dimension(plus, minus) == 0


def test_each_hom_side_is_decomposed_once(monkeypatch):
    # classify makes no eigendecomposition, forms the Y_i of the
    # self-conjugate shape only, and a restriction's norm bounds on its
    # F_i are computed once however many checks it takes part in.  Only
    # the witness and split residuals need them: a commutant without a
    # witness row, as on 4,1,1, takes none
    eig_calls, bound_calls = [], []
    eig, bounds = np.linalg.eig, alt_decompose._norm_bounds

    def counting_eig(matrix):
        eig_calls.append(matrix.shape)
        return eig(matrix)

    def counting_bounds(mats):
        bound_calls.append((len(mats), mats[0].shape))
        return bounds(mats)

    monkeypatch.setattr(alt_decompose.np.linalg, "eig", counting_eig)
    report = classify(6, Fraction(2))
    assert eig_calls == []
    assert [text for text, r in report.restrictions.items()
            if "y_matrices" in vars(r)] == ["3,2,1"]
    plus, minus = half_matrices(report.restrictions["3,2,1"])
    assert kron_hom_dimension(plus, plus) == kron_hom_dimension(minus, minus) == 1
    assert kron_hom_dimension(plus, minus) == 0
    monkeypatch.setattr(alt_decompose, "_norm_bounds", counting_bounds)
    r, other = restricted("3,2,1"), restricted("4,1,1")
    for _ in range(3):
        assert commutant_dimension(r) == 2
        assert split_self_conjugate(r)[2]["pass"]
        assert commutant_dimension(other) == 1
    assert bound_calls == [(5, (16, 16))]
    assert eig_calls == []


def test_split_rejects_non_self_conjugate():
    with pytest.raises(ValueError):
        split_self_conjugate(restricted("3,1"))


@pytest.mark.parametrize("q", [Fraction(2), 0.3, -0.9, COMPLEX_Q,
                               complex(0, 0.5)])
def test_split_projectors_lie_in_the_solved_commutant(q):
    # each half's orthogonal projector commutes with the restriction: it
    # is a combination of the identity and the transpose witness, the two
    # rows of the commutant
    for text in ("2,1", "2,2", "3,1,1", "3,2,1", "4,1,1,1"):
        r = restricted(text, q)
        null = alt_decompose._commutant(r, 1e-10)
        assert null.shape[0] == 2
        for basis in split_self_conjugate(r)[:2]:
            assert sup_norm(basis.conj().T @ basis - np.eye(r.dim // 2)) \
                < 1e-15
            projector = (basis @ basis.conj().T).ravel()
            inside = (null.conj() @ projector) @ null
            assert sup_norm(projector - inside) < 1e-10


@pytest.mark.parametrize("text", ["2,1", "2,2", "3,1,1", "3,2,1", "4,1,1,1",
                                  "3,3,2", "4,2,1,1", "5,1,1,1,1"])
def test_witness_square_is_the_associate_sign(text):
    # X^2 = eps I with eps = (-1)^((n - k)/2), k the diagonal length: the
    # sign that makes the halves real (eps = 1) or complex (eps = -1)
    rep = build_representation(parse_shape(text), Fraction(2), "f")
    index, signs = hecke_rep.transpose_witness(rep, rep)
    diagonal = sum(1 for i, row in enumerate(rep.shape.rows) if row > i)
    eps = (-1) ** ((rep.n - diagonal) // 2)
    assert np.array_equal(signs * signs[index], np.full(rep.dim, eps))
    plus, minus, _ = split_self_conjugate(restrict(rep))
    assert np.isrealobj(plus) == np.isrealobj(minus) == (eps == 1)


def test_split_spectrum_on_smallest_case():
    # the two halves of the n = 3 mixed shape carry the conjugate eigenvalues
    q = Fraction(2)
    r = restricted("2,1", q)
    plus, minus, _ = split_self_conjugate(r)
    vals = sorted([
        (plus.conj().T @ r.y_matrices[0] @ plus).item(),
        (minus.conj().T @ r.y_matrices[0] @ minus).item(),
    ], key=lambda z: z.imag)
    u = c_squared_at(q)
    roots = sorted(np.roots([1.0, 1.0 + u, 1.0]), key=lambda z: z.imag)
    assert abs(vals[0] - roots[0]) < 1e-10
    assert abs(vals[1] - roots[1]) < 1e-10


@pytest.mark.parametrize("split", [False, True])
def test_a_wrong_witness_sign_fails_the_checks(monkeypatch, split):
    # with every sign +1, X intertwines neither a transpose pair nor the
    # halves of a split: a changed sign convention fails classify's checks
    # instead of passing silently
    def unsigned(rep, onto):
        index, signs = hecke_rep.transpose_witness(rep, onto)
        return index, np.ones_like(signs) if (onto is rep) == split else signs

    monkeypatch.setattr(alt_decompose, "transpose_witness", unsigned)
    for n in (4, 5):
        assert classify(n, Fraction(2)).checks["pass"] is False
    if split:
        assert split_self_conjugate(restricted("3,1,1"))[2]["pass"] is False


# -- classification ----------------------------------------------------------------------

def test_classify_n3():
    report = classify(3, Fraction(2))
    data = report.to_jsonable()
    assert set(data) == {"n", "q", "labels", "equivalences", "checks"}
    assert data["n"] == 3
    assert [item["dim"] for item in data["labels"]] == [1, 1, 1]
    assert all(item["commutant_dim"] == 1 for item in data["labels"])
    assert data["equivalences"] == [["3", "1,1,1"]]
    assert data["checks"] == {"sum_dim_sq": 3, "pass": True}
    tags = [(item["shape"], item["tag"]) for item in data["labels"]]
    assert ("2,1", "plus") in tags and ("2,1", "minus") in tags


def test_classify_n4():
    report = classify(4, Fraction(2))
    data = report.to_jsonable()
    assert [item["dim"] for item in data["labels"]] == [1, 3, 1, 1]
    assert data["checks"] == {"sum_dim_sq": 12, "pass": True}
    assert data["equivalences"] == [["4", "1,1,1,1"], ["3,1", "2,1,1"]]


@pytest.mark.parametrize("q", [Fraction(3, 2), 1.7, -0.9])
def test_classify_n5(q):
    report = classify(5, q)
    data = report.to_jsonable()
    assert data["checks"]["sum_dim_sq"] == 60
    assert data["checks"]["pass"]
    # 5 has three transpose pairs and one self-conjugate shape
    assert len(data["equivalences"]) == 3
    assert sum(1 for item in data["labels"] if item["tag"] != "whole") == 2


@pytest.mark.parametrize("q", [-0.99, -1.01])
@pytest.mark.parametrize("n", [5, 6])
def test_classify_near_minus_one(n, q):
    # generator entries reach about 4e4 here; the intertwiner residuals
    # (up to 3.5e-9) and, at n = 6, the invariance residuals of the halves
    # of 3,2,1 (2e-6) are small only relative to them
    assert classify(n, q).checks == {"sum_dim_sq": math.factorial(n) // 2,
                                     "pass": True}


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_classify_passes_next_to_minus_one(n):
    # the largest entries are about 4e8 here; no cutoff relative to them
    # decides whether a mixed pair is an edge
    assert classify(n, -0.9999).checks == {
        "sum_dim_sq": math.factorial(n) // 2, "pass": True}


@pytest.mark.parametrize("q", [Fraction(2), COMPLEX_Q])
def test_classify_n7(q):
    checks = classify(7, q).checks
    assert checks == {"sum_dim_sq": 2520, "pass": True}


def test_classify_rejects_tiny_n():
    with pytest.raises(ValueError):
        classify(2, Fraction(2))


def test_label_images_span_full_rank():
    # images of the normal-form monomials under the label sum are independent
    for n in (3, 4, 5):
        report = classify(n, Fraction(2))
        mats = []
        for label in report.labels:
            r = report.restrictions[label["shape"]]
            if label["tag"] == "whole":
                mats.append(r.y_matrices)
            elif label["tag"] == "plus":
                mats.extend(half_matrices(r))
        monomials = enumerate_normal_monomials(n)
        rows = []
        for mono in monomials:
            blocks = []
            for ys in mats:
                m = np.eye(ys[0].shape[0], dtype=ys[0].dtype)
                for letter in mono.letters():
                    m = m @ ys[letter - 1]
                blocks.append(np.asarray(m).reshape(-1))
            rows.append(np.concatenate(blocks))
        stacked = np.array(rows)
        expected = math.factorial(n) // 2
        assert len(monomials) == expected
        assert numeric_rank(stacked) == expected


def test_unimodular_spectrum_real_q():
    for n in (3, 4, 5):
        for shape in enumerate_diagrams(n):
            r = restricted(shape.text(), 1.7)
            for y in r.y_matrices:
                eig = np.linalg.eigvals(y)
                assert np.max(np.abs(np.abs(eig) - 1.0)) < 1e-8


# -- induction ---------------------------------------------------------------------------

def test_induction_multiplicities_n3():
    report = classify(3, Fraction(2))
    whole = induction_multiplicities("3", 3, Fraction(2), report)
    assert whole["multiplicities"] == {"3": 1, "2,1": 0, "1,1,1": 1}
    assert whole["dimension_identity"] == {"sum": 2, "expected": 2, "pass": True}
    plus = induction_multiplicities("2,1:plus", 3, Fraction(2), report)
    assert plus["multiplicities"] == {"3": 0, "2,1": 1, "1,1,1": 0}
    assert plus["dimension_identity"]["pass"]


def test_induction_table_n4():
    table = induction_table(4, Fraction(2))
    assert table["pass"]
    by_label = {row["label"]: row["multiplicities"] for row in table["rows"]}
    zero = {"4": 0, "3,1": 0, "2,2": 0, "2,1,1": 0, "1,1,1,1": 0}
    assert by_label["4"] == {**zero, "4": 1, "1,1,1,1": 1}
    assert by_label["3,1"] == {**zero, "3,1": 1, "2,1,1": 1}
    assert by_label["2,2:plus"] == {**zero, "2,2": 1}
    assert by_label["2,2:minus"] == {**zero, "2,2": 1}
    for row in table["rows"]:
        assert row["dimension_identity"]["pass"]


def test_induction_table_builds_each_shape_once(monkeypatch):
    calls = []

    def counting_build(*args, **kwargs):
        calls.append(args[0])
        return build_representation(*args, **kwargs)

    monkeypatch.setattr(alt_decompose, "build_representation", counting_build)
    assert induction_table(6, Fraction(2))["pass"]
    assert len(calls) == len(enumerate_diagrams(6)) == 11


def test_a_zeroed_mixed_pair_fails_classify(monkeypatch):
    # zeroing one mixed pair of f_2 (f_1 is diagonal) on 3,2,1 leaves
    # matrices that are no longer a representation.  The transpose witness
    # pairs each entry with its transposed entry, which is still nonzero,
    # so its residual leaves the -1 row out: the commutant is then not 2,
    # the halves get no inferred commutant, and classify fails
    def mutated(shape, q, form="f"):
        rep = build_representation(shape, q, form)
        if shape.text() != "3,2,1":
            return rep
        mats = list(rep.generator_matrices)
        f2 = mats[1].copy()
        k, l = next((k, l) for k, l in zip(*np.nonzero(f2)) if k != l)
        f2[k, l] = f2[l, k] = 0
        mats[1] = f2
        return dataclasses.replace(rep, generator_matrices=tuple(mats))

    monkeypatch.setattr(alt_decompose, "build_representation", mutated)
    report = classify(6, Fraction(2))
    assert commutant_dimension(report.restrictions["3,2,1"]) != 2
    assert report.checks["pass"] is False
    halves = [label for label in report.labels if label["shape"] == "3,2,1"]
    assert [label["commutant_dim"] for label in halves] == [None, None]
    assert induction_table(6, Fraction(2))["pass"] is False


def test_induction_unknown_label():
    report = classify(3, Fraction(2))
    with pytest.raises(ValueError):
        induction_multiplicities("5,5", 3, Fraction(2), report)


# -- symmetry reports ---------------------------------------------------------------------

def test_transpose_symmetry_trivial_shape():
    report = transpose_symmetry_report(parse_shape("4"), Fraction(2))
    assert report["pass"]
    for entry in report["generators"]:
        assert entry["max_abs_deviation"] < 1e-14
        assert entry["max_signed_deviation"] == 0.0


def test_transpose_symmetry_abs_equality():
    for text in ("3,1", "2,2", "3,2"):
        report = transpose_symmetry_report(parse_shape(text), Fraction(3, 2))
        assert report["pass"]
        for entry in report["generators"]:
            assert entry["max_abs_deviation"] < 1e-10


def test_transpose_symmetry_signed_structure():
    # the mixed block changes sign off the diagonal, so signed deviations
    # are reported without a verdict
    report = transpose_symmetry_report(parse_shape("2,1"), Fraction(2))
    assert len(report["generators"]) == 1
    entry = report["generators"][0]
    signed = entry["signed_deviations"]
    assert signed[0][0] == 0.0 and signed[1][1] == 0.0
    assert abs(signed[0][1]) > 0.1
    assert entry["pass"]  # abs comparison still passes
    assert "verdict" not in entry


# -- the smallest spectrum ------------------------------------------------------------------

@pytest.mark.parametrize("q", SAMPLE_Q)
def test_n3_spectrum(q):
    report = n3_spectrum_report(q)
    assert report["pass"]
    assert report["max_root_deviation"] < 1e-10
    if not isinstance(q, complex) and q > 0:
        assert report["unimodularity_deviation"] < 1e-10
    assert len(report["real_branch_values"]) == 2
    assert "not asserted" in report["real_branch_note"]
