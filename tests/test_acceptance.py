"""Acceptance suite: one test per criterion, tolerances pinned here."""

import math
import time
from fractions import Fraction

import numpy as np

from qalt.tableaux import enumerate_diagrams, parse_shape, transpose
from qalt.word_algebra import (
    NormalFormMonomial,
    enumerate_even_uwords,
    enumerate_normal_monomials,
    hecke_f_relation_check_exact,
    rewrite_y_word,
    verify_presentation_relations,
)
from qalt.hecke_rep import (
    build_representation,
    dimension_certificate,
    sup_norm,
    verify_relations,
)
from qalt.alt_decompose import (
    classify,
    commutant_dimension,
    induction_table,
    n3_spectrum_report,
    restrict,
)

RANK_THRESHOLD = 1e-8        # singular values below this ratio count as zero
REP_TOL = 1e-10              # relation residual bound
LIMIT_TOL = 1e-12            # q = 1 regularized form vs orthogonal form
WORD_TOL = 1e-9              # random word image vs normal-form image
SPECTRUM_TOL = 1e-10         # eigenvalue bound for the smallest split
RUNTIME_LIMIT = 60.0         # seconds, n = 7 certificate
SAMPLE_Q = (Fraction(2), Fraction(3, 2), Fraction(5, 7), 0.3, 1.7)
WORD_Q = (2.0, 1.5, 0.3)
WORD_COUNT = 1000
WORD_SEED = 20260816


def test_criterion_1_dimension_certificate():
    start = time.monotonic()
    for n in range(3, 8):
        expected = math.factorial(n) // 2
        assert len(enumerate_even_uwords(n)) == expected
        assert len(enumerate_normal_monomials(n)) == expected
        cert = dimension_certificate(n, Fraction(2))
        assert cert == {"even_words": expected, "rank": expected,
                        "expected": expected, "pass": True}
    assert time.monotonic() - start < RUNTIME_LIMIT


def test_criterion_2_exact_presentation():
    for n in range(3, 7):
        report = verify_presentation_relations(n)
        assert report["pass"], report
        for relation in report["relations"]:
            assert relation["residual_terms"] == 0, relation
    for n in range(3, 6):
        report = hecke_f_relation_check_exact(n)
        assert report["pass"], report


def test_criterion_3_representation_relations():
    for n in range(3, 8):
        shapes = enumerate_diagrams(n)
        assert sum(len(build_representation(s, Fraction(2), "f").basis) ** 2
                   for s in shapes) == math.factorial(n)
        for q in SAMPLE_Q:
            for shape in shapes:
                report = verify_relations(build_representation(shape, q, "f"),
                                          tol=REP_TOL)
                assert report["pass"], (shape.text(), q, report)


def test_criterion_4_limit_matches_orthogonal_form():
    for n in range(2, 7):
        for shape in enumerate_diagrams(n):
            lim = build_representation(shape, Fraction(1), "f")
            sym = build_representation(shape, None, "sym")
            for a, b in zip(lim.generator_matrices, sym.generator_matrices):
                assert sup_norm(a - b) < LIMIT_TOL


def test_criterion_5_classification():
    for n in range(3, 7):
        expected_sum = math.factorial(n) // 2
        for q in SAMPLE_Q:
            report = classify(n, q)
            data = report.to_jsonable()
            assert data["checks"] == {"sum_dim_sq": expected_sum,
                                      "pass": True}
            assert all(item["commutant_dim"] == 1 for item in data["labels"])
            # unsplit commutants straight from the restrictions
            for shape in enumerate_diagrams(n):
                r = restrict(build_representation(shape, q, "f"))
                expected_dim = 2 if shape.is_self_conjugate else 1
                assert commutant_dimension(r) == expected_dim, (shape.text(), q)
            # equivalences are exactly the transpose pairs
            pairs = {frozenset(pair) for pair in data["equivalences"]}
            expected_pairs = set()
            for shape in enumerate_diagrams(n):
                if not shape.is_self_conjugate:
                    expected_pairs.add(
                        frozenset({shape.text(), transpose(shape).text()}))
            assert pairs == expected_pairs
            # self-conjugate labels come in equal-dimension pairs
            halves = {}
            for item in data["labels"]:
                if item["tag"] != "whole":
                    halves.setdefault(item["shape"], []).append(item["dim"])
            for shape_text, dims in halves.items():
                whole = len(build_representation(
                    parse_shape(shape_text), q, "f").basis)
                assert dims == [whole // 2, whole // 2]


def test_criterion_6_rewriting_soundness():
    rng = np.random.default_rng(WORD_SEED)
    budget = [334, 333, 333]
    checked = 0
    for n, count in zip((3, 4, 5), budget):
        # restricted matrices and monomial images per q point, computed once
        mats_per_q = []
        for q in WORD_Q:
            mats_per_q.append([
                restrict(build_representation(shape, q, "f")).y_matrices
                for shape in enumerate_diagrams(n)])
        cache = []
        for ys_list in mats_per_q:
            per_q = []
            for ys in ys_list:
                images = {}
                dim = ys[0].shape[0] if ys else 1
                for mono in enumerate_normal_monomials(n):
                    m = np.eye(dim)
                    for letter in mono.letters():
                        m = m @ ys[letter - 1]
                    images[mono.code] = m
                per_q.append(images)
            cache.append(per_q)
        for _ in range(count):
            length = int(rng.integers(0, 13))
            word = [int(rng.integers(1, n - 1)) for _ in range(length)]
            comb = rewrite_y_word(word, n)
            for qi, q in enumerate(WORD_Q):
                coeffs = {code: coeff.evaluate(q)
                          for code, coeff in comb.terms.items()}
                for ys, images in zip(mats_per_q[qi], cache[qi]):
                    dim = ys[0].shape[0] if ys else 1
                    direct = np.eye(dim)
                    for letter in word:
                        direct = direct @ ys[letter - 1]
                    image = np.zeros((dim, dim))
                    for code, value in coeffs.items():
                        image = image + value * images[code]
                    assert sup_norm(direct - image) < WORD_TOL
            checked += 1
    assert checked == WORD_COUNT


def test_criterion_7_induction_multiplicities():
    for n in range(3, 6):
        table = induction_table(n, Fraction(2))
        assert table["pass"]
        for row in table["rows"]:
            label = row["label"]
            if ":" in label:
                shape_text = label.split(":")[0]
                expected = {s.text(): 1 if s.text() == shape_text else 0
                            for s in enumerate_diagrams(n)}
            else:
                mate = transpose(parse_shape(label)).text()
                expected = {s.text(): 1 if s.text() in (label, mate) else 0
                            for s in enumerate_diagrams(n)}
            assert row["multiplicities"] == expected, label
            assert row["dimension_identity"]["pass"], label


def test_criterion_8_smallest_spectrum():
    for q in SAMPLE_Q:
        report = n3_spectrum_report(q, tol=SPECTRUM_TOL)
        assert report["pass"], report
        assert report["max_root_deviation"] < SPECTRUM_TOL
        assert report["unimodularity_deviation"] < SPECTRUM_TOL
        # the printed closed form is juxtaposed, never asserted
        assert len(report["real_branch_values"]) == 2
        assert "not asserted" in report["real_branch_note"]
        # independent root check against the quadratic's coefficients
        c2 = float((q - 1) ** 2) / float((q + 1) ** 2)
        for z in report["eigenvalues"]:
            value = complex(z["re"], z["im"])
            assert abs(value * value + (1 + c2) * value + 1) < 1e-9
