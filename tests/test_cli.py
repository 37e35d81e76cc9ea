"""Tests for the command-line interface."""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qalt
from qalt import cli
from qalt.alt_decompose import restrict
from qalt.cli import _COMMANDS, build_parser, main
from qalt.hecke_rep import (
    IndeterminateRankError,
    build_representation,
    sup_norm,
)
from qalt.scalars import Polynomial, RationalFunction, parse_q
from qalt.tableaux import enumerate_diagrams
from qalt.word_algebra import NormalFormMonomial, c_squared, rewrite_y_word


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dim_example(capsys):
    code, out, err = run(capsys, "dim", "--n", "4", "--q", "2")
    assert code == 0
    assert json.loads(out) == {
        "even_words": 12, "rank": 12, "expected": 12, "pass": True}


def test_output_is_byte_identical(capsys):
    _, first, _ = run(capsys, "classify", "--n", "4", "--q", "3/2")
    _, second, _ = run(capsys, "classify", "--n", "4", "--q", "3/2")
    assert first == second
    _, third, _ = run(capsys, "verify", "--n", "4", "--q", "2", "--seed", "3")
    _, fourth, _ = run(capsys, "verify", "--n", "4", "--q", "2", "--seed", "3")
    assert third == fourth


# each call with an option, then the same call without it
PARSER_SEQUENCE = (
    ("induce", "--n", "4", "--q", "2", "--label", "3,1"),
    ("induce", "--n", "4", "--q", "2"),
    ("verify", "--n", "4", "--q", "2", "--seed", "5"),
    ("verify", "--n", "4", "--q", "2"),
    ("rep", "--shape", "2,1", "--q", "3/2", "--form", "g", "--output", "text"),
    ("rep", "--shape", "2,1", "--q", "3/2"),
    ("classify", "--n", "4", "--q", "2", "--tol", "1e-20"),
    ("classify", "--n", "4", "--q", "2"),
)


def test_one_parser_per_process_keeps_no_options(capsys):
    # the cached parser serves every call; each output equals the one a
    # freshly built parser gives, so no option leaks into the next call
    build_parser.cache_clear()
    shared = [run(capsys, *argv) for argv in PARSER_SEQUENCE]
    assert build_parser.cache_info().misses == 1
    assert build_parser.cache_info().hits == len(PARSER_SEQUENCE) - 1
    for argv, result in zip(PARSER_SEQUENCE, shared):
        build_parser.cache_clear()
        assert run(capsys, *argv) == result
    assert shared[0][1] != shared[1][1] and shared[2][1] != shared[3][1]


def test_rewrite_cubic(capsys):
    code, out, _ = run(capsys, "rewrite", "--n", "4", "--word", "y1 y1 y1")
    assert code == 0
    data = json.loads(out)
    assert data["input_word"] == [1, 1, 1]
    terms = {tuple(t["word"]): t["coeff"] for t in data["terms"]}
    assert terms[()] == {"num": "1", "den": "1"}
    assert terms[(1,)] == {"num": "q^2 - 2*q + 1", "den": "q^2 + 2*q + 1"}
    assert terms[(1, 1)] == {"num": "-q^2 + 2*q - 1", "den": "q^2 + 2*q + 1"}


def test_rewrite_with_q_value(capsys):
    code, out, _ = run(capsys, "rewrite", "--n", "4", "--word", "y1 y1 y1",
                       "--q", "3/2")
    assert code == 0
    data = json.loads(out)
    assert data["q"] == "3/2"
    values = {tuple(t["word"]): t["value"] for t in data["terms"]}
    assert values == {(): "1", (1,): "1/25", (1, 1): "-1/25"}


def test_classify_n3(capsys):
    code, out, _ = run(capsys, "classify", "--n", "3", "--q", "2")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"n", "q", "labels", "equivalences", "checks"}
    assert data["checks"] == {"sum_dim_sq": 3, "pass": True}
    assert len(data["labels"]) == 3


def test_tableaux_listing(capsys):
    code, out, _ = run(capsys, "tableaux", "--n", "4")
    data = json.loads(out)
    assert code == 0
    assert data["sum_count_sq"] == 24
    assert [s["shape"] for s in data["shapes"]] == \
        ["4", "3,1", "2,2", "2,1,1", "1,1,1,1"]
    code, out, _ = run(capsys, "tableaux", "--shape", "3,1")
    data = json.loads(out)
    assert data["count"] == 3
    assert data["tableaux"] == ["1,3,4/2", "1,2,4/3", "1,2,3/4"]


def test_rep_output(capsys):
    code, out, _ = run(capsys, "rep", "--shape", "2,1", "--q", "2")
    data = json.loads(out)
    assert code == 0
    assert data["basis"] == ["1,3/2", "1,2/3"]
    assert data["q"] == "2"
    # 17 significant digits, so 5/9 prints with its full double expansion
    assert "0.55555555555555558" in out
    f2 = data["generator_matrices"][1]
    assert abs(f2[0][0]["re"] - 5.0 / 9.0) < 1e-15


def test_verify_with_word_checks(capsys):
    code, out, _ = run(capsys, "verify", "--n", "4", "--q", "3/2",
                       "--seed", "11")
    data = json.loads(out)
    assert code == 0
    assert data["pass"] is True
    assert data["word_checks"]["pass"] is True
    assert data["word_checks"]["samples"] == 20


def letter_by_letter_checks(n, q, tol, seed, samples=20, length=10):
    """The seeded word checks as first written: every word and every
    normal-form monomial multiplied letter by letter, once per shape."""
    rng = np.random.default_rng(seed)
    qv = complex(q) if isinstance(q, complex) else float(q)
    restrictions = [restrict(build_representation(shape, q, "f"))
                    for shape in enumerate_diagrams(n)]
    worst = 0.0
    for _ in range(samples):
        word = [int(rng.integers(1, n - 1)) for _ in range(length)]
        terms = [(NormalFormMonomial(code).letters(), coeff.evaluate(qv))
                 for code, coeff in rewrite_y_word(word, n).terms.items()]
        for r in restrictions:
            direct = np.eye(r.dim, dtype=r.y_matrices[0].dtype)
            for letter in word:
                direct = direct @ r.y_matrices[letter - 1]
            image = np.zeros_like(direct)
            for letters, value in terms:
                m = np.eye(r.dim, dtype=direct.dtype)
                for letter in letters:
                    m = m @ r.y_matrices[letter - 1]
                image = image + value * m
            worst = max(worst, sup_norm(direct - image))
    return {"seed": seed, "samples": samples, "word_length": length,
            "max_residual": worst, "pass": worst < tol}


# real, rational, complex and near -1
WORD_CHECK_Q = ("2", "0.3", "1.7", "3/2", "5/7", "1+0.5i", "0.5i",
                "-0.9", "-0.99", "-1.01")


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 7), st.integers(0, 2**32 - 1),
       st.sampled_from(WORD_CHECK_Q))
def test_word_checks_match_letter_by_letter_products(n, seed, q_text):
    q = parse_q(q_text)
    assert (cli._seeded_word_checks(n, q, 1e-9, seed)
            == letter_by_letter_checks(n, q, 1e-9, seed))


@pytest.mark.parametrize("n, q_text", [(5, "1+0.5i"), (6, "2"), (6, "-0.9")])
def test_word_checks_in_chunks_of_one_word(monkeypatch, n, q_text):
    q = parse_q(q_text)
    expected = letter_by_letter_checks(n, q, 1e-9, 5)
    monkeypatch.setattr(cli, "WORD_CHECK_ENTRIES", 1)
    assert cli._seeded_word_checks(n, q, 1e-9, 5) == expected


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(0, 2**70), st.integers(2**128, 2**256)),
       st.integers(3, 12))
def test_seeded_letters_are_numpys_draws(seed, n):
    # n = 3 is the range-0 path, where numpy makes no draw; a seed of
    # 2^128 or more has more than four 32-bit words, which SeedSequence
    # mixes into the pool after the first four
    rng = np.random.default_rng(seed)
    expected = [int(rng.integers(1, n - 1)) for _ in range(200)]
    assert cli._seeded_letters(seed, n, 200) == expected


@pytest.mark.parametrize("n", [2**31 + 3, 3 * 2**30 + 2, 2**32 + 1])
def test_seeded_letters_reject_as_numpy_does(n):
    # 2^32 mod (n - 2) is a quarter to a half of 2^32 here, so Lemire's
    # rejection step runs often; the draws still match
    for seed in (0, 1, 2**64 + 9, 2**128 + 5, 2**160 - 1):
        rng = np.random.default_rng(seed)
        expected = [int(rng.integers(1, n - 1)) for _ in range(200)]
        assert cli._seeded_letters(seed, n, 200) == expected


def test_negative_seed_exits_one(capsys):
    code, out, err = run(capsys, "verify", "--n", "4", "--seed", "-1")
    assert (code, out, err) == (1, "", "error: expected non-negative integer\n")


def test_word_chunks_fit_the_entry_limit(monkeypatch):
    # nodes 0..6 at depths 0, 1, 2, 2, 1, 2, 3; each node one entry
    need = [{0, 1, 2}, {0, 1, 3}, {0, 4, 5, 6}]
    depth = np.array([0, 1, 2, 2, 1, 2, 3])
    monkeypatch.setattr(cli, "WORD_CHECK_ENTRIES", 4)
    chunks = [(list(words), nodes.tolist())
              for words, nodes in cli._word_chunks(need, depth, 1)]
    assert chunks == [([0, 1], [0, 1, 2, 3]), ([2], [0, 4, 5, 6])]
    monkeypatch.setattr(cli, "WORD_CHECK_ENTRIES", 7)
    chunks = [(list(words), nodes.tolist())
              for words, nodes in cli._word_chunks(need, depth, 1)]
    assert chunks == [([0, 1, 2], [0, 1, 4, 2, 3, 5, 6])]


def test_verify_failure_exits_two(capsys):
    code, out, err = run(capsys, "verify", "--n", "3", "--q", "2",
                         "--tol", "1e-20")
    assert code == 2
    assert "verification failed" in err
    assert json.loads(out)["pass"] is False


def test_classify_tol_reaches_the_split_route(capsys):
    # at -0.99 the halves of 3,2,1 have invariance residual 3.4e-12, above
    # the 2.0e-12 that --tol 5e-17 allows for generators of norm bound 4e4.
    # The commutant rows and the transpose witnesses have residual 0
    code, out, err = run(capsys, "classify", "--n", "6", "--q", "-0.99",
                         "--tol", "5e-17")
    assert (code, err) == (2, "verification failed\n")
    payload = json.loads(out)
    assert payload["checks"]["pass"] is False
    assert [label["commutant_dim"] for label in payload["labels"]
            if label["shape"] == "3,2,1"] == [None, None]
    assert all(label["commutant_dim"] == 1 for label in payload["labels"]
               if label["shape"] != "3,2,1")
    code, _, _ = run(capsys, "classify", "--n", "6", "--q", "-0.99",
                     "--tol", "1e-16")
    assert code == 0


def test_induce_table(capsys):
    code, out, _ = run(capsys, "induce", "--n", "3", "--q", "2")
    data = json.loads(out)
    assert code == 0
    assert data["pass"] is True
    assert len(data["rows"]) == 3
    code, out, _ = run(capsys, "induce", "--n", "4", "--q", "2",
                       "--label", "2,2:plus")
    data = json.loads(out)
    assert data["multiplicities"]["2,2"] == 1


def test_symmetry_report(capsys):
    code, out, _ = run(capsys, "symmetry", "--shape", "3,1", "--q", "2")
    data = json.loads(out)
    assert code == 0
    assert data["pass"] is True
    for entry in data["generators"]:
        assert entry["max_abs_deviation"] < 1e-10


def test_text_output(capsys):
    code, out, _ = run(capsys, "dim", "--n", "4", "--q", "2",
                       "--output", "text")
    assert code == 0
    assert "pass: true" in out
    assert "{" not in out


def test_invalid_inputs_exit_one(capsys):
    cases = [
        ("rep", "--shape", "2,1", "--q", "0"),
        ("rep", "--shape", "2,1", "--q", "-1"),
        ("rep", "--shape", "2,1", "--q", "bogus"),
        ("dim", "--n", "12"),
        ("dim", "--n", "1"),
        ("rewrite", "--n", "4", "--word", "y9"),
        ("rewrite", "--n", "4", "--word", "hello"),
        ("classify", "--n", "2"),
        ("nonsense",),
        ("rep", "--shape", "2;1"),
        ("induce", "--n", "3", "--q", "2", "--label", "9"),
    ]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert err.strip(), argv


@pytest.mark.parametrize("argv", [
    ("verify", "--n", "4", "--q", "nani"),
    ("classify", "--n", "4", "--q", "1e400"),
    ("dim", "--n", "4", "--q", "1e400"),
    ("rewrite", "--n", "4", "--word", "y1 y1 y1", "--q", "1e400"),
    ("dim", "--n", "4", "--q", "1/0"),
])
def test_non_finite_q_exits_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: bad q {argv[-1]!r}: ")


@pytest.mark.parametrize("argv", [
    ("classify", "--n", "4", "--q", "1e200"),
    ("verify", "--n", "4", "--q", "1e200"),
    ("dim", "--n", "4", "--q", "1" + "0" * 400),
])
def test_float_overflow_exits_one(capsys, argv):
    # q ** d overflows in the seminormal entries; a 401-digit exact q
    # overflows when it is converted to a float
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


def test_rewrite_at_large_q_is_finite(capsys):
    # q^2 overflows in a coefficient's numerator and denominator alike;
    # the value inf / inf once came out as "nan" with exit 0, then as an
    # exit 1, but (q - 1)^2 / (q + 1)^2 is about 1
    code, out, err = run(capsys, "rewrite", "--n", "4", "--word", "y1 y1 y1",
                         "--q", "1e200")
    assert (code, err) == (0, "")
    values = [term["value"] for term in json.loads(out)["terms"]]
    assert values == ["1.0", "1.0", "-1.0"]


def test_rewrite_near_minus_one_is_correctly_rounded(capsys):
    # the denominator (q + 1)^16 cancels catastrophically in floats at
    # q = -0.9, where float Horner printed -1.01e17, 4.60e17 and -4.61e17;
    # these are the exact values at the binary -0.9, rounded once
    code, out, err = run(capsys, "rewrite", "--n", "3",
                         "--word", " ".join(["y1"] * 10), "--q", "-0.9")
    assert (code, err) == (0, "")
    values = [term["value"] for term in json.loads(out)["terms"]]
    assert values == ["-8.123478684113582e+17", "-2.9325533642449066e+20",
                      "2.9406768429290203e+20"]


def test_coefficients_beyond_the_float_range_give_a_finite_value():
    # as in the coefficients of a 550-letter y1 word at n = 3: only the
    # quotient is rounded, and (q - 1)^2 / (q + 1)^2 is 1/9 at q = 1/2
    c2 = c_squared()
    scaled = [Polynomial([10**400 * c for c in p.coeffs])
              for p in (c2.num, c2.den)]
    assert RationalFunction(*scaled).evaluate(0.5) == 1 / 9


def test_seminormal_overflow_names_q_and_n(capsys):
    # B of the f-block overflows at q = 1e100 while q^d does not, and at
    # 1e200 the float q^d itself raises; either way the build refuses
    # before any matrix product can warn about inf or nan
    for command, q, shown in (("classify", "1e100", "1e+100"),
                              ("classify", "1e200", "1e+200"),
                              ("verify", "1e200", "1e+200")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, command, "--n", "4", "--q", q)
        assert (code, out) == (1, "")
        assert err == ("error: out of floating-point range: a seminormal "
                       f"entry is not finite at q = {shown}, n = 4\n")


@pytest.mark.parametrize("q", ["-0.99", "-1.01", "-0.9999"])
@pytest.mark.parametrize("command", ["classify", "induce"])
def test_n7_near_minus_one_passes(capsys, command, q):
    # entries reach about 4e4 here (4e8 at -0.9999, where a cutoff
    # relative to the largest entry of a linear system once gave exit 3);
    # each mixed pair is judged against its own diagonal entry, and the
    # output is the q = 2 output apart from "q"
    def without_q(obj):
        if isinstance(obj, dict):
            return {k: without_q(v) for k, v in obj.items() if k != "q"}
        if isinstance(obj, list):
            return [without_q(v) for v in obj]
        return obj

    code, out, err = run(capsys, command, "--n", "7", "--q", q)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["q"] == q
    assert (payload["checks"] if command == "classify" else payload)["pass"]
    code, reference, _ = run(capsys, command, "--n", "7", "--q", "2")
    assert code == 0
    assert without_q(payload) == without_q(json.loads(reference))


def test_cap_override(capsys):
    code, out, _ = run(capsys, "tableaux", "--n", "9", "--max-n", "9")
    assert code == 0
    assert json.loads(out)["n"] == 9


def test_indeterminate_rank_exits_three(capsys, monkeypatch):
    def explode(args):
        raise IndeterminateRankError("no spectral gap at the cutoff")

    monkeypatch.setitem(_COMMANDS, "dim", explode)
    code, out, err = run(capsys, "dim", "--n", "4", "--q", "2")
    assert code == 3
    assert "indeterminate" in err


@pytest.mark.parametrize("n, q", [("3", "-0.9999"), ("4", "-0.99"),
                                  ("5", "-0.95"), ("6", "-0.99")])
def test_dim_deficient_float_rank_is_proved_exactly(capsys, n, q):
    # the SVD of the word matrix reads a rank below n!/2 here; the
    # branching squares floats cannot decide are nonsingular mod p
    code, out, err = run(capsys, "dim", "--n", n, "--q", q)
    assert (code, err) == (0, "")
    rows = math.factorial(int(n)) // 2
    assert json.loads(out) == {"even_words": rows, "expected": rows,
                               "pass": True, "rank": rows}


def test_dim_n8_is_decided_by_the_branching_bound(capsys):
    # every branching square passes in floats at q = 2
    code, out, err = run(capsys, "dim", "--n", "8", "--q", "2")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"even_words": 20160, "expected": 20160,
                               "pass": True, "rank": 20160}


def test_missing_required_flag(capsys):
    code, _, err = run(capsys, "rewrite", "--n", "4")
    assert code == 1
    assert err.strip()


@pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf", "-inf"])
@pytest.mark.parametrize("argv", [("verify", "--n", "3"),
                                  ("classify", "--n", "4"),
                                  ("symmetry", "--shape", "2,1")])
def test_tol_must_be_finite_and_positive(capsys, argv, tol):
    # such a --tol would fail every check (nan, 0, -1) or pass it (inf);
    # it is a usage error instead
    code, out, err = run(capsys, *argv, f"--tol={tol}")
    assert (code, out) == (1, "")
    assert err == ("error: argument --tol: tolerance must be finite and "
                   f"positive: {tol!r}\n")


def child_env() -> dict:
    """The environment of a child process that imports the same qalt as
    this test, installed or not."""
    src = os.path.dirname(os.path.dirname(qalt.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qalt.cli", "dim", "--n", "4", "--q", "2"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True


def test_seeded_verify_leaves_numpy_random_unimported():
    script = ("import sys\n"
              "from qalt.cli import main\n"
              "code = main(['verify', '--n', '4', '--seed', '3'])\n"
              "print(code, 'numpy.random' in sys.modules, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=child_env())
    assert proc.stderr == "0 False\n"
    assert json.loads(proc.stdout)["word_checks"]["pass"] is True


def test_overflowing_residuals_leave_one_error_line():
    # at q = 1e150 the g-form entries are finite but their products are
    # not: the residuals carry the inf or nan, and stderr holds the error
    # line alone, with no numpy warning naming a source path
    proc = subprocess.run(
        [sys.executable, "-m", "qalt.cli", "verify", "--n", "3",
         "--q", "1e150", "--form", "g"],
        capture_output=True, text=True, env=child_env())
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == ("error: out of floating-point range: a seminormal "
                           "entry is not finite at q = 1e+150, n = 3\n")


def test_closed_pipe_exits_quietly():
    # the report (about 440 kB) outgrows the pipe buffer, so the child is
    # still writing when the reader closes its end
    proc = subprocess.Popen(
        [sys.executable, "-m", "qalt.cli", "rep", "--shape", "4,2,1",
         "--q", "1+0.5i"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    try:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert b"Traceback" not in err
    assert b"BrokenPipeError" not in err
    assert code == 1
