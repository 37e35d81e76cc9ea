"""Byte-identity guard: CLI output of the exact layer, the rank certificate
and the classification.

tests/data/cli_golden.json holds, for every request listed by `requests()`,
its exit code and the sha256 digests of its stdout and stderr.  The
requests are:

- `rewrite` at n = 3..7 for word lengths 0..16, one word per (n, length)
  drawn from numpy's default_rng([n, length]), at each sample q of the
  acceptance suite and at 1+0.5i;
- `verify --seed 7` at n = 5 and 6 for q in {2, 3/2, 0.3, 1+0.5i};
- `dim` at n = 3..6 for q in {2, 3/2, 0.3, 1+0.5i, -0.9, 1e-5}, at n = 7
  for q = -0.5 and at n = 8 for q in {-0.9, 1e-5}; every one passes, some
  through squares that only the exact verdict decides;
- `classify` and `induce` (the whole table) at n = 3..6, at each sample
  q of the acceptance suite and at 1+0.5i, and `induce --n 6 --q 2
  --label` for a whole label (4,2) and a split one (3,2,1:plus);
- `symmetry` for every shape of n = 3..6, at each sample q of the
  acceptance suite and at 1+0.5i;
- `classify_offsample`: `classify` and `induce` at n = 3..6 for q in
  {-0.9, -0.99, -1.01, 0.5i, 1}, where real and complex input once took
  different branches of the split and of the Hom basis;
- `frontier`: `classify` and `induce` at n = 7 for q in {2, 0.3, 1+0.5i,
  -0.9, 0.5i}, and `classify --n 8 --q 2`, the largest requests the CLI
  accepts by default;
- `rep`: every shape of n = 2..5 (the CLI refuses n < 2) in each form
  f, g and sym at q in {2, 0.3, 1+0.5i}, and the 35-dimensional shapes
  4,2,1 and 3,2,1,1 at q = 2 and 1+0.5i;
- `text`: `--output text` for one small request of each subcommand,
  with `rep` and `symmetry` also at q = 1+0.5i, where the entries are
  complex.
- `word_checks`: `verify --seed 7` at n = 3, 4 and 7 for q in
  {2, 5/7, 0.3, -0.9, 1+0.5i, 0.5i}; `verify --shape 3,2,1` and
  `--shape 4,2,1` with `--seed 7` at q = 2 and 1+0.5i, where the word
  checks still run over every shape of n; `verify --n 5 --seed 7` in the
  forms g and sym, where they are skipped; and `verify --n 8 --seed 3`
  at q = 2 and 1+0.5i.

The rewrite and verify_seed digests were recorded again when a
coefficient's value at a float or complex q became its exact value at
the binary q, rounded once, in place of float Horner on the expanded
numerator and denominator: 169 of the 510 rewrite entries and 1 of the
8 verify_seed entries moved, and no exit code changed.  Canonical
num/den are unique and a correctly rounded value is a function of them
alone, so these bytes move only if a coefficient does.  The dim digests were recorded again when each
branching square got its own verdict, exact mod p where floats fall
short, in place of the SVD of the word matrix: every request that passed
before kept its bytes, and the n = 5, 6 requests at -0.9 and 1e-5, which
exited 3, pass.  The classify and induce digests were
recorded at commit 78f5474, where every Hom solve eigendecomposed both
of its sides afresh and the seminormal matrices were built entry by
entry from partner tableaux; reusing one spectral record per side keeps
every floating-point operation, so those bytes must not move either.
The symmetry and classify_offsample digests were recorded at commit
cae87bd, before the split of a self-conjugate restriction took one path
for real and complex input.  The frontier digests were recorded at
commit 6fc2f7f, where each transpose pair was checked by a Hom solve and
a self-conjugate restriction was split by an eigendecomposition of a
non-scalar element of its solved commutant.  The rep and text digests
were recorded at commit 1b6771a, where the JSON renderer tagged each
float with a sentinel string, ran the `json` module's encoder and
stripped the tags again, and the text renderer stripped the same tags.
The word_checks digests were recorded at commit 3533bb0, where the
seeded word checks multiplied every word and every normal-form monomial
letter by letter, once per shape, and again with the correctly rounded
coefficient values: 8 of the 26 moved, and the three requests at
q = -0.9 still exit 2.

To record groups again, run from the root of the repository, naming
the groups:

    PYTHONPATH=src python tests/test_cli_golden.py classify induce

This rewrites only the named groups of tests/data/cli_golden.json (in
the order of `requests()`) and copies every other group unchanged.  Do
it only when an output change is intended, or to add a new group.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from qalt.cli import main
from qalt.tableaux import enumerate_diagrams

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

SAMPLE_Q = ("2", "3/2", "5/7", "0.3", "1.7")
COMPLEX_Q = "1+0.5i"
DIM_Q = ("2", "3/2", "0.3", "1+0.5i", "-0.9", "1e-5")
VERIFY_Q = ("2", "3/2", "0.3", "1+0.5i")
INDUCE_LABELS = ("4,2", "3,2,1:plus")
OFFSAMPLE_Q = ("-0.9", "-0.99", "-1.01", "0.5i", "1")
FRONTIER_Q = ("2", "0.3", "1+0.5i", "-0.9", "0.5i")
REP_Q = ("2", "0.3", "1+0.5i")
WORD_CHECK_Q = ("2", "5/7", "0.3", "-0.9", "1+0.5i", "0.5i")
TEXT_REQUESTS = (
    ["tableaux", "--n", "4"],
    ["tableaux", "--shape", "3,1"],
    ["rep", "--shape", "2,1", "--q", "2"],
    ["rep", "--shape", "2,1", "--q", "1+0.5i"],
    ["verify", "--n", "4", "--q", "2", "--seed", "7"],
    ["rewrite", "--n", "4", "--word", "y1 y2 y1", "--q", "2"],
    ["dim", "--n", "4", "--q", "2"],
    ["classify", "--n", "4", "--q", "2"],
    ["induce", "--n", "4", "--q", "2"],
    ["symmetry", "--shape", "2,1", "--q", "2"],
    ["symmetry", "--shape", "2,1", "--q", "1+0.5i"],
)


def requests() -> dict:
    """The argv lists of each group, in a fixed order."""
    rewrite = []
    for n in range(3, 8):
        for length in range(17):
            rng = np.random.default_rng([n, length])
            letters = rng.integers(1, n - 1, length)
            word = " ".join(f"y{int(k)}" for k in letters)
            for q in SAMPLE_Q + (COMPLEX_Q,):
                rewrite.append(["rewrite", "--n", str(n), "--word", word,
                                "--q", q])
    verify = [["verify", "--n", str(n), "--q", q, "--seed", "7"]
              for n in (5, 6) for q in VERIFY_Q]
    dim = [["dim", "--n", str(n), "--q", q]
           for n in range(3, 7) for q in DIM_Q]
    dim += [["dim", "--n", "7", "--q", "-0.5"]]
    dim += [["dim", "--n", "8", "--q", q] for q in ("-0.9", "1e-5")]
    classify = [["classify", "--n", str(n), "--q", q]
                for n in range(3, 7) for q in SAMPLE_Q + (COMPLEX_Q,)]
    induce = [["induce", "--n", str(n), "--q", q]
              for n in range(3, 7) for q in SAMPLE_Q + (COMPLEX_Q,)]
    induce += [["induce", "--n", "6", "--q", "2", "--label", label]
               for label in INDUCE_LABELS]
    symmetry = [["symmetry", "--shape", shape.text(), "--q", q]
                for n in range(3, 7) for shape in enumerate_diagrams(n)
                for q in SAMPLE_Q + (COMPLEX_Q,)]
    offsample = [[command, "--n", str(n), "--q", q]
                 for command in ("classify", "induce")
                 for n in range(3, 7) for q in OFFSAMPLE_Q]
    frontier = [[command, "--n", "7", "--q", q]
                for command in ("classify", "induce") for q in FRONTIER_Q]
    frontier.append(["classify", "--n", "8", "--q", "2"])
    rep = [["rep", "--shape", shape.text(), "--form", form, "--q", q]
           for n in range(2, 6) for shape in enumerate_diagrams(n)
           for form in ("f", "g", "sym") for q in REP_Q]
    rep += [["rep", "--shape", shape, "--q", q]
            for shape in ("4,2,1", "3,2,1,1") for q in ("2", "1+0.5i")]
    text = [argv + ["--output", "text"] for argv in TEXT_REQUESTS]
    word_checks = [["verify", "--n", str(n), "--q", q, "--seed", "7"]
                   for n in (3, 4, 7) for q in WORD_CHECK_Q]
    word_checks += [["verify", "--shape", shape, "--q", q, "--seed", "7"]
                    for shape in ("3,2,1", "4,2,1") for q in ("2", "1+0.5i")]
    word_checks += [["verify", "--n", "5", "--q", "2", "--form", form,
                     "--seed", "7"] for form in ("g", "sym")]
    word_checks += [["verify", "--n", "8", "--q", q, "--seed", "3"]
                    for q in ("2", "1+0.5i")]
    return {"rewrite": rewrite, "verify_seed": verify, "dim": dim,
            "classify": classify, "induce": induce, "symmetry": symmetry,
            "classify_offsample": offsample, "frontier": frontier,
            "rep": rep, "text": text, "word_checks": word_checks}


def record(argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    def digest(stream):
        return hashlib.sha256(stream.getvalue().encode()).hexdigest()

    return {"argv": argv, "exit": code,
            "stdout_sha256": digest(out), "stderr_sha256": digest(err)}


@pytest.mark.parametrize("group", list(requests()))
def test_cli_output_matches_golden(group):
    golden = json.loads(GOLDEN.read_text())[group]
    argvs = requests()[group]
    assert [entry["argv"] for entry in golden] == argvs
    changed = [" ".join(entry["argv"]) for entry in golden
               if record(entry["argv"]) != entry]
    assert changed == []


def rerecord(names: list) -> None:
    """Record the named groups again; keep every other group as it is."""
    argvs = requests()
    unknown = sorted(set(names) - set(argvs))
    if not names or unknown:
        raise SystemExit(f"name groups to record from {list(argvs)}"
                         + (f"; unknown: {unknown}" if unknown else ""))
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for name in names:
        golden[name] = [record(argv) for argv in argvs[name]]
    # one request per line, groups in the order of requests()
    groups = [f'"{group}": [\n' + ",\n".join(json.dumps(entry)
                                             for entry in golden[group])
              + "\n]" for group in argvs if group in golden]
    GOLDEN.write_text("{" + ",\n".join(groups) + "}\n")


if __name__ == "__main__":
    rerecord(sys.argv[1:])
