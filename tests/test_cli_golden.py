"""Byte-identity guard: CLI output of the exact layer and the rank certificate.

tests/data/cli_golden.json holds, for every request listed by `requests()`,
its exit code and the sha256 digests of its stdout and stderr.  The
requests are:

- `rewrite` at n = 3..7 for word lengths 0..16, one word per (n, length)
  drawn from numpy's default_rng([n, length]), at each sample q of the
  acceptance suite and at 1+0.5i;
- `verify --seed 7` at n = 5 and 6 for q in {2, 3/2, 0.3, 1+0.5i};
- `dim` at n = 3..6 for q in {2, 3/2, 0.3, 1+0.5i, -0.9, 1e-5}; some of
  these exit 3 (indeterminate rank), and the message is part of stderr.

The digests were recorded at commit da32be3, where every exact
coefficient was built by gcd-reduced RationalFunction arithmetic and a
full rank was read from the Gram matrix's eigenvalues; they pin the
output of the current code to that one.  Canonical num/den are unique and
every value is evaluated from them, so the bytes must not move.  To
record the file again, run from the root of the repository:

    PYTHONPATH=src python tests/test_cli_golden.py > tests/data/cli_golden.json

and only when an output change is intended.
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

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

SAMPLE_Q = ("2", "3/2", "5/7", "0.3", "1.7")
COMPLEX_Q = "1+0.5i"
DIM_Q = ("2", "3/2", "0.3", "1+0.5i", "-0.9", "1e-5")
VERIFY_Q = ("2", "3/2", "0.3", "1+0.5i")


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
    return {"rewrite": rewrite, "verify_seed": verify, "dim": dim}


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


@pytest.mark.parametrize("group", ["rewrite", "verify_seed", "dim"])
def test_cli_output_matches_golden(group):
    golden = json.loads(GOLDEN.read_text())[group]
    argvs = requests()[group]
    assert [entry["argv"] for entry in golden] == argvs
    changed = [" ".join(entry["argv"]) for entry in golden
               if record(entry["argv"]) != entry]
    assert changed == []


if __name__ == "__main__":
    # one request per line
    groups = [f'"{group}": [\n' + ",\n".join(json.dumps(record(argv))
                                             for argv in argvs) + "\n]"
              for group, argvs in requests().items()]
    sys.stdout.write("{" + ",\n".join(groups) + "}\n")
