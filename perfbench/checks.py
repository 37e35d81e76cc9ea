"""Output checks, run after the timed pass.

Every CLI request must exit 0 and carry no `"pass": false`.  A `rewrite`
result must reproduce the word's matrix image in every restricted f-form
representation at its q: the sum of value * image(normal word) over the
printed terms may differ from image(word) by at most REWRITE_TOL in any
entry.  Exact checks report `"pass": false` unless their residual is
exactly zero.
"""

from __future__ import annotations

import json
import math

import numpy as np

from qalt.alt_decompose import restrict
from qalt.hecke_rep import build_representation
from qalt.scalars import parse_q
from qalt.tableaux import enumerate_diagrams

REWRITE_TOL = 1e-9   # acceptance criterion 6


def _false_pass(obj) -> bool:
    if isinstance(obj, dict):
        if obj.get("pass") is False:
            return True
        return any(_false_pass(v) for v in obj.values())
    if isinstance(obj, list):
        return any(_false_pass(v) for v in obj)
    return False


def _number(text: str):
    value = parse_q(text)
    return value if isinstance(value, complex) else float(value)


class _Images:
    """Matrix images of y-words in all restricted f-form reps of one (n, q)."""

    def __init__(self, n: int, q: str):
        self.ys = [restrict(build_representation(shape, parse_q(q), "f")).y_matrices
                   for shape in enumerate_diagrams(n)]
        self._memo: dict[tuple[int, ...], list[np.ndarray]] = {}

    def of(self, letters: tuple[int, ...]) -> list[np.ndarray]:
        hit = self._memo.get(letters)
        if hit is None:
            if letters:
                prev = self.of(letters[:-1])
                hit = [m @ ys[letters[-1] - 1] for m, ys in zip(prev, self.ys)]
            else:
                hit = [np.eye(ys[0].shape[0], dtype=ys[0].dtype)
                       for ys in self.ys]
            self._memo[letters] = hit
        return hit


def rewrite_residual(images: _Images, letters, payload) -> float:
    direct = images.of(tuple(letters))
    sums = [np.zeros_like(m, dtype=np.complex128) for m in direct]
    for term in payload["terms"]:
        value = _number(term["value"])
        for acc, m in zip(sums, images.of(tuple(term["word"]))):
            acc += value * m
    return max(float(np.max(np.abs(d - s))) for d, s in zip(direct, sums))


def _invariants(argv, payload) -> str | None:
    """Checks the benchmark makes on top of the program's own verdicts."""
    command = argv[0]
    if command == "tableaux" and "--n" in argv:
        n = int(argv[argv.index("--n") + 1])
        if payload["sum_count_sq"] != math.factorial(n):
            return "sum of squared tableau counts is not n!"
    if command == "dim":
        n = int(argv[argv.index("--n") + 1])
        if not payload["rank"] == payload["expected"] == math.factorial(n) // 2:
            return "rank certificate does not give n!/2"
    return None


def check_pass(ops, results) -> list[str | None]:
    """One failure reason (or None) per operation.

    results[i] is (exit code, output text) of ops[i].
    """
    reasons: list[str | None] = [None] * len(ops)
    rewrites: dict[tuple[int, str], list[int]] = {}
    for i, (op, (code, out)) in enumerate(zip(ops, results)):
        if code != 0:
            reasons[i] = f"exit code {code}"
            continue
        try:
            payload = json.loads(out)
        except json.JSONDecodeError:
            reasons[i] = "output is not JSON"
            continue
        if _false_pass(payload):
            reasons[i] = "payload has pass: false"
        elif op.kind == "cli":
            reasons[i] = _invariants(op.argv, payload)
            if op.argv[0] == "rewrite" and reasons[i] is None:
                rewrites.setdefault((op.n, op.q), []).append(i)
    # one (n, q) group at a time keeps the image memo small
    for (n, q), members in sorted(rewrites.items()):
        images = _Images(n, q)
        for i in members:
            residual = rewrite_residual(images, ops[i].letters,
                                        json.loads(results[i][1]))
            if not residual <= REWRITE_TOL:
                reasons[i] = f"rewrite residual {residual:.3e}"
    return reasons
