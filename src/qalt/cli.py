"""Command-line front door.

Subcommands: tableaux, rep, verify, rewrite, dim, classify, induce,
symmetry.  Reports go to standard output as JSON or as indented text.
The JSON is byte-identical across runs: keys sorted as strings, a
two-space indent, ASCII escapes as by the `json` module, every float as
`format(x, '.17g')` (so zero prints `0`, nan `nan`), and a 2-D ndarray
as its rows, complex entries (all of `rep`'s) as {"im", "re"} objects.
Exit codes: 0 success, 1 invalid input, 2 failed verification, 3
indeterminate numeric rank.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

import numpy as np

from .scalars import parse_q, q_to_text
from .tableaux import (
    YoungDiagram,
    enumerate_diagrams,
    enumerate_standard_tableaux,
    parse_shape,
    transpose,
)
from .word_algebra import NormalFormMonomial, parse_y_word, rewrite_y_word
from .hecke_rep import (
    FORMS,
    IndeterminateRankError,
    build_representation,
    dimension_certificate,
    representation_to_jsonable,
    sup_norm,
    verify_relations,
)
from .alt_decompose import (
    classify,
    induction_multiplicities,
    induction_table,
    restrict,
    transpose_symmetry_report,
)

__all__ = ["main"]

DEFAULT_MAX_N = 8

_encode_str = json.encoder.encode_basestring_ascii


# ---------------------------------------------------------------------------
# deterministic rendering

def _json_scalar(obj) -> str:
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return repr(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _json_matrix(matrix: np.ndarray, nl: str) -> str:
    """A 2-D array as its rows; a complex entry is an {"im", "re"} object."""
    if matrix.ndim != 2:
        raise TypeError(f"cannot serialize a {matrix.ndim}-D ndarray")
    row_nl, cell_nl = nl + "  ", nl + "    "
    flat = matrix.ravel().tolist()
    if matrix.dtype.kind == "c":
        cell = f'{{{cell_nl}  "im": %s,{cell_nl}  "re": %s{cell_nl}}}'
        cells = [cell % (format(z.imag, ".17g"), format(z.real, ".17g"))
                 for z in flat]
    else:
        cells = list(map(_json_scalar, flat))
    k, sep = matrix.shape[1], "," + cell_nl
    rows = [f"[{cell_nl}{sep.join(cells[i * k:i * k + k])}{row_nl}]"
            if k else "[]" for i in range(len(matrix))]
    return f"[{row_nl}{(',' + row_nl).join(rows)}{nl}]" if rows else "[]"


def _json_lines(obj, nl: str, out: list) -> None:
    if isinstance(obj, dict):
        items = {str(k): v for k, v in obj.items()}
        entries = [(_encode_str(k) + ": ", items[k]) for k in sorted(items)]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        entries, brackets = [("", v) for v in obj], "[]"
    else:
        out.append(_json_matrix(obj, nl) if isinstance(obj, np.ndarray)
                   else _json_scalar(obj))
        return
    if not entries:
        out.append(brackets)
        return
    inner = nl + "  "
    lead = brackets[0] + inner
    for label, value in entries:
        out.append(lead + label)
        _json_lines(value, inner, out)
        lead = "," + inner
    out.append(nl + brackets[1])


def render_json(payload) -> str:
    """The payload as indented JSON; see the module docstring."""
    out = []
    _json_lines(payload, "\n", out)
    return "".join(out)


def _normalize(obj):
    """Coerce to plain Python types for the text walk."""
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "c":
            return [[{"re": z.real, "im": z.imag} for z in row]
                    for row in obj.tolist()]
        return obj.tolist()
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, str) or obj is None:
        return obj
    if isinstance(obj, dict):
        return {str(k): _normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _scalar_text(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "none"
    return str(value)


def _is_scalar(value) -> bool:
    return not isinstance(value, (dict, list))


def render_text(payload) -> str:
    lines = []

    def walk(obj, indent):
        pad = "  " * indent
        if isinstance(obj, dict):
            for key in sorted(obj):
                value = obj[key]
                if _is_scalar(value):
                    lines.append(f"{pad}{key}: {_scalar_text(value)}")
                elif isinstance(value, list) and all(map(_is_scalar, value)):
                    inner = ", ".join(_scalar_text(v) for v in value)
                    lines.append(f"{pad}{key}: [{inner}]")
                else:
                    lines.append(f"{pad}{key}:")
                    walk(value, indent + 1)
        else:
            for item in obj:
                if _is_scalar(item):
                    lines.append(f"{pad}- {_scalar_text(item)}")
                elif isinstance(item, list) and all(map(_is_scalar, item)):
                    inner = ", ".join(_scalar_text(v) for v in item)
                    lines.append(f"{pad}- [{inner}]")
                else:
                    lines.append(f"{pad}-")
                    walk(item, indent + 1)

    walk(_normalize(payload), 0)
    return "\n".join(lines)


def _emit(payload, output: str) -> None:
    if output == "json":
        print(render_json(payload))
    else:
        print(render_text(payload))


# ---------------------------------------------------------------------------
# argument handling

class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors exit with code 1."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _check_cap(n: int, max_n: int) -> None:
    if n < 2:
        raise ValueError(f"n = {n} is below the minimum 2")
    if n > max_n:
        raise ValueError(
            f"n = {n} exceeds the cap {max_n}; raise it with --max-n")


def _parse_q_arg(text: str):
    try:
        return parse_q(text)
    except ValueError as exc:
        raise ValueError(f"bad q {text!r}: {exc}") from None


@cache
def build_parser() -> _Parser:
    """The CLI parser, built once per process: parse_args fills a fresh
    namespace on every call, so no option carries over between calls."""
    parser = _Parser(prog="qalt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    no_q = object()

    def add(name, help_text, *, n=False, shape=False, q=no_q, form=False,
            word=False, tol=False, seed=False, label=False):
        p = sub.add_parser(name, help=help_text)
        if n:
            p.add_argument("--n", type=int, help="number of letters")
        if shape:
            p.add_argument("--shape", type=str, help='diagram such as "3,1"')
        if q is not no_q:
            p.add_argument("--q", type=str, default=q,
                           help="deformation parameter (int, a/b, float, or i)")
        if form:
            p.add_argument("--form", choices=list(FORMS), default="f")
        if word:
            p.add_argument("--word", type=str, required=True,
                           help='y-word such as "y1 y2 y1"')
        if tol:
            p.add_argument("--tol", type=float, default=1e-10)
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="also run seeded random word checks")
        if label:
            p.add_argument("--label", type=str, default=None,
                           help='label such as "3,1" or "2,2:plus"')
        p.add_argument("--output", choices=("json", "text"), default="json")
        p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N)
        return p

    add("tableaux", "enumerate diagrams or the standard tableaux of one shape",
        n=True, shape=True)
    add("rep", "matrices of one representation", shape=True, q="2", form=True)
    add("verify", "relation residual report", n=True, shape=True, q="2",
        form=True, tol=True, seed=True)
    add("rewrite", "normal form of a y-word", n=True, q=None, word=True)
    add("dim", "even-word count and rank certificate", n=True, q="2")
    add("classify", "decomposition report", n=True, q="2", tol=True)
    add("induce", "induction multiplicity table", n=True, q="2", label=True)
    add("symmetry", "transpose deviation table", shape=True, q="2", tol=True)
    return parser


# ---------------------------------------------------------------------------
# subcommands: each returns (payload, passed) where passed None means
# there is nothing to verify

def _need(args, name: str):
    value = getattr(args, name, None)
    if value is None:
        raise ValueError(f"--{name} is required for this command")
    return value


def _shape_arg(args) -> YoungDiagram:
    shape = parse_shape(_need(args, "shape"))
    _check_cap(shape.n, args.max_n)
    return shape


def cmd_tableaux(args):
    if args.shape is not None:
        shape = _shape_arg(args)
        tabs = enumerate_standard_tableaux(shape)
        return {
            "shape": shape.text(),
            "n": shape.n,
            "self_conjugate": shape.is_self_conjugate,
            "transpose": transpose(shape).text(),
            "count": len(tabs),
            "tableaux": [t.text() for t in tabs],
        }, None
    n = _need(args, "n")
    _check_cap(n, args.max_n)
    shapes = []
    total = 0
    for shape in enumerate_diagrams(n):
        count = len(enumerate_standard_tableaux(shape))
        total += count * count
        shapes.append({
            "shape": shape.text(),
            "tableau_count": count,
            "self_conjugate": shape.is_self_conjugate,
            "transpose": transpose(shape).text(),
        })
    return {"n": n, "shapes": shapes, "sum_count_sq": total}, None


def cmd_rep(args):
    shape = _shape_arg(args)
    q = _parse_q_arg(args.q)
    rep = build_representation(shape, q, args.form)
    return representation_to_jsonable(rep), None


def _seeded_word_checks(n, q, tol, seed, samples=20, length=10):
    rng = np.random.default_rng(seed)
    qv = complex(q) if isinstance(q, complex) else float(q)
    restrictions = [restrict(build_representation(shape, q, "f"))
                    for shape in enumerate_diagrams(n)]
    worst = 0.0
    for _ in range(samples):
        word = [int(rng.integers(1, n - 1)) for _ in range(length)]
        # each monomial's letters and coefficient value, once per word
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
    return {
        "seed": seed,
        "samples": samples,
        "word_length": length,
        "max_residual": worst,
        "pass": worst < tol,
    }


def cmd_verify(args):
    q = _parse_q_arg(args.q)
    if args.shape is not None:
        shapes = [_shape_arg(args)]
        n = shapes[0].n
    else:
        n = _need(args, "n")
        _check_cap(n, args.max_n)
        shapes = enumerate_diagrams(n)
    reports = [verify_relations(build_representation(s, q, args.form),
                                tol=args.tol) for s in shapes]
    payload = {
        "n": n,
        "q": reports[0]["q"],
        "form": args.form,
        "tol": args.tol,
        "shapes": reports,
        "max_residual": max(r["max_residual"] for r in reports),
        "pass": all(r["pass"] for r in reports),
    }
    if args.seed is not None and args.form == "f" and n >= 3:
        checks = _seeded_word_checks(n, q, max(args.tol, 1e-9), args.seed)
        payload["word_checks"] = checks
        payload["pass"] = payload["pass"] and checks["pass"]
    return payload, payload["pass"]


def cmd_rewrite(args):
    n = _need(args, "n")
    _check_cap(n, args.max_n)
    word = parse_y_word(args.word)
    comb = rewrite_y_word(word, n)
    q_value = _parse_q_arg(args.q) if args.q is not None else None
    terms = []
    for code, coeff in comb.sorted_terms():
        term = {
            "code": list(code),
            "word": list(NormalFormMonomial(code).letters()),
            "coeff": {"num": str(coeff.num), "den": str(coeff.den)},
        }
        if q_value is not None:
            term["value"] = q_to_text(coeff.evaluate(q_value))
        terms.append(term)
    payload = {
        "n": n,
        "input_word": list(word.letters),
        "term_count": len(terms),
        "terms": terms,
    }
    if q_value is not None:
        payload["q"] = q_to_text(q_value)
    return payload, None


def cmd_dim(args):
    n = _need(args, "n")
    _check_cap(n, args.max_n)
    q = _parse_q_arg(args.q)
    payload = dimension_certificate(n, q)
    return payload, payload["pass"]


def cmd_classify(args):
    n = _need(args, "n")
    _check_cap(n, args.max_n)
    q = _parse_q_arg(args.q)
    report = classify(n, q, tol=args.tol)
    payload = report.to_jsonable()
    return payload, payload["checks"]["pass"]


def cmd_induce(args):
    n = _need(args, "n")
    _check_cap(n, args.max_n)
    q = _parse_q_arg(args.q)
    if args.label is not None:
        payload = induction_multiplicities(args.label, n, q)
    else:
        payload = induction_table(n, q)
    return payload, payload["pass"]


def cmd_symmetry(args):
    shape = _shape_arg(args)
    q = _parse_q_arg(args.q)
    payload = transpose_symmetry_report(shape, q, tol=args.tol)
    return payload, payload["pass"]


_COMMANDS = {
    "tableaux": cmd_tableaux,
    "rep": cmd_rep,
    "verify": cmd_verify,
    "rewrite": cmd_rewrite,
    "dim": cmd_dim,
    "classify": cmd_classify,
    "induce": cmd_induce,
    "symmetry": cmd_symmetry,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, passed = _COMMANDS[args.command](args)
    except IndeterminateRankError as exc:
        print(f"error: indeterminate rank: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:
        # a finite q whose powers or float value leave the double range
        print(f"error: out of floating-point range: {exc}", file=sys.stderr)
        return 1
    _emit(payload, args.output)
    if passed is False:
        print("verification failed", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
