"""Command-line front door.

Subcommands: tableaux, rep, verify, rewrite, dim, classify, induce,
symmetry.  Reports go to standard output as JSON or as indented text.
The JSON is byte-identical across runs: keys sorted as strings, a
two-space indent, ASCII escapes as by the `json` module, every float as
`format(x, '.17g')` (so zero prints `0`, nan `nan`), and a 2-D ndarray
as its rows, complex entries (all of `rep`'s) as {"im", "re"} objects.
Exit codes: 0 success, 1 invalid input or a reader that closed the
output pipe early, 2 failed verification, 3 indeterminate numeric rank.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cache, partial

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

# The most matrix entries that the seeded word checks hold as prefix
# images of one shape at a time, 4 MB of complex entries; a single word's
# prefixes may hold more.  At n = 8 and q = 1+0.5i all of them at once
# doubled the peak RSS of `verify --seed`.
WORD_CHECK_ENTRIES = 1 << 18

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


def _emit(payload, output: str) -> bool:
    """Print the report; False when the reader closed the pipe early."""
    text = render_json(payload) if output == "json" else render_text(payload)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; let that go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return False
    return True


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


def _tol_arg(text: str) -> float:
    """--tol: a finite positive float; any other value would decide every
    check the same way (nan, 0 or below fail them all, inf passes them)."""
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(
            f"tolerance must be finite and positive: {text!r}")
    return tol


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
            p.add_argument("--tol", type=_tol_arg, default=1e-10)
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


def _word_chunks(need: list, depth: np.ndarray, per_matrix: int):
    """Consecutive runs of words whose trie nodes together hold at most
    WORD_CHECK_ENTRIES entries of per_matrix each (a word alone may hold
    more), each run with its nodes ordered by depth.  need[w] is the set
    of nodes of word w, depth[node] the length of its prefix."""
    def by_depth(nodes):
        nodes = np.fromiter(nodes, np.intp)
        return nodes[np.argsort(depth[nodes], kind="stable")]

    if len(depth) * per_matrix <= WORD_CHECK_ENTRIES:
        yield range(len(need)), by_depth(range(len(depth)))
        return
    start, held = 0, set()
    for w, nodes in enumerate(need):
        if held and len(held | nodes) * per_matrix > WORD_CHECK_ENTRIES:
            yield range(start, w), by_depth(held)
            start, held = w, set()
        held |= nodes
    yield range(start, len(need)), by_depth(held)


_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _seeded_letters(seed: int, n: int, count: int) -> list[int]:
    """count draws of numpy.random.default_rng(seed).integers(1, n - 1),
    made as numpy makes them but without importing numpy.random.

    SeedSequence hashes the seed's 32-bit words into a pool of four and
    the pool into two 128-bit words, PCG64's start and stream (O'Neill
    2014: a 128-bit LCG with the XSL-RR output); each draw is Lemire's
    bounded rejection on a 32-bit half of an output, low half first.
    """
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = []
    while True:
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    const = 0x43b0d7e5

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * 0x931e8875 & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        x = (0xca01f9dd * x - 0x4973f715 * y) & _MASK32
        return x ^ x >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, state = 0x8b51f9dd, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58f38ded & _MASK32
        value = value * const & _MASK32
        state.append(value ^ value >> 16)
    w = [state[k] | state[k + 1] << 32 for k in range(0, 8, 2)]
    inc = (w[2] << 65 | w[3] << 1 | 1) & _MASK128

    def halves(pcg):
        while True:
            pcg = (pcg * _PCG64_MULTIPLIER + inc) & _MASK128
            x = (pcg >> 64 ^ pcg) & _MASK64
            rot = pcg >> 122
            x = (x >> rot | x << (64 - rot)) & _MASK64
            yield x & _MASK32
            yield x >> 32

    # seeding: one step from 0, then the start added, then one more step
    start = inc + (w[0] << 64 | w[1])
    next32 = halves((start * _PCG64_MULTIPLIER + inc) & _MASK128).__next__
    span = n - 2
    if span == 1:
        return [1] * count
    threshold = (1 << 32) % span
    out = []
    for _ in range(count):
        m = next32() * span
        while m & _MASK32 < threshold:
            m = next32() * span
        out.append(1 + (m >> 32))
    return out


def _seeded_word_checks(n, q, tol, seed, reps=None, samples=20, length=10):
    """Seeded random word checks of the f-form against the exact rewriting.

    Draws `samples` (20) y-words of `length` (10) letters, the letters
    that numpy.random.default_rng(seed).integers(1, n - 1) gives one per
    call, drawn without numpy.random (_seeded_letters), and on every
    shape of n compares the image of each word with the image of its
    normal form at q; the report passes when the largest entry of every
    difference is below tol.  `verify --seed` runs it only in the f-form,
    on every shape of n even when --shape is given, with tol
    max(--tol, 1e-9).  reps, when given, are the f-form representations
    of the shapes of n in the order of enumerate_diagrams.

    Each word and each normal-form monomial is a path in one prefix trie,
    planned once.  A shape's images of the trie's nodes are formed one
    stacked matmul per prefix length, from the identity, left to right:
    the chain of 2-D products that multiplying letter by letter forms, so
    the residuals are those of the letter-by-letter products, bit for bit.
    Where a shape's nodes would hold more than WORD_CHECK_ENTRIES matrix
    entries, the words are checked in consecutive chunks that fit.  A
    chunk's normal-form images are summed term by term across its words,
    the k-th term of every word that has one in one step, so each entry
    sees the additions of the word-by-word sum in the same order.
    """
    if reps is None:
        reps = [build_representation(shape, q, "f")
                for shape in enumerate_diagrams(n)]
    qv = complex(q) if isinstance(q, complex) else float(q)
    letters = _seeded_letters(seed, n, samples * length)
    words = [letters[k:k + length] for k in range(0, len(letters), length)]
    # the trie: node 0 is the empty word; child[node][letter - 1] is 0 when
    # absent, since the root is nobody's child
    child, parent, letter, depth = [[0] * (n - 2)], [0], [0], [0]

    def insert(letters, nodes):
        node = 0
        for k, y in enumerate(letters, 1):
            if not child[node][y - 1]:
                child[node][y - 1] = len(parent)
                child.append([0] * (n - 2))
                parent.append(node)
                letter.append(y - 1)
                depth.append(k)
            node = child[node][y - 1]
            nodes.add(node)
        return node

    word_node, term_nodes, values, need = [], [], [], []
    for word in words:
        nodes = {0}
        word_node.append(insert(word, nodes))
        terms = rewrite_y_word(word, n).terms
        term_nodes.append([insert(NormalFormMonomial(code).letters(), nodes)
                           for code in terms])
        values.append([coeff.evaluate(qv) for coeff in terms.values()])
        need.append(nodes)
    parent, letter, depth = map(np.array, (parent, letter, depth))

    worst = 0.0
    for rep in reps:
        ys = np.stack(restrict(rep).y_matrices)
        dim = rep.dim
        for chunk, nodes in _word_chunks(need, depth, dim * dim):
            local = np.empty(len(parent), np.intp)
            local[nodes] = np.arange(len(nodes))
            img = np.empty((len(nodes), dim, dim), ys.dtype)
            img[0] = np.eye(dim, dtype=ys.dtype)
            levels = np.searchsorted(depth[nodes],
                                     np.arange(1, depth[nodes[-1]] + 2))
            for a, b in zip(levels[:-1].tolist(), levels[1:].tolist()):
                at = nodes[a:b]
                np.matmul(img[local[parent[at]]], ys[letter[at]],
                          out=img[a:b])
            # the k-th terms of all words that have one, in one step
            order = sorted(chunk, key=lambda w: -len(values[w]))
            image = np.zeros((len(order), dim, dim), ys.dtype)
            live = len(order)
            for k in range(len(values[order[0]])):
                while len(values[order[live - 1]]) <= k:
                    live -= 1
                rows = local[[term_nodes[w][k] for w in order[:live]]]
                vals = np.array([values[w][k] for w in order[:live]])
                image[:live] = image[:live] + vals[:, None, None] * img[rows]
            direct = img[local[[word_node[w] for w in order]]]
            gaps = np.abs(direct - image).max(axis=(1, 2)).tolist()
            gap = dict(zip(order, gaps))
            for w in chunk:
                worst = max(worst, gap[w])
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
    seeded = args.seed is not None and args.form == "f" and n >= 3
    reps = map(partial(build_representation, q=q, form=args.form), shapes)
    if seeded and args.shape is None:
        reps = list(reps)   # the word checks run on the same shapes
    # map, unlike a for loop, lets go of each rep before building the next
    reports = list(map(partial(verify_relations, tol=args.tol), reps))
    payload = {
        "n": n,
        "q": reports[0]["q"],
        "form": args.form,
        "tol": args.tol,
        "shapes": reports,
        "max_residual": max(r["max_residual"] for r in reports),
        "pass": all(r["pass"] for r in reports),
    }
    if seeded:
        # with --shape the word checks still cover every shape of n
        checks = _seeded_word_checks(n, q, max(args.tol, 1e-9), args.seed,
                                     reps if args.shape is None else None)
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
    if not _emit(payload, args.output):
        return 1
    if passed is False:
        print("verification failed", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
