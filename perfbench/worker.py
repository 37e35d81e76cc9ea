"""One pass of a workload in a fresh process.

    python3 perfbench/worker.py --workload W --seed S [--setup-only]
                                [--trace] [--spans PATH]

Imports qalt, generates the workload's operations from the seed, then runs
them in order, each as one in-process call, and times each.  After the
timed pass it reads the process's peak RSS, uninstalls any tracing and
checks every output.  The result is one JSON object on standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import qalt.cli as cli  # noqa: E402
from qalt import word_algebra as wa  # noqa: E402

from workloads import generate  # noqa: E402


def _y_element(n: int, letters) -> "wa.HeckeElement":
    """T-basis expansion of the y-word, with y_i = f_1 f_{i+1}."""
    acc = wa.HeckeElement.unit(n)
    for letter in letters:
        acc = acc.rmul_f(1).rmul_f(letter + 1)
    return acc


def hecke_image(n: int, letters) -> dict:
    """Exact check: a y-word and its normal form have equal Hecke images."""
    via = wa.HeckeElement(n)
    for code, coeff in wa.rewrite_y_word(letters, n).sorted_terms():
        mono = wa.NormalFormMonomial(code).letters()
        via = via + _y_element(n, mono).scale(coeff)
    residual = _y_element(n, letters) - via
    return {"n": n, "word": list(letters),
            "residual_terms": len(residual.terms), "pass": residual.is_zero}


def execute(op) -> tuple[int, str]:
    """Run one operation; returns (exit code, standard output text)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        if op.kind == "cli":
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.main(list(op.argv))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
            return code, out.getvalue()
        if op.kind == "hecke_relations":
            result = wa.hecke_f_relation_check_exact(op.n)
        else:
            result = hecke_image(op.n, op.letters)
        return 0, json.dumps(result, sort_keys=True)
    except Exception:  # the pass goes on; the operation counts as failed
        return -1, traceback.format_exc()


def run_pass(ops, tracer=None) -> dict:
    op_s, results = [], []
    clock = time.perf_counter
    begin = clock()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.current_op = i
        t0 = clock()
        results.append(execute(op))
        op_s.append(clock() - t0)
    return {"run_s": clock() - begin, "op_s": op_s, "results": results}


def trace_report(tracer, ops, timed: dict) -> dict:
    summary = tracer.summary()
    by_op = tracer.layer_self_by_op()
    # where the time of the slowest rewrite requests goes
    rewrites = [i for i, op in enumerate(ops)
                if op.kind == "cli" and op.argv[0] == "rewrite"]
    slowest = sorted(rewrites, key=lambda i: timed["op_s"][i])[-10:]
    slow_layers = {}
    for i in slowest:
        for layer, s in by_op.get(i, {}).items():
            slow_layers[layer] = slow_layers.get(layer, 0.0) + s
    return {
        "by_name": summary["by_name"],
        "by_layer": summary["by_layer"],
        "work": dict(tracer.work),
        "errors": dict(tracer.errors),
        "spans": len(tracer.start),
        "slowest_rewrites": [ops[i].label() for i in slowest],
        "slowest_rewrites_s": sum(timed["op_s"][i] for i in slowest),
        "slowest_rewrites_by_layer": slow_layers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None,
                        help="write the traced spans to this .npz file")
    args = parser.parse_args(argv)

    ops = generate(args.workload, args.seed)
    ready = time.monotonic()
    report: dict = {"ready": ready}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    tracer = None
    if args.trace:
        from qalt import (alt_decompose, hecke_rep, scalars, tableaux)
        from tracing import Tracer
        tracer = Tracer()
        tracer.install({"scalars": scalars, "tableaux": tableaux,
                        "word_algebra": wa, "hecke_rep": hecke_rep,
                        "alt_decompose": alt_decompose, "cli": cli})
    try:
        timed = run_pass(ops, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    memo_entries = len(getattr(wa, "_RMUL_CACHE", ()))

    from checks import check_pass
    results = timed["results"]
    reasons = check_pass(ops, results)
    op_digests = [hashlib.sha256(out.encode()).hexdigest()[:16]
                  for _, out in results]
    report.update({
        "run_s": timed["run_s"],
        "op_s": timed["op_s"],
        "peak_rss_mb": peak_kb / 1024.0,
        "failures": [[i, r] for i, r in enumerate(reasons) if r is not None],
        "op_digests": op_digests,
        "output_bytes": sum(len(out.encode()) for (_, out), op
                            in zip(results, ops) if op.kind == "cli"),
        "rmul_cache_entries": memo_entries,
    })
    if tracer is not None:
        report["trace"] = trace_report(tracer, ops, timed)
        if args.spans:
            tracer.save(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
