"""qalt benchmark: two workloads timed end to end and per layer.

    python3 perfbench/run.py --workload {decompose,certify}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source tree.  Each pass of the workload runs in a
fresh worker process (perfbench/worker.py) as one client in a closed loop;
passes repeat while another one is expected to end within S seconds, and
at least one runs.  Set-up-only workers before and after the passes give
at least SETUP_SAMPLES set-up times.  The BLAS thread count of every
worker is pinned to BLAS_THREADS.

--trace 0 prints the end-to-end metrics.  Every pass runs the same
operations; an operation's latency is its median over the passes, so a
burst of load on a shared host that slows one pass does not move it.
--trace 1 runs one untraced pass and one or two traced passes within S
seconds and prints the per-layer metrics; two traced passes must give
identical counts.  The last line of standard output is the
result object; the line before it holds the run's metadata.  Details and
traced spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, generate  # noqa: E402

BLAS_THREADS = 1
SETUP_SAMPLES = 12
DEADLINE_S = 170.0          # every worker must end by then
TAIL_MIN_BEYOND = 10        # samples required above the tail percentile

LAYER_METRICS = {
    "alt_decompose": (
        ("commutant_dimension", ("calls", "self_s", "kron_cells")),
        ("find_intertwiner", ("calls", "self_s", "kron_cells")),
        ("split_self_conjugate", ("self_s",)),
        ("induction_multiplicities", ("self_s",)),
        ("classify", ("self_s",)),
    ),
    "hecke_rep": (
        ("numeric_rank", ("calls", "self_s", "cells")),
        ("dimension_certificate", ("self_s",)),
        ("build_representation", ("calls", "self_s")),
        ("verify_relations", ("self_s",)),
    ),
    "word_algebra": (
        ("rewrite_y_word", ("calls", "self_s", "terms")),
        ("HeckeElement.rmul_f", ("calls", "self_s")),
        ("hecke_f_relation_check_exact", ("self_s",)),
    ),
    "scalars": (
        ("RationalFunction", ("ops", "self_s")),
        ("Polynomial.gcd", ("calls",)),
    ),
    "tableaux": (
        ("enumerate_standard_tableaux", ("calls", "self_s")),
    ),
    "cli": (
        ("main", ("calls", "self_s")),
        ("render_json", ("self_s",)),
    ),
}
UNITS = {"calls": "count", "ops": "count", "self_s": "s",
         "kron_cells": "count", "cells": "count", "terms": "count"}


class BenchmarkError(RuntimeError):
    """A worker failed, or the run has no time left for another one."""


# ---------------------------------------------------------------------------
# workers

def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    # bytecode is cached as for any user: set-up loads it, it does not compile
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(args, deadline: float, extra=()) -> dict:
    """Run one worker; returns its report with its set-up time added."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("no time left for another worker")
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - started
    return report


# ---------------------------------------------------------------------------
# statistics

def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples) at the highest percentile that still
    has TAIL_MIN_BEYOND samples above it; the maximum if that percentile
    would lie below p90, that is, with fewer than 10 * TAIL_MIN_BEYOND
    samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 10 * TAIL_MIN_BEYOND:
        return 100.0, ordered[-1], n
    rank = n - TAIL_MIN_BEYOND - 1
    return 100.0 * (rank + 1) / n, ordered[rank], n


# ---------------------------------------------------------------------------
# metadata and the cross-run ledger

def src_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_revision() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metadata(args) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_text = "unknown"
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": _git_revision(),
        "src_fingerprint": src_fingerprint(),
        "src_lines": src_lines,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_text,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def ledger_update(key: str, entry: dict) -> dict:
    """Record this run's digests and counts; return the earlier record.

    The ledger holds one record per workload, seed, source fingerprint and
    input list, so a rerun of the same code and inputs is checked against
    the first.
    """
    path = OUT / "ledger.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    earlier = ledger.get(key, {})
    ledger[key] = {**entry, **earlier}
    path.write_text(json.dumps(ledger, sort_keys=True))
    return earlier


# ---------------------------------------------------------------------------
# the two kinds of run

def end_to_end(args, ops, deadline):
    # half the set-up samples before the passes, the rest after them
    setups = [spawn(args, deadline, ["--setup-only"])["setup_s"]
              for _ in range(SETUP_SAMPLES // 2)]
    passes = []
    begin = now = time.monotonic()
    # another pass only if one more of the last one's length ends in time
    while not passes or 2 * now - previous - begin <= args.seconds:
        previous = now
        passes.append(spawn(args, deadline))
        now = time.monotonic()
    setups += [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(args, deadline, ["--setup-only"])["setup_s"])

    # each operation's latency is its median over the passes
    latency = [statistics.median(p["op_s"][i] for p in passes)
               for i in range(len(ops))]
    cli = [t for op, t in zip(ops, latency) if op.kind == "cli"]
    percentile, tail_value, samples = tail(cli)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (sum(latency), "s"),
        "op_tail_ms": (1000 * tail_value, "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes),
                        "MB"),
    }
    # the median request is a pure-Python one of a few to 100 ms, whose time
    # on a shared host moves by more than any usable bound: reported, not
    # a metric
    details = {"setup_samples": setups,
               "pass_run_s": [p["run_s"] for p in passes],
               "op_p50_ms": 1000 * statistics.median(cli),
               "tail_percentile": percentile, "tail_samples": samples}
    return metrics, passes, details


def _layer_metrics(trace: dict, report: dict) -> dict:
    by_name, work = trace["by_name"], trace["work"]
    out = {}
    for layer, functions in LAYER_METRICS.items():
        for fn, kinds in functions:
            name = f"{layer}.{fn}"
            for kind in kinds:
                if kind in ("calls", "ops", "self_s"):
                    span = by_name.get(name, {})
                    value = span.get("self_s" if kind == "self_s" else "calls", 0)
                else:
                    value = work.get(f"{name}.{kind}", 0)
                out[f"{name}.{kind}"] = (value, UNITS[kind])
        out[f"{layer}.self_s"] = (trace["by_layer"][layer], "s")
        out[f"{layer}.errors"] = (trace["errors"][layer], "count")
    out["word_algebra.rmul_cache_entries"] = (report["rmul_cache_entries"],
                                              "count")
    out["cli.output_bytes"] = (report["output_bytes"], "bytes")
    return out


def traced(args, ops, deadline):
    """One untraced pass, then traced passes; per-layer metrics of the first.

    A second traced pass runs when it fits in the run's seconds, and its
    counts must equal the first's; the ledger compares counts across runs
    too.
    """
    begin = time.monotonic()
    plain = spawn(args, deadline)
    passes = [plain]
    while len(passes) < 3:
        spans = OUT / f"spans-{args.workload}-{args.seed}-{len(passes)}.npz"
        passes.append(spawn(args, deadline, ["--trace", "--spans", str(spans)]))
        spent = time.monotonic() - begin
        if spent + passes[-1]["run_s"] > args.seconds:
            break
    first = passes[1]
    metrics = _layer_metrics(first["trace"], first)
    counts = [{k: v for k, (v, unit) in _layer_metrics(p["trace"], p).items()
               if unit != "s"} for p in passes[1:]]
    traced_run_s = statistics.median(p["run_s"] for p in passes[1:])
    attributed = sum(first["trace"]["by_layer"].values())
    slow = first["trace"]["slowest_rewrites_by_layer"]
    metrics.update({
        "trace.run_s": (traced_run_s, "s"),
        "trace.overhead_s": (traced_run_s - plain["run_s"], "s"),
        "trace.unattributed_s": (first["run_s"] - attributed, "s"),
        "trace.slowest_rewrites_scalars_share": (
            100.0 * slow.get("scalars", 0.0)
            / max(first["trace"]["slowest_rewrites_s"], 1e-12), "%"),
    })
    details = {"count_mismatch": sorted(k for k in counts[0]
                                        if any(c[k] != counts[0][k]
                                               for c in counts)),
               "traced_passes": len(counts),
               "untraced_run_s": plain["run_s"],
               "slowest_rewrites": first["trace"]["slowest_rewrites"],
               "slowest_rewrites_by_layer": slow,
               "by_name": first["trace"]["by_name"],
               "spans": first["trace"]["spans"]}
    return metrics, passes, details, counts[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qalt" / "cli.py").is_file():
        print(f"error: no qalt sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    ops = generate(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            metrics, passes, details, counts = traced(args, ops, deadline)
        else:
            metrics, passes, details = end_to_end(args, ops, deadline)
            counts = None
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    meta = metadata(args)
    inputs = hashlib.sha256("\n".join(op.label() for op in ops).encode())
    key = (f"{args.workload}:{args.seed}:{meta['src_fingerprint']}:"
           f"{inputs.hexdigest()[:16]}")
    entry = {"op_digests": passes[0]["op_digests"]}
    if counts is not None:
        entry["counts"] = counts
    earlier = ledger_update(key, entry)
    reference = earlier.get("op_digests", passes[0]["op_digests"])

    # a failed check, or output that differs from the first pass or from an
    # earlier run with this seed, fails the operation
    problems, failed = [], 0
    for k, report in enumerate(passes):
        reasons = dict(report["failures"])
        for i, digest in enumerate(report["op_digests"]):
            if i not in reasons and digest != reference[i]:
                reasons[i] = "output differs between runs with one seed"
        failed += len(reasons)
        problems += [f"pass {k} op {i} ({ops[i].label()}): {r}"
                     for i, r in sorted(reasons.items())]
    if counts is not None:
        if details["count_mismatch"]:
            problems.append(f"counts differ: {details['count_mismatch']}")
        if earlier.get("counts", counts) != counts:
            problems.append("counts differ from an earlier run with this seed")

    attempted = sum(len(p["op_s"]) for p in passes)
    meta.update(details, passes=len(passes), problems=problems,
                ops_per_pass=len(ops))
    (OUT / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "passes": [
            {k: v for k, v in p.items() if k != "op_digests"} for p in passes]},
            indent=1))
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"meta": {k: v for k, v in meta.items() if k != "by_name"}}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
