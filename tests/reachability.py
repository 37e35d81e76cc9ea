"""Which functions and methods of qalt nothing runs.

    PYTHONPATH=src python tests/reachability.py

Records, under sys.setprofile, the code objects that start running while
this process serves

- every request of tests/test_cli_golden.py's `requests()`,
- one argparse usage error (`classify --tol nan`),
- each `test_criterion_*` of tests/test_acceptance.py, called directly,
- the library operations (`hecke_relations`, `hecke_image`) of one pass
  of the benchmark's certify workload, run by perfbench/worker.py's
  `execute`,

and prints how many candidates were reached, then the unreached ones,
one `module.qualname` a line.  A candidate is a function, method,
property, cached_property or cache-wrapped function whose __module__ is
a qalt module; dunder methods are exempt.  Candidates are matched by
code object.  It exits 1 when a candidate was not reached.

Run it in a fresh process: _skeleton, _fillings, _RMUL_CACHE and
_block_values are per-process caches, so anything run before would hide
the code that runs only on a cache miss.
"""

from __future__ import annotations

import importlib
import inspect
import io
import pkgutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import cached_property
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"
BENCH_SEED = 1


def _functions(obj):
    """The plain functions behind a class attribute or a module global."""
    if isinstance(obj, (staticmethod, classmethod)):
        obj = obj.__func__
    if isinstance(obj, property):
        return [f for f in (obj.fget, obj.fset, obj.fdel) if f is not None]
    if isinstance(obj, cached_property):
        return [obj.func]
    obj = inspect.unwrap(obj) if callable(obj) else obj
    return [obj] if inspect.isfunction(obj) else []


def candidates() -> dict:
    """code object -> 'module.qualname' for every candidate of qalt."""
    import qalt

    out = {}
    for module in [qalt] + [importlib.import_module(f"qalt.{info.name}")
                            for info in pkgutil.iter_modules(qalt.__path__)]:
        owners = [vars(module)] + [
            vars(cls) for cls in vars(module).values()
            if inspect.isclass(cls) and cls.__module__ == module.__name__]
        for namespace in owners:
            for name, value in namespace.items():
                if name.startswith("__") and name.endswith("__"):
                    continue
                for fn in _functions(value):
                    if fn.__module__ == module.__name__:
                        out[fn.__code__] = f"{fn.__module__}.{fn.__qualname__}"
    return out


def _quietly(fn, *args):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return fn(*args)
        except SystemExit as exc:
            return exc.code


def exercise() -> None:
    """Serve every request of the four sources, in this process."""
    sys.path[:0] = [str(TESTS), str(PERFBENCH)]
    from qalt.cli import main
    import test_acceptance
    from test_cli_golden import requests

    for group in requests().values():
        for argv in group:
            _quietly(main, argv)
    _quietly(main, ["classify", "--n", "4", "--tol", "nan"])
    for name, test in sorted(vars(test_acceptance).items()):
        if name.startswith("test_criterion_"):
            test()
    import worker
    from workloads import generate

    for op in generate("certify", BENCH_SEED):
        if op.kind != "cli":
            code, out = worker.execute(op)
            if code != 0:
                raise RuntimeError(f"{op.label()} failed:\n{out}")


def unreached() -> tuple[list[str], int]:
    """(sorted names of the unreached candidates, number of candidates)."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        exercise()
    finally:
        sys.setprofile(None)
    names = candidates()
    return sorted(name for code, name in names.items()
                  if code not in seen), len(names)


def main() -> int:
    missed, total = unreached()
    print(f"reached {total - len(missed)} of {total} candidates")
    for name in missed:
        print(name)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
