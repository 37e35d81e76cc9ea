"""Every function and method of qalt is run by a CLI request, an
acceptance criterion or a benchmark operation (see reachability.py)."""

import os
import subprocess
import sys
from pathlib import Path

import qalt

HARNESS = Path(__file__).with_name("reachability.py")


def test_every_function_in_src_is_reached():
    # a fresh process, so that no per-process cache is warm
    src = os.path.dirname(os.path.dirname(qalt.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(HARNESS)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.stderr == ""
    header, *unreached = proc.stdout.splitlines()
    assert header.startswith("reached ")
    assert unreached == [], proc.stdout
    assert proc.returncode == 0
