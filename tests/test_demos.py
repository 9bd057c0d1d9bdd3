"""The demos run end to end: each exits 0 in a fresh interpreter, with a
RuntimeWarning raised as an error."""

import os
import subprocess
import sys

import pytest

import ivboot

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("demo", ["demo_bootstrap_test.py", "demo_power_study.py"])
def test_demo_runs(demo):
    src = os.path.dirname(os.path.dirname(os.path.abspath(ivboot.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           os.path.join(ROOT, "demos", demo)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
