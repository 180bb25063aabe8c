"""The benchmark harness still runs against this source tree.

perfbench wraps functions of the package by name; a rename there
breaks the benchmark without failing any unit test, so this runs the
harness's own self-test (about 9 s on two cores).
"""
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.slow
def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
