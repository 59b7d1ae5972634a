"""The golden corpus holds at each numpy SIMD dispatch level of this host from X86_V3 up.

numpy picks its loops by CPU when it is imported, so each level runs the
corpus in a process of its own, started with the level's target and every
target above it turned off through NPY_DISABLE_CPU_FEATURES.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden_corpus import dispatch_targets

ROOT = Path(__file__).resolve().parents[1]
TARGETS = dispatch_targets()
ABOVE_FLOOR = TARGETS[TARGETS.index("X86_V3") + 1 :] if "X86_V3" in TARGETS else []

_RUN_CORPUS = """
import sys, pytest
from golden_corpus import environment
print(environment()["simd"], flush=True)
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", "tests/test_golden.py"]))
"""


@pytest.mark.parametrize(
    "target",
    ABOVE_FLOOR or [pytest.param(None, marks=pytest.mark.skip(reason="no dispatch target above X86_V3"))],
)
def test_corpus_below_each_dispatch_target(target):
    disabled = TARGETS[TARGETS.index(target) :]
    pythonpath = os.pathsep.join(filter(None, ["src", "tests", os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath, "NPY_DISABLE_CPU_FEATURES": " ".join(disabled)}
    result = subprocess.run([sys.executable, "-c", _RUN_CORPUS], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=300)
    level, _, report = result.stdout.partition("\n")
    assert level == TARGETS[TARGETS.index(target) - 1], result.stderr
    assert result.returncode == 0, report + result.stderr
