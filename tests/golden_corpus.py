"""The golden corpus: CLI commands whose exit code, stdout and stderr are kept byte for byte.

Each command runs in process through ``spinphase.cli.main`` with every
warning an error and a fixed 80-column terminal, so that argparse wraps its
usage lines the same way everywhere.  ``tests/test_golden.py`` reruns every
stored command and compares, and :func:`check_installed` runs each through
the installed ``spinphase`` script.  A change that alters an output on
purpose rewrites the corpus from the repository root with

    PYTHONPATH=src python tests/golden_corpus.py

and lists each changed file.  The stored environment names the Python and
numpy versions that wrote the corpus and the highest SIMD dispatch target
numpy used on its CPU.  The bytes hold on x86-64 at every numpy dispatch
level from X86_V3 (AVX2 with FMA3) up, which ``tests/test_simd.py`` checks
on the levels the host has; below X86_V3, without FMA, complex products
round differently.  aarch64 (NEON, SVE) is untested.  Another numpy may
differ in the last of 17 significant digits.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import subprocess
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
from numpy._core import _multiarray_umath as umath

from spinphase.cli import main

GOLDEN = Path(__file__).resolve().with_name("golden")
MANIFEST = GOLDEN / "cases.json"

_SWEEPS = {"beta": ("0", "5"), "omega": ("0.1", "2"), "muB": ("0.1", "1"), "V": ("0.3", "2")}

#: Name -> argv.  Small step counts keep the whole corpus to about a second.
CASES = {
    "phases-table": ["phases", "--steps", "256"],
    "phases-json": ["phases", "--steps", "256", "--format", "json"],
    "phases-explicit-t": ["phases", "--t", "2.5", "--steps", "256"],
    "propagate": ["propagate", "--steps", "256"],
    "propagate-explicit-t": ["propagate", "--t", "2.5", "--steps", "256"],
    "propagate-t-zero": ["propagate", "--t", "0", "--steps", "256"],
    "phases-t-zero": ["phases", "--t", "0", "--steps", "64"],
    "verify-table": ["verify", "--steps", "1024"],
    "verify-json": ["verify", "--steps", "1024", "--format", "json"],
    "verify-grid-table": ["verify", "--grid", "5", "--steps", "1024"],
    "verify-grid-json": ["verify", "--grid", "5", "--steps", "1024", "--format", "json"],
    # Any --grid prints {"reports": [...]}, also a grid of one.
    "verify-grid-one-json": ["verify", "--grid", "1", "--steps", "1024", "--format", "json"],
    # The kernel layouts that the cases above never reach: segments of 5 x 456 + 3 x 454 + 455
    # steps (three wave lengths and the odd end rule); 342, 342 and 341 (a 66-member wave in
    # 32-step sub-blocks, then a 33-member wave with the odd end rule); one 160-member wave
    # in 8-step sub-blocks; and 100 trajectories of 4 segments, one 400-member wave in 16-step
    # sub-blocks (past 32 trajectories a wave holds 8 segments).
    "phases-odd-steps-json": ["phases", "--steps", "4097", "--format", "json"],
    "sweep-odd-steps": ["sweep", "--axis", "omega", "--start", "0.1", "--stop", "2",
                        "--points", "33", "--steps", "1025"],
    "verify-grid-long-json": ["verify", "--grid", "5", "--steps", "16384", "--format", "json"],
    "sweep-wide-long": ["sweep", "--axis", "muB", "--start", "0.1", "--stop", "1",
                        "--points", "100", "--steps", "2048"],
    **{
        f"sweep-{axis}-{form}": ["sweep", "--axis", axis, "--start", start, "--stop", stop,
                                 "--points", "33", "--steps", "64", "--format", form]
        for axis, (start, stop) in _SWEEPS.items() for form in ("csv", "json")
    },
    "sweep-jobs-zero": ["sweep", "--axis", "beta", "--start", "0", "--stop", "5", "--points", "33",
                        "--steps", "64", "--jobs", "0"],
    # Points past RK4's stability bound keep empty rows; all of them refused exits 6.
    "sweep-refused-rows": ["sweep", "--axis", "muB", "--start", "0.1", "--stop", "100",
                           "--points", "5", "--steps", "64", "--t", "10"],
    # omega = 1 has no period; the points near it are refused.
    "sweep-resonance": ["sweep", "--axis", "omega", "--start", "0", "--stop", "2",
                        "--points", "513", "--V", "1", "--mu-B", "0", "--steps", "64"],
    "sweep-all-refused": ["sweep", "--axis", "muB", "--start", "30", "--stop", "100",
                          "--points", "3", "--steps", "64", "--t", "10"],
    # Without coupling the off-diagonal visibility vanishes at beta = 60 and 80.
    "sweep-undefined-phase": ["sweep", "--axis", "beta", "--start", "0", "--stop", "80",
                              "--points", "5", "--mu-B", "0", "--steps", "256"],
    "sweep-degenerate-row": ["sweep", "--axis", "V", "--start", "-1", "--stop", "1",
                             "--points", "3", "--mu-B", "0", "--steps", "256"],
    "sweep-all-degenerate": ["sweep", "--axis", "V", "--start", "0", "--stop", "1e-13",
                             "--points", "2", "--mu-B", "0", "--steps", "256"],
    "phases-degenerate-frame": ["phases", "--V", "1", "--mu-B", "0", "--omega", "1",
                                "--steps", "64"],
    # The step count is checked before the point is triaged.
    "phases-degenerate-bad-steps": ["phases", "--V", "1", "--mu-B", "0", "--omega", "1",
                                    "--steps", "1"],
    "propagate-degenerate-frame": ["propagate", "--V", "1", "--mu-B", "0", "--omega", "1",
                                   "--steps", "64"],
    "verify-degenerate-frame": ["verify", "--V", "1", "--mu-B", "0", "--omega", "1",
                                "--steps", "1024"],
    "phases-undefined": ["phases", "--V", "1e306", "--mu-B", "1", "--steps", "64"],
    "phases-refused": ["phases", "--t", "1e4", "--steps", "64"],
    "phases-huge-coupling-json": ["phases", "--V", "1e200", "--mu-B", "1e199", "--beta", "0",
                                  "--steps", "64", "--format", "json"],
    "phases-scales-overflow": ["phases", "--V", "1.7e308", "--mu-B", "1.7e308", "--beta", "0",
                               "--steps", "64"],
    "phases-omega-tau-overflow": ["phases", "--V", "1e300", "--omega", "1e300", "--mu-B", "1e-9",
                                  "--steps", "64"],
    "propagate-omega-t-overflow": ["propagate", "--omega", "1e300", "--t", "1e10",
                                   "--steps", "64"],
    "sweep-span-overflow": ["sweep", "--axis", "V", "--start=-1.7e308", "--stop", "1.7e308",
                            "--points", "3", "--steps", "64"],
}


def dispatch_targets() -> list[str]:
    """numpy's SIMD dispatch targets that this process uses, lowest first."""
    return [target for target in umath.__cpu_dispatch__ if umath.__cpu_features__.get(target)]


def environment() -> dict:
    targets = dispatch_targets()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "simd": targets[-1] if targets else "baseline"}


def run(argv: list[str]) -> tuple[int, bytes, bytes]:
    """(exit code, stdout, stderr) of one CLI command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.dict(os.environ, {"COLUMNS": "80"}))
        stack.enter_context(warnings.catch_warnings())
        warnings.simplefilter("error")
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue().encode()


def expected(name: str, case: dict) -> tuple[int, bytes, bytes]:
    """The stored (exit code, stdout, stderr) of the manifest case ``name``."""
    return case["exit"], (GOLDEN / f"{name}.stdout").read_bytes(), (GOLDEN / f"{name}.stderr").read_bytes()


def check_installed() -> int:
    """Run each manifest case through the installed ``spinphase`` script: 1 if one differs or none is stored, else 0."""
    cases = json.loads(MANIFEST.read_text())["cases"]
    differ = []
    for name, case in cases.items():
        done = subprocess.run(["spinphase", *case["argv"]], capture_output=True, env={**os.environ, "COLUMNS": "80"})
        if (done.returncode, done.stdout, done.stderr) != expected(name, case):
            differ.append(name)
    print(f"{len(cases)} cases through the installed spinphase script", *(f"differs: {n}" for n in differ), sep="\n")
    return 1 if differ or not cases else 0


def write() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for stale in [*GOLDEN.glob("*.stdout"), *GOLDEN.glob("*.stderr")]:
        stale.unlink()
    cases = {}
    for name, argv in CASES.items():
        code, out, err = run(argv)
        (GOLDEN / f"{name}.stdout").write_bytes(out)
        (GOLDEN / f"{name}.stderr").write_bytes(err)
        cases[name] = {"argv": argv, "exit": code}
    doc = {"environment": environment(), "cases": cases}
    MANIFEST.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    write()
