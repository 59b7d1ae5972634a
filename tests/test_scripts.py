"""Smoke tests: the experiment scripts run end to end against the library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinphase
from spinphase.verify import CLASSIFICATIONS, EQUATION_IDS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *argv):
    src = str(Path(spinphase.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )


def test_temperature_sweep(tmp_path):
    out = tmp_path / "beta_sweep.csv"
    result = run_script(
        "temperature_sweep.py", "--points", "5", "--steps", "256", "--out", str(out)
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == f"wrote {out} (5 rows)"
    assert lines[1] == "off-diagonal phase values: ['pi']"
    assert lines[2].startswith("diagonal phase range: [")
    assert lines[3].startswith("diagonal phase total variation: ")
    assert lines[4] == "rows with an undefined phase: 0; refused or degenerate rows: 0"
    assert len(out.read_text().splitlines()) == 6


def test_temperature_sweep_buckets_only_defined_phases(tmp_path):
    # Without coupling the off-diagonal visibility vanishes at beta = 60 and 80,
    # and every defined off-diagonal phase is 0.
    out = tmp_path / "beta_sweep.csv"
    result = run_script(
        "temperature_sweep.py", "--mu-B", "0", "--beta-max", "80", "--points", "5",
        "--steps", "256", "--out", str(out),
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[1] == "off-diagonal phase values: ['0']"
    assert "nan" not in result.stdout
    assert lines[-1] == "rows with an undefined phase: 2; refused or degenerate rows: 0"


def test_temperature_sweep_exits_with_the_cli_code(tmp_path):
    # beta does not move omega = V, so every point of the sweep lacks a period.
    out = tmp_path / "beta_sweep.csv"
    result = run_script(
        "temperature_sweep.py", "--V", "1", "--mu-B", "0", "--omega", "1", "--points", "3",
        "--steps", "64", "--out", str(out),
    )
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr == "error: effective frequency 0.000e+00 <= 1e-12; no period\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--beta-max", "-1", "--points", "3"], "--beta-max must be finite and > 0, got -1"),
        (["--beta-max", "inf", "--points", "3"], "--beta-max must be finite and > 0, got inf"),
        (["--points", "1"], "--points must be >= 2, got 1"),
        (["--mu-B", "-1", "--points", "3"], "muB must be >= 0, got -1.0"),
        (["--beta-max", "1e-322", "--points", "101"],
         "101 points from 0.0 to 1e-322 do not make a strictly increasing grid"),
        (["--points", "3", "--steps", "abc"], "invalid literal for int() with base 10: 'abc'"),
        (["--points", "3", "--steps", "0"], "steps must be >= 2, got 0"),
        (["--points", "3", "--steps", "2147483649"], "steps must be <= 2147483648, got 2147483649"),
        # 8 PB of grid values: the allocation fails at once.  Never a count that can be allocated.
        (["--points", "1000000000000000"],
         "1000000000000000 points make a grid too large to allocate"),
    ],
    ids=["negative-beta-max", "infinite-beta-max", "one-point", "negative-coupling",
         "subnormal-beta-max", "non-integer-steps", "too-few-steps", "too-many-steps",
         "unallocatable-grid"],
)
def test_temperature_sweep_checks_its_own_flags(tmp_path, argv, message):
    # Reported under the script's usage line, not as flags of `spinphase sweep`.
    out = tmp_path / "beta_sweep.csv"
    result = run_script("temperature_sweep.py", "--steps", "64", *argv, "--out", str(out))
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("usage: temperature_sweep.py ")
    assert result.stderr.endswith(f"temperature_sweep.py: error: {message}\n")
    assert not out.exists()


def test_verify_closed_forms():
    result = run_script("verify_closed_forms.py", "--grid", "2", "--steps", "1024")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "2 generic points, seed 7, steps 1024 and 2048"
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == list(EQUATION_IDS)
    assert all(row[1] in CLASSIFICATIONS for row in rows)
    assert dict(row[:2] for row in rows)["propagator_Eq14_ode"] == "match"


def test_verify_closed_forms_exits_with_the_cli_code():
    result = run_script("verify_closed_forms.py", "--grid", "0")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.endswith("spinphase verify: error: --grid must be >= 1\n")


def test_verify_closed_forms_reads_a_grid_of_one():
    # `verify --grid 1 --format json` prints {"reports": [...]}, as every grid does.
    result = run_script("verify_closed_forms.py", "--grid", "1", "--steps", "1024")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == "1 generic points, seed 7, steps 1024 and 2048"
