"""Smoke tests: the experiment scripts run end to end against the library."""

import os
import subprocess
import sys
from pathlib import Path

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
    assert len(out.read_text().splitlines()) == 6


def test_verify_closed_forms():
    result = run_script("verify_closed_forms.py", "--grid", "2", "--steps", "1024")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "2 generic points, seed 7, steps 1024 and 2048"
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == list(EQUATION_IDS)
    assert all(row[1] in CLASSIFICATIONS for row in rows)
    assert dict(row[:2] for row in rows)["propagator_Eq14_ode"] == "match"
