"""Every command of the golden corpus gives its stored exit code, stdout and stderr."""

import json
from pathlib import Path

import pytest

from golden_corpus import CASES, GOLDEN, MANIFEST, environment, run

STORED = json.loads(MANIFEST.read_text())


def test_corpus_holds_every_command():
    assert {name: case["argv"] for name, case in STORED["cases"].items()} == CASES


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_golden(name):
    case = STORED["cases"][name]
    stored = (case["exit"], (GOLDEN / f"{name}.stdout").read_bytes().decode(),
              (GOLDEN / f"{name}.stderr").read_bytes().decode())
    assert run(case["argv"]) == stored, (
        f"written on {STORED['environment']}, run on {environment()}"
    )


def test_every_exit_code_in_readme_has_a_command():
    # Exit 5 needs classifications that flip across a grid, which no argv reaches;
    # tests/test_cli.py::TestInconsistentClassificationExit covers it.  Exits 7, 130
    # and 141 need an unwritable stdout or a signal, which an in-process run does not
    # have; tests/test_cli.py::TestUnwritableOutputAndInterrupt runs them in subprocesses.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.partition("| code | meaning |")[2].strip().split("\n\n")[0]
    codes = {int(row.split("|")[1]) for row in table.splitlines()[1:]}
    assert codes - {5, 7, 130, 141} <= {case["exit"] for case in STORED["cases"].values()}
