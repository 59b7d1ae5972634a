"""Self-tests of the benchmark's checker and tracer.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import tracer  # noqa: E402
from run import Runner  # noqa: E402
from spinphase import cli  # noqa: E402
from workloads import Workload  # noqa: E402

V, MUB, OMEGA, BETA = 1.1, 0.45, 0.7, 1.3


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def sweep():
    values = np.linspace(0.0, 5.0, 6)
    argv = ["sweep", "--axis", "beta", "--start", "0", "--stop", "5", "--points", "6",
            "--steps", "2048", "--V", str(V), "--mu-B", str(MUB), "--omega", str(OMEGA)]
    ref = reference.reference(np.full(6, V), np.full(6, MUB), np.full(6, OMEGA), values)
    workload = Workload("small_sweep", [argv], argv, 2048,
                        lambda i, text: reference.check_sweep_csv(text, "beta", values, ref))
    return workload, _cli(argv)


@pytest.fixture(scope="module")
def point():
    argv = ["phases", "--format", "json", "--V", str(V), "--mu-B", str(MUB),
            "--omega", str(OMEGA), "--beta", str(BETA)]
    return reference.reference([V], [MUB], [OMEGA], [BETA]), _cli(argv)


def _perturb_field(line: str, column: int, delta: float) -> str:
    fields = line.split(",")
    fields[column] = repr(float(fields[column]) + delta)
    return ",".join(fields)


def test_unmodified_outputs_pass(sweep, point):
    workload, text = sweep
    assert workload.check(0, text).ok
    ref, doc = point
    result = reference.check_phases_json(doc, ref, 0)
    assert result.ok, result.errors
    assert result.phase_err_max < 1e-9


def test_sweep_phase_perturbed_by_1e5_fails(sweep):
    workload, text = sweep
    lines = text.split("\n")
    lines[3] = _perturb_field(lines[3], 6, 1e-5)  # diag_phase of the third row
    result = workload.check(0, "\n".join(lines))
    assert not result.ok
    assert any("diag_phase" in e for e in result.errors)


def test_point_phase_perturbed_by_1e5_fails(point):
    ref, text = point
    doc = json.loads(text)
    doc["offdiag"]["arg"] += 1e-5
    assert not reference.check_phases_json(json.dumps(doc), ref, 0).ok


def test_one_changed_byte_fails(sweep):
    workload, text = sweep

    class Replay:
        """A stand-in CLI that prints a scripted output on each call."""

        def __init__(self, outputs):
            self.outputs = iter(outputs)

        def main(self, argv):
            print(next(self.outputs), end="")
            return 0

    # Change the last digit of a 17-digit float: numerically invisible at
    # 1e-6, so only the byte comparison with the earlier call can catch it.
    row = text.split("\n")[2].split(",")
    last = row[3][-1]
    row[3] = row[3][:-1] + ("1" if last != "1" else "2")
    changed = text.replace(text.split("\n")[2], ",".join(row))
    assert workload.check(0, changed).ok
    runner = Runner(Replay([text, text, changed]), workload)
    for i in range(3):
        runner.call(i)
    assert (runner.attempted, runner.failed) == (3, 1)
    assert "bytes differ" in runner.reasons[0]


def test_gauss_legendre_converged():
    args = ([0.7, 1.5], [0.3, 0.7], [0.2, 1.9], [0.5, 2.5])
    lo, hi = reference.reference(*args), reference.reference(*args, nodes=128)
    for key in ("delta", "diag_raw", "offdiag_raw"):
        assert np.max(np.abs(lo[key] - hi[key])) < 1e-12


def test_reference_propagator_matches_model():
    from spinphase.model import Convention, ModelParams, closed_form_propagator

    args = ([0.7, 1.5], [0.3, 0.7], [0.2, 1.9])
    ref = reference.reference(*args, [0.5, 2.5])
    for i, (v, m, w) in enumerate(zip(*args)):
        exact = closed_form_propagator(ModelParams(V=v, muB=m, omega=w), ref["tau"][i], Convention.ODE)
        assert np.linalg.norm(exact - ref["U"][i]) < 1e-12


def test_missing_entry_point_is_absent_not_fatal(sweep, monkeypatch):
    workload, text = sweep
    monkeypatch.setitem(tracer.SPANS, "engine.integrate",
                        ("engine:integrate_sampled_family", "engine:no_such_integrator"))
    t = tracer.Tracer()
    runner = Runner(cli, workload)
    runner.call(0, t)
    assert runner.failed == 0
    assert t.missing == ["engine:no_such_integrator"]
    metrics = t.call_metrics(workload.steps, None)
    assert metrics["engine.integrate_s"] is None
    assert metrics["engine.step_rate"] is None
    assert metrics["engine.trace_mib"] is None
    assert metrics["pipeline.sample_s"] > 0.0
    assert metrics["pipeline.points"] == 6
    # The wrappers are gone once the traced call returns.
    from spinphase import pipeline
    assert pipeline.model_traces.__module__ == "spinphase.pipeline"
