"""The benchmark's workloads: seeded CLI argument lists and their output checks.

Each workload is a closed loop of sequential CLI calls from one client.  The
seed draws the physical parameters; the program sees only the generated
arguments.  Parameter ranges stay clear of the degenerate frame, spectrum
and vanishing-visibility edges, so no call is expected to fail.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import reference


@dataclass
class Workload:
    """A cycle of CLI calls; ``check(i, text)`` checks the output of call ``i``.

    ``warmup`` is a small call down the same code path, made once before
    timing starts.
    """

    name: str
    calls: list[list[str]]
    warmup: list[str]
    steps: int
    check: Callable[[int, str], reference.CheckResult] = field(repr=False)


def _num(x: float) -> str:
    return repr(float(x))


def _sweep(name, axis, start, stop, points, steps, fixed) -> Workload:
    argv = ["sweep", "--axis", axis, "--start", _num(start), "--stop", _num(stop),
            "--points", str(points), "--steps", str(steps)]
    for flag, value in fixed.items():
        argv += [flag, _num(value)]
    values = np.linspace(start, stop, points)
    cols = {"--V": "V", "--mu-B": "muB", "--omega": "omega", "--beta": "beta"}
    args = {cols[f]: np.full(points, v) for f, v in fixed.items()}
    args[axis] = values
    ref = reference.reference(**args)
    warmup = argv[:]
    warmup[warmup.index("--points") + 1] = "2"
    return Workload(name, [argv], warmup, steps,
                    lambda i, text: reference.check_sweep_csv(text, axis, values, ref))


def beta_sweep(seed: int) -> Workload:
    """The paper's temperature sweep: 101 points share one Hamiltonian and long
    RK4 trajectories, the only workload where shared trajectory work could pay."""
    rng = random.Random(seed)
    fixed = {"--V": rng.uniform(0.6, 1.6), "--mu-B": rng.uniform(0.25, 0.75),
             "--omega": rng.uniform(0.2, 1.6)}
    return _sweep("beta_sweep", "beta", 0.0, 5.0, 101, 8192, fixed)


def omega_sweep_dense(seed: int) -> Workload:
    """2000 distinct short trajectories: per-point Python work (quadrature,
    assembly, companions, CSV formatting) dominates; nothing is shared."""
    rng = random.Random(seed)
    fixed = {"--V": rng.uniform(0.6, 1.6), "--mu-B": rng.uniform(0.25, 0.75),
             "--beta": rng.uniform(0.2, 3.0)}
    return _sweep("omega_sweep_dense", "omega", 0.1, 2.0, 2000, 512, fixed)


def verify_ledger(seed: int) -> Workload:
    """The second engine consumer: long trajectories, full-grid transport, the
    closed forms and JSON serialization of the verification ledger."""
    argv = ["verify", "--grid", "25", "--seed", str(seed), "--steps", "16384", "--format", "json"]
    warmup = argv[:]
    warmup[warmup.index("--grid") + 1] = "2"
    return Workload("verify_ledger", [argv], warmup, 16384,
                    lambda i, text: reference.check_verify_json(text, 25))


PHASES_POINTS = 8


def phases_point(seed: int) -> Workload:
    """Single-point reports at batch width 1, where RK4 cost is per-step
    interpreter overhead; the interactive user's case.

    Runnable by hand but not listed in BENCHMARK.json: on a 2-core shared
    host its medians moved 20-40% between runs minutes apart (setup_s moved
    with them), past any bound the benchmark can fix, while each run's own
    calls agreed to about 1%.
    """
    rng = random.Random(seed)
    pts = [(rng.uniform(0.6, 1.6), rng.uniform(0.25, 0.75), rng.uniform(0.1, 2.0),
            rng.uniform(0.2, 3.0)) for _ in range(PHASES_POINTS)]
    calls = [["phases", "--format", "json", "--V", _num(v), "--mu-B", _num(m),
              "--omega", _num(w), "--beta", _num(b)] for v, m, w, b in pts]
    ref = reference.reference(*np.array(pts).T)
    return Workload("phases_point", calls, calls[0], 8192,
                    lambda i, text: reference.check_phases_json(text, ref, i))


WORKLOADS = {
    w.__name__: w for w in (beta_sweep, omega_sweep_dense, verify_ledger, phases_point)
}
