"""Acceptance criteria, one test per criterion.

Each test records a PASS/FAIL line that the run summary echoes.  Tolerances
and sizes are pinned here and nowhere else; nothing is deferred to later
calibration.
"""

import math
import time

import numpy as np
import pytest

from support import circular_distance, distinct_weights, random_unitary, smooth_random_family

from spinphase.cli import main as cli_main
from spinphase.engine import (
    Ensemble,
    diagonal_phase_argument,
    integrate_propagator,
    integrate_sampled_family,
    offdiagonal_trace,
    parallel_transport_residual,
    parallel_transported,
    shift_ensembles,
)
from spinphase.linalg import phase_functional, su2_exponential
from spinphase.model import (
    Convention,
    ModelParams,
    closed_form_propagator,
    thermal_weights,
)
from spinphase.pipeline import SweepSpec, model_trace, model_traces, run_sweep
from spinphase.verify import random_generic_params, verify_grid

FLAGSHIP = ModelParams(V=1.0, muB=0.5, omega=0.6, beta=1.0)

GOLDEN_CLASSIFICATIONS = {
    "U11_Eq15": "conjugate",
    "U12_Eq16": "mismatch",
    "delta1_Eq17": "mismatch",
    "delta2_Eq18": "match",
    "Uparallel_Eq19": "mismatch",
    "offdiag_Eq23": "mismatch",
    "diag_Eq24": "mismatch",
    "propagator_Eq14_literal": "conjugate",
    "propagator_Eq14_ode": "match",
}


def test_criterion_1_oracle_equivalence(acceptance):
    started = time.perf_counter()
    trace = model_trace(FLAGSHIP, steps=8192, full_grid=True)
    sample_idx = np.linspace(0, 8192, 64).astype(int)
    sup_dist = max(
        np.linalg.norm(
            trace.U[i]
            - closed_form_propagator(FLAGSHIP, float(trace.grid[i]), Convention.ODE)
        )
        for i in sample_idx
    )

    def h_const(times):
        out = np.zeros((len(times), 2, 2), dtype=complex)
        out[:, 0, 0] = 0.25
        out[:, 1, 1] = -0.25
        return out

    exact = su2_exponential((0.0, 0.0, 0.25), math.pi)
    err = {
        steps: np.linalg.norm(integrate_propagator(h_const, math.pi, steps).U[-1] - exact)
        for steps in (128, 256)
    }
    ratio = err[128] / err[256]
    elapsed = time.perf_counter() - started

    ok = sup_dist <= 1e-6 and ratio >= 12.0 and elapsed < 1.0
    acceptance(
        1,
        "oracle equivalence with closed form",
        ok,
        f"sup distance {sup_dist:.2e}, halving ratio {ratio:.1f}, {elapsed:.2f} s",
    )
    assert sup_dist <= 1e-6
    assert ratio >= 12.0
    assert elapsed < 1.0


def test_criterion_2_exact_identities(acceptance):
    points = random_generic_params(50, seed=20250809)
    traces = model_traces(points, steps=8192)
    worst_sum = 0.0
    worst_structure = 0.0
    for trace in traces:
        worst_sum = max(worst_sum, abs(float(trace.delta[-1].sum())))
        b = trace.basis
        m = b.conj().T @ trace.U[-1] @ b
        worst_structure = max(
            worst_structure,
            abs(m[1, 1] - m[0, 0].conjugate()),
            abs(m[1, 0] + m[0, 1].conjugate()),
        )
    ok = worst_sum <= 1e-9 and worst_structure <= 1e-9
    acceptance(
        2,
        "exact identities (phase sum, element structure)",
        ok,
        f"max |delta1+delta2| {worst_sum:.2e}, max structure defect {worst_structure:.2e}",
    )
    assert worst_sum <= 1e-9
    assert worst_structure <= 1e-9


def test_criterion_3_parallel_transport(acceptance):
    trace = model_trace(FLAGSHIP, steps=4096, full_grid=True)
    residual = parallel_transport_residual(parallel_transported(trace))
    ok = residual <= 1e-7
    acceptance(3, "parallel transport residual", ok, f"max residual {residual:.2e}")
    assert residual <= 1e-7


def test_criterion_4_reality_and_quantization(acceptance):
    betas = np.linspace(0.0, 5.0, 11)
    omegas = np.linspace(0.1, 2.0, 11)
    points = [
        ModelParams(V=1.0, muB=0.5, omega=float(w), beta=float(b))
        for b in betas
        for w in omegas
    ]
    traces = model_traces(points, steps=8192)
    worst_off_ratio = 0.0
    worst_quantization = 0.0
    worst_diag_ratio = 0.0
    for p, trace in zip(points, traces):
        w = thermal_weights(p)
        ensemble = Ensemble(basis=trace.basis, weights=np.array([w.lambda1, w.lambda2]))
        companions = shift_ensembles(ensemble)
        off_raw = offdiagonal_trace(trace, companions, 2)
        worst_off_ratio = max(worst_off_ratio, abs(off_raw.imag) / abs(off_raw))
        arg = phase_functional(off_raw).arg
        worst_quantization = max(
            worst_quantization,
            min(float(circular_distance(arg, 0.0)), float(circular_distance(arg, math.pi))),
        )
        if p.beta == 0.0:
            diag_raw = diagonal_phase_argument(trace, ensemble)
            worst_diag_ratio = max(worst_diag_ratio, abs(diag_raw.imag) / abs(diag_raw))
    ok = worst_off_ratio <= 1e-8 and worst_quantization <= 1e-6 and worst_diag_ratio <= 1e-8
    acceptance(
        4,
        "reality and {0, pi} quantization on the (beta, omega) grid",
        ok,
        f"max off-diag |Im|/|raw| {worst_off_ratio:.2e}, "
        f"max distance to {{0, pi}} {worst_quantization:.2e}, "
        f"max beta=0 diag |Im|/|raw| {worst_diag_ratio:.2e}",
    )
    assert worst_off_ratio <= 1e-8
    assert worst_quantization <= 1e-6
    assert worst_diag_ratio <= 1e-8


def test_criterion_5_temperature_sensitivity(acceptance):
    spec = SweepSpec(
        axis="beta",
        start=0.0,
        stop=5.0,
        points=101,
        fixed=ModelParams(V=1.0, muB=0.5, omega=0.6, beta=0.0),
        steps=8192,
    )
    started = time.perf_counter()
    rows = run_sweep(spec)
    elapsed = time.perf_counter() - started

    off = np.array([r.offdiag_phase for r in rows], dtype=float)
    assert not np.any(np.isnan(off))
    near_zero = circular_distance(off, 0.0) <= 1e-6
    near_pi = circular_distance(off, math.pi) <= 1e-6
    quantized = bool(np.all(near_zero | near_pi))
    distinct_off = int(np.any(near_zero)) + int(np.any(near_pi))

    diag = np.array([r.diag_phase for r in rows], dtype=float)
    distinct_diag = len(set(diag.tolist()))
    total_variation = float(np.abs(np.diff(diag)).sum())
    # adjacent steps stay small wherever the principal branch is not crossed
    jumps = np.abs(np.diff(diag))
    max_smooth_jump = float(jumps[jumps < math.pi].max())

    ok = (
        quantized
        and distinct_off <= 2
        and distinct_diag >= 10
        and total_variation > 0.1
        and max_smooth_jump < 0.5
        and elapsed < 5.0
    )
    acceptance(
        5,
        "temperature sensitivity contrast on the beta sweep",
        ok,
        f"off-diag values {distinct_off}, diag distinct {distinct_diag}, "
        f"diag variation {total_variation:.3f} rad, {elapsed:.2f} s",
    )
    assert quantized
    assert distinct_off <= 2
    assert distinct_diag >= 10
    assert total_variation > 0.1
    assert max_smooth_jump < 0.5
    assert elapsed < 5.0


def test_criterion_6_verification_ledger(acceptance):
    grid = random_generic_params(25, seed=7)
    reports_a = verify_grid(grid, steps=8192)
    reports_b = verify_grid(grid, steps=16384)
    stable = all(
        {it.equation_id: it.classification for it in ra.items}
        == {it.equation_id: it.classification for it in rb.items}
        for ra, rb in zip(reports_a, reports_b)
    )
    observed = {it.equation_id: it.classification for it in reports_a[0].items}
    ok = (
        stable
        and observed == GOLDEN_CLASSIFICATIONS
        and observed["propagator_Eq14_ode"] == "match"
        and observed["delta2_Eq18"] == "match"
    )
    acceptance(
        6,
        "verification ledger stability and golden classifications",
        ok,
        f"stable across 8192/16384: {stable}; ledger {observed}",
    )
    assert stable
    assert observed == GOLDEN_CLASSIFICATIONS


@pytest.mark.parametrize("dim", [2, 3])
def test_criterion_7_invariance_suites(acceptance, dim):
    count, steps, t_final = 100, 2048, 3.0
    rng = np.random.default_rng(4000 + dim)
    h = smooth_random_family(dim, count, rng)
    bases = np.stack([random_unitary(dim, rng) for _ in range(count)])
    weights = np.stack([distinct_weights(dim, rng) for _ in range(count)])

    def family_args(h_of_t, basis_set):
        traces = integrate_sampled_family(h_of_t, np.full(count, t_final), steps, basis_set)
        args = []
        smallest = math.inf
        for trace, basis, w in zip(traces, basis_set, weights):
            ensemble = Ensemble(basis=basis, weights=w)
            diag = diagonal_phase_argument(trace, ensemble)
            off = offdiagonal_trace(trace, shift_ensembles(ensemble))
            smallest = min(smallest, abs(diag), abs(off))
            args.append((np.angle(diag), np.angle(off)))
        return np.array(args), smallest

    reference, visibility = family_args(h, bases)
    assert visibility > 1e-5, "seed produced a near-degenerate instance"

    thetas = rng.uniform(-math.pi, math.pi, size=(count, dim))
    gauge_args, _ = family_args(h, bases * np.exp(1j * thetas)[:, None, :])
    gauge_dev = float(np.max(circular_distance(gauge_args - reference, 0.0)))

    c0 = rng.uniform(-1.0, 1.0, size=count)
    c1 = rng.uniform(-1.0, 1.0, size=count)
    nu = rng.uniform(0.3, 2.0, size=count)

    def shifted(times):
        scalar = c0[:, None] + c1[:, None] * np.cos(nu[:, None] * times)
        return h(times) + scalar[..., None, None] * np.eye(dim)

    shift_args, _ = family_args(shifted, bases)
    shift_dev = float(np.max(circular_distance(shift_args - reference, 0.0)))

    ok = gauge_dev <= 1e-8 and shift_dev <= 1e-8
    acceptance(
        7,
        f"gauge and identity-shift invariance, {count} instances, N={dim}",
        ok,
        f"gauge dev {gauge_dev:.2e}, shift dev {shift_dev:.2e}",
    )
    assert gauge_dev <= 1e-8
    assert shift_dev <= 1e-8


def test_criterion_8_sweep_determinism(acceptance, capsys):
    argv = [
        "sweep",
        "--axis", "beta", "--start", "0", "--stop", "3", "--points", "25",
        "--V", "1", "--mu-B", "0.5", "--omega", "0.6",
        "--steps", "2048",
    ]
    outputs = []
    for jobs in ("1", "1", "4"):
        code = cli_main(argv + ["--jobs", jobs])
        captured = capsys.readouterr()
        assert code == 0
        outputs.append(captured.out.encode())
    identical = outputs[0] == outputs[1] == outputs[2]
    acceptance(
        8,
        "byte-identical sweep output, serial and parallel",
        identical,
        f"{len(outputs[0])} bytes per run",
    )
    assert identical
