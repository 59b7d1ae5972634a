import math
import re

import numpy as np
import pytest

from support import (
    circular_distance,
    diagonal_mixed_phase,
    distinct_weights,
    dynamical_phase,
    offdiag_trace_expansion,
    offdiagonal_mixed_phase,
    piecewise_constant_h,
    random_hermitian,
    random_unitary,
    rk4_reference,
    shift_operator,
    smooth_random_family,
)

from spinphase import engine
from spinphase.engine import (
    Ensemble,
    PropagatorTrace,
    cumulative_simpson,
    diagonal_phase_argument,
    integrate_propagator,
    integrate_sampled_family,
    offdiagonal_trace,
    parallel_transport_residual,
    parallel_transported,
    shift_ensembles,
    transported_propagator,
)
from spinphase.errors import UndefinedPhase, UnitarityLoss
from spinphase.linalg import su2_exponential
from spinphase.model import (
    Convention,
    ModelParams,
    PointFamily,
    closed_form_propagator,
    hamiltonian,
    period_tau,
)
from spinphase.pipeline import model_trace, model_traces
from spinphase.verify import random_generic_params

FLAGSHIP = ModelParams(V=1.0, muB=0.5, omega=0.6, beta=1.0)

# frozen from 40-digit evaluation of the derived closed forms
FLAGSHIP_DELTA1 = -3.485009468485880118
FLAGSHIP_DIAG_RAW = 0.066303320213127464 + 0.435457389852753100j
FLAGSHIP_DIAG_ARG = 1.419695549041162181
FLAGSHIP_OFFDIAG_RAW = -0.886375454070251690


def thermal_ensemble(p):
    family = PointFamily.of([p])
    return Ensemble(basis=family.eigenbasis()[0], weights=family.weights[0])


def constant_h(matrix):
    def h_of_t(times):
        return np.broadcast_to(matrix, (len(times),) + matrix.shape).copy()

    return h_of_t


def model_h(p):
    def h_of_t(times):
        return hamiltonian(p, times)

    return h_of_t


def analytic_delta1(p):
    """Closed form for delta1 over one full period.

    The Heisenberg image of the lab generator precesses about the rotating
    frame axis; over a full period only its component along that axis
    survives the time average.
    """
    family = PointFamily.of([p])
    d = family.gap[1][0]
    n2 = d * d + p.muB * p.muB
    b = p.muB
    sx = -2.0 * b * d / n2
    sz = (b * b - d * d) / n2
    omega_eff = family.omega_eff[0]
    tau = period_tau(p)
    h_rot = b * sx + 0.5 * (p.V - p.omega) * sz
    axis_z = (p.V - p.omega) / omega_eff
    axis_exp = (2.0 * b * sx + (p.V - p.omega) * sz) / omega_eff
    return -tau * (h_rot + 0.5 * p.omega * axis_z * axis_exp)


class TestIntegrator:
    def test_constant_generator_matches_exponential(self):
        h = constant_h(np.diag([0.5, -0.5]).astype(complex))
        trace = integrate_propagator(h, math.pi, 1000)
        exact = su2_exponential((0, 0, 0.5), math.pi)
        assert np.linalg.norm(trace.U[-1] - exact) <= 1e-12

    def test_fourth_order_convergence(self):
        h = constant_h(np.diag([0.25, -0.25]).astype(complex))
        exact = su2_exponential((0, 0, 0.25), math.pi)
        errors = {
            steps: np.linalg.norm(integrate_propagator(h, math.pi, steps).U[-1] - exact)
            for steps in (128, 256)
        }
        assert errors[128] / errors[256] >= 12.0

    def test_matches_closed_form_model_propagator(self):
        trace = model_trace(FLAGSHIP, steps=2048)
        tau = period_tau(FLAGSHIP)
        closed = closed_form_propagator(FLAGSHIP, tau, Convention.ODE)
        assert np.linalg.norm(trace.U[-1] - closed) <= 1e-6

    def test_trace_invariants(self):
        trace = model_trace(FLAGSHIP, steps=1024, full_grid=True)
        np.testing.assert_array_equal(trace.U[0], np.eye(2))
        assert np.all(np.diff(trace.grid) > 0)
        gram = np.einsum("mji,mjk->mik", trace.U.conj(), trace.U) - np.eye(2)
        assert np.linalg.norm(gram, axis=(1, 2)).max() <= 1e-9
        assert np.abs(trace.delta.sum(axis=1)).max() <= 1e-9

    def test_unitarity_loss_on_undersampling(self):
        h = constant_h(50.0 * np.array([[0, 1], [1, 0]], dtype=complex))
        with pytest.raises(UnitarityLoss):
            integrate_propagator(h, 10.0, 64)

    def test_rejects_bad_arguments(self):
        h = constant_h(np.eye(2, dtype=complex))
        with pytest.raises(ValueError):
            integrate_propagator(h, 1.0, 1)
        with pytest.raises(ValueError):
            integrate_propagator(h, 0.0, 16)

    def test_family_matches_single_runs(self):
        points = [FLAGSHIP, ModelParams(V=0.7, muB=0.3, omega=1.1, beta=2.0)]
        taus = [period_tau(p) for p in points]
        singles = [model_trace(p, 512, full_grid=True) for p in points]

        def per_point_h(times):
            return np.stack([hamiltonian(p, row) for p, row in zip(points, times)])

        bases = np.stack([s.basis for s in singles])
        family = integrate_sampled_family(per_point_h, taus, 512, bases, full_grid=True)
        for single, member in zip(singles, family):
            np.testing.assert_array_equal(single.U, member.U)
            np.testing.assert_array_equal(single.delta, member.delta)


    def test_three_level_family_matches_single_runs(self):
        rng = np.random.default_rng(33)
        h = smooth_random_family(3, 5, rng)
        bases = np.stack([random_unitary(3, rng) for _ in range(5)])
        family = integrate_sampled_family(h, np.full(5, 3.0), 256, bases, full_grid=True)
        for j, member in enumerate(family):
            single = integrate_sampled_family(
                h[j : j + 1], [3.0], 256, bases[j : j + 1], full_grid=True
            )[0]
            np.testing.assert_array_equal(single.U, member.U)
            np.testing.assert_array_equal(single.delta, member.delta)

    def test_three_level_family_matches_single_runs_in_segments(self):
        # 1500 steps: three segments of 500, one wave for the family and alone.
        rng = np.random.default_rng(34)
        h = smooth_random_family(3, 5, rng)
        bases = np.stack([random_unitary(3, rng) for _ in range(5)])
        family = integrate_sampled_family(h, np.full(5, 3.0), 1500, bases, full_grid=True)
        for j, member in enumerate(family):
            single = integrate_sampled_family(
                h[j : j + 1], [3.0], 1500, bases[j : j + 1], full_grid=True
            )[0]
            np.testing.assert_array_equal(single.U, member.U)
            np.testing.assert_array_equal(single.delta, member.delta)

    def test_model_member_independent_of_batch_width(self):
        points = [
            ModelParams(V=0.5 + 0.01 * i, muB=0.5, omega=0.1 + 0.015 * i, beta=0.05 * i)
            for i in range(101)
        ]
        family = model_traces(points, 256)
        for j in (0, 57, 100):
            single = model_traces([points[j]], 256)[0]
            np.testing.assert_array_equal(single.U, family[j].U)
            np.testing.assert_array_equal(single.delta, family[j].delta)

    @pytest.mark.parametrize("steps", [-1, 0, 1])
    def test_family_rejects_fewer_than_two_steps(self, steps):
        h = constant_h(np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match="steps must be >= 2"):
            integrate_sampled_family(h, [0.1, 0.1], steps)


class TestPerMemberVerdict:
    """A refused member gets its own verdict and leaves the others bit-identical."""

    def check_others_unchanged(self, h, t_final, refused):
        steps = 128
        family = integrate_sampled_family(h, t_final, steps)
        for j, member in enumerate(family):
            if j in refused:
                assert isinstance(member.refusal, UnitarityLoss)
                assert np.all(np.isnan(member.U[-1])) and np.all(np.isnan(member.delta[-1]))
                continue
            assert member.refusal is None
            alone = integrate_sampled_family(h[[j]], t_final[[j]], steps)[0]
            assert member.U.tobytes() == alone.U.tobytes()
            assert member.delta.tobytes() == alone.delta.tobytes()
        return family

    def test_member_past_the_stability_bound(self):
        rng = np.random.default_rng(7)
        h = smooth_random_family(2, 4, rng)
        h.a[2] *= 1e3  # dt |H| far past 2 sqrt(2)
        family = self.check_others_unchanged(h, np.full(4, 2.0), refused={2})
        assert re.search(r"stability bound .*; needs at least \d+ steps", str(family[2].refusal))

    def test_member_that_drifts(self):
        # dt |H| = 2 is under the bound, but RK4 shrinks |U| by far more than 1e-6.
        h = smooth_random_family(3, 3, np.random.default_rng(8))
        h.a[1], h.c[1], h.s[1] = np.diag([2.0, 0.0, -2.0]) * 64, 0.0, 0.0
        family = self.check_others_unchanged(h, np.full(3, 2.0), refused={1})
        assert "unitarity drift" in str(family[1].refusal)

    def test_member_that_overflows(self):
        # One of 16 levels carries |H|: dt |H|_F / 4 = 2.8 is under the bound,
        # but |S| is about 640, so the run overflows and its drift is NaN.
        n = 16
        spectra = np.zeros((2, n))
        spectra[0, 0] = 11.2
        spectra[1] = np.linspace(-0.01, 0.01, n)
        generators = np.stack([np.diag(s) for s in spectra]).astype(complex)

        def sampler(members):
            return lambda times: np.broadcast_to(generators[members, None], times.shape + (n, n))

        family = integrate_sampled_family(sampler([0, 1]), [64.0, 64.0], 64)
        assert str(family[0].refusal) == "unitarity drift nan > 1e-06"
        assert np.all(np.isnan(family[0].U[-1]))
        alone = integrate_sampled_family(sampler([1]), [64.0], 64)[0]
        assert family[1].refusal is None
        assert family[1].U.tobytes() == alone.U.tobytes()
        assert family[1].delta.tobytes() == alone.delta.tobytes()

    def test_single_runs_still_raise(self):
        h = constant_h(np.diag([128.0, -128.0]).astype(complex))
        with pytest.raises(UnitarityLoss, match="unitarity drift"):
            integrate_propagator(h, 2.0, 128)

    @pytest.mark.parametrize("t_final", [math.inf, math.nan, 0.0])
    def test_final_time_must_be_positive_and_finite(self, t_final):
        h = constant_h(np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match="t_final must be positive and finite"):
            integrate_sampled_family(h, [1.0, t_final], 64)


class TestTimeSegments:
    """Long trajectories run as time segments side by side, and the endpoints compose."""

    POINTS = random_generic_params(33, 4)

    def assert_same_bytes(self, a, b):
        assert a.U.tobytes() == b.U.tobytes()
        assert a.delta.tobytes() == b.delta.tobytes()

    @pytest.mark.parametrize(
        "steps, expected",
        [
            (2, [2]), (511, [511]), (512, [512]), (513, [256, 257]), (640, [320, 320]),
            (1025, [342, 342, 341]), (8192, [512] * 16), (4097, [456] * 5 + [454] * 3 + [455]),
        ],
    )
    def test_layout_depends_on_steps_alone(self, steps, expected):
        assert engine._segment_lengths(steps) == expected

    def test_point_alone_equals_point_in_a_family(self):
        steps = 16384  # 32 segments; 25 points run in waves of 2 segments
        family = model_traces(self.POINTS[:25], steps)
        for j in (0, 13, 24):
            self.assert_same_bytes(model_traces([self.POINTS[j]], steps)[0], family[j])

    def test_point_next_to_a_refused_member(self):
        steps = 4096
        point = self.POINTS[3]
        refused = ModelParams(V=1.0, muB=1e3, omega=0.6, beta=1.0)
        pair = model_traces([point, refused], steps, t_final=[period_tau(point), 100.0])
        assert pair[0].refusal is None
        assert isinstance(pair[1].refusal, UnitarityLoss)
        self.assert_same_bytes(model_traces([point], steps)[0], pair[0])

    def test_across_a_wave_edge(self):
        # 33 points: every wave holds one segment; alone, one wave holds all four.
        steps = 2048
        family = model_traces(self.POINTS, steps)
        for j in (0, 32):
            self.assert_same_bytes(model_traces([self.POINTS[j]], steps)[0], family[j])

    def test_matches_closed_forms_at_16384_steps(self):
        tau = period_tau(FLAGSHIP)
        end = model_trace(FLAGSHIP, steps=16384)
        closed = closed_form_propagator(FLAGSHIP, tau, Convention.ODE)
        assert np.linalg.norm(end.U[-1] - closed) <= 1e-10
        full = model_trace(FLAGSHIP, steps=16384, full_grid=True)
        for k in range(2):
            assert abs(end.delta[-1, k] - dynamical_phase(full, model_h(FLAGSHIP), k)) <= 1e-9

    def test_late_refusal_names_the_largest_ratio(self):
        # |H| grows as t^8: dt |H| passes 2 sqrt(2) only in the last of four segments.
        steps, t_final = 2048, 2.0

        def ramps(*slopes):
            def h_of_t(times):
                scale = 10.0 + np.array(slopes)[:, None] * (times / t_final) ** 8
                return scale[..., None, None] * np.diag([1.0, -1.0]).astype(complex)

            return h_of_t

        family = integrate_sampled_family(ramps(0.0, 3990.0), [t_final, t_final], steps)
        assert family[0].refusal is None
        assert np.all(np.isnan(family[1].U[-1])) and np.all(np.isnan(family[1].delta[-1]))
        # The largest ratio is at t = T: dt |H|_F / sqrt(2) = (2 / 2048) * 4000.
        needed = math.ceil(steps * (t_final / steps * 4000.0) / (2 * math.sqrt(2)))
        assert needed == 2829
        assert f"needs at least {needed} steps" in str(family[1].refusal)
        alone = integrate_sampled_family(ramps(0.0), [t_final], steps)[0]
        self.assert_same_bytes(alone, family[0])

    def test_contractions_per_trajectory(self, monkeypatch):
        calls = []
        contract = engine._contract

        def counting(a, b):
            calls.append(1)
            return contract(a, b)

        monkeypatch.setattr(engine, "_contract", counting)
        steps = 8192
        model_trace(FLAGSHIP, steps)
        segments, waves = steps // engine.SEGMENT_STEPS, 1  # 16 segments of one point fill one wave
        blocks = engine.SEGMENT_STEPS // engine.PROJECTION_INTERVAL
        assert len(calls) <= engine.SEGMENT_STEPS + 5 * blocks * waves + 2 * segments


class TestComposedStep:
    """One RK4 step is one step matrix S = P(A) for constant A = -i dt H."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("k", [2, 3, 5, 17])
    def test_constant_generator_is_a_power_of_the_step_polynomial(self, n, k):
        h = random_hermitian(n, np.random.default_rng(10 * n + k))
        dt = 0.02
        a = -1j * dt * h
        p = np.eye(n) + a + a @ a / 2 + a @ a @ a / 6 + a @ a @ a @ a / 24
        trace = integrate_propagator(constant_h(h), k * dt, k)
        assert np.linalg.norm(trace.U[-1] - np.linalg.matrix_power(p, k)) <= 1e-14

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("steps", [2, 3, 4, 5])
    def test_matches_four_stage_reference_in_a_rotated_basis(self, n, steps):
        rng = np.random.default_rng(100 * n + steps)
        family = smooth_random_family(n, 1, rng)
        basis = random_unitary(n, rng)
        t_final = 0.1
        trace = integrate_propagator(lambda times: family(times[np.newaxis])[0], t_final, steps, basis)
        reference = rk4_reference(lambda t: family(np.array([[t]]))[0, 0], t_final, steps)
        np.testing.assert_array_equal(trace.U[0], np.eye(n))
        assert np.abs(trace.U - reference).max() <= 1e-14
        # The running phases from the reference rows, by the same quadrature.
        ub = reference @ basis
        h_grid = family(trace.grid[np.newaxis])[0]
        integrand = -np.real(np.einsum("mik,mik->mk", ub.conj(), h_grid @ ub))
        delta = cumulative_simpson(integrand, t_final / steps)
        assert np.abs(trace.delta - delta).max() <= 1e-14

    def test_one_contraction_per_step(self, monkeypatch):
        calls = []
        contract = engine._contract

        def counting(a, b):
            calls.append(1)
            return contract(a, b)

        monkeypatch.setattr(engine, "_contract", counting)
        steps = 640
        model_trace(FLAGSHIP, steps)
        blocks = steps // engine.PROJECTION_INTERVAL
        assert len(calls) <= steps + 5 * blocks


class TestCumulativeSimpson:
    # Same operations in the same order as scipy, so the results agree bit for bit.
    @pytest.mark.parametrize("m", [2, 7, 8, 64, 65])
    def test_matches_scipy_with_per_member_dx(self, m):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        rng = np.random.default_rng(m)
        y = rng.normal(size=(m + 1, 2, 5))
        dx = rng.uniform(0.01, 0.5, size=5)
        expected = scipy_integrate.cumulative_simpson(
            y, dx=np.broadcast_to(dx, (1, 2, 5)), axis=0, initial=0.0
        )
        np.testing.assert_array_equal(cumulative_simpson(y, dx), expected)

    @pytest.mark.parametrize("m", [4, 9])
    def test_matches_scipy_with_scalar_dx(self, m):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        y = np.sin(np.linspace(0.0, 3.0, m + 1))
        expected = scipy_integrate.cumulative_simpson(y, dx=0.3, initial=0.0)
        np.testing.assert_array_equal(cumulative_simpson(y, 0.3), expected)

    def test_exact_for_cubics_over_even_intervals(self):
        x = np.linspace(0.0, 2.0, 9)
        integral = cumulative_simpson(x**3 - x, 0.25)
        np.testing.assert_allclose(integral[::2], (x**4 / 4 - x**2 / 2)[::2], atol=1e-14)


class TestDynamicalPhase:
    def test_decoupled_levels(self):
        p = ModelParams(V=1.3, muB=0.0, omega=0.7, beta=0.0)
        trace = model_trace(p, 1024, t_final=2.0, full_grid=True)
        assert dynamical_phase(trace, model_h(p), 0) == pytest.approx(
            -0.5 * p.V * 2.0, abs=1e-9
        )
        assert dynamical_phase(trace, model_h(p), 1) == pytest.approx(
            0.5 * p.V * 2.0, abs=1e-9
        )

    def test_traceless_sum(self):
        trace = model_trace(FLAGSHIP, 1024, full_grid=True)
        d1 = dynamical_phase(trace, model_h(FLAGSHIP), 0)
        d2 = dynamical_phase(trace, model_h(FLAGSHIP), 1)
        assert abs(d1 + d2) <= 1e-9

    def test_agrees_with_running_delta(self):
        trace = model_trace(FLAGSHIP, 1024, full_grid=True)
        d1 = dynamical_phase(trace, model_h(FLAGSHIP), 0)
        assert d1 == pytest.approx(float(trace.delta[-1, 0]), abs=1e-12)

    def test_against_independent_closed_form(self):
        rng = np.random.default_rng(99)
        for _ in range(6):
            p = ModelParams(
                V=float(rng.uniform(0.3, 2)),
                muB=float(rng.uniform(0.15, 1)),
                omega=float(rng.uniform(0.1, 2)),
                beta=1.0,
            )
            trace = model_trace(p, 4096)
            assert float(trace.delta[-1, 0]) == pytest.approx(
                analytic_delta1(p), abs=1e-9
            )

    def test_flagship_frozen(self):
        trace = model_trace(FLAGSHIP, 8192)
        assert float(trace.delta[-1, 0]) == pytest.approx(FLAGSHIP_DELTA1, abs=1e-9)

    def test_index_out_of_range(self):
        trace = model_trace(FLAGSHIP, 256)
        with pytest.raises(IndexError):
            dynamical_phase(trace, model_h(FLAGSHIP), 2)


class TestParallelTransport:
    def test_zero_phases_leave_trace_unchanged(self):
        trace = model_trace(FLAGSHIP, 512)
        zeroed = PropagatorTrace(
            grid=trace.grid,
            U=trace.U,
            delta=np.zeros_like(trace.delta),
            basis=trace.basis,
        )
        np.testing.assert_allclose(parallel_transported(zeroed).U, trace.U, atol=1e-15)

    def test_decoupled_model_transports_to_identity(self):
        p = ModelParams(V=1.3, muB=0.0, omega=0.7, beta=0.0)
        trace = model_trace(p, 1024, t_final=3.0, full_grid=True)
        par = parallel_transported(trace)
        defect = np.linalg.norm(par.U - np.eye(2), axis=(1, 2)).max()
        assert defect <= 1e-9

    def test_matrix_elements_factorize(self):
        trace = model_trace(FLAGSHIP, 1024)
        par = parallel_transported(trace)
        b = trace.basis
        m = b.conj().T @ trace.U[-1] @ b
        expected = m * np.exp(-1j * trace.delta[-1])[np.newaxis, :]
        actual = b.conj().T @ par.U[-1] @ b
        assert np.linalg.norm(actual - expected) <= 1e-8

    def test_endpoint_matches_full_grid(self):
        trace = model_trace(FLAGSHIP, 512, full_grid=True)
        endpoint = transported_propagator(trace.U[-1], trace.delta[-1], trace.basis)
        np.testing.assert_allclose(endpoint, parallel_transported(trace).U[-1], atol=1e-15)

    def test_interior_residual(self):
        trace = model_trace(FLAGSHIP, 4096, full_grid=True)
        assert parallel_transport_residual(parallel_transported(trace)) <= 1e-7


def identity_trace(basis, n=2):
    grid = np.linspace(0.0, 1.0, 5)
    u = np.broadcast_to(np.eye(n, dtype=complex), (5, n, n)).copy()
    return PropagatorTrace(grid=grid, U=u, delta=np.zeros((5, n)), basis=basis)


class TestDiagonalPhase:
    def test_identity_evolution(self):
        e = Ensemble(basis=np.eye(2, dtype=complex), weights=np.array([0.3, 0.7]))
        pf = diagonal_mixed_phase(identity_trace(np.eye(2, dtype=complex)), e)
        assert pf.unit == 1.0
        assert pf.arg == 0.0

    def test_pure_state_reduction(self):
        trace = model_trace(FLAGSHIP, 1024)
        eps = 1e-14
        e = Ensemble(basis=trace.basis, weights=np.array([eps, 1.0 - eps]))
        pf = diagonal_mixed_phase(trace, e)
        b = trace.basis
        m22 = complex(b[:, 1].conj() @ trace.U[-1] @ b[:, 1])
        expected = np.angle(m22 * np.exp(-1j * trace.delta[-1, 1]))
        assert pf.arg == pytest.approx(expected, abs=1e-10)

    def test_flagship_frozen(self):
        trace = model_trace(FLAGSHIP, 8192)
        pf = diagonal_mixed_phase(trace, thermal_ensemble(FLAGSHIP))
        assert pf.raw == pytest.approx(FLAGSHIP_DIAG_RAW, abs=1e-9)
        assert pf.arg == pytest.approx(FLAGSHIP_DIAG_ARG, abs=1e-9)

    def test_visibility_collapse(self):
        h = constant_h(0.5 * math.pi * np.array([[0, 1], [1, 0]], dtype=complex))
        trace = integrate_propagator(h, 1.0, 1024)
        e = Ensemble(basis=np.eye(2, dtype=complex), weights=np.array([0.3, 0.7]))
        with pytest.raises(UndefinedPhase):
            diagonal_mixed_phase(trace, e)

    def test_basis_mismatch_rejected(self):
        trace = model_trace(FLAGSHIP, 256)
        e = Ensemble(basis=np.eye(2, dtype=complex), weights=np.array([0.3, 0.7]))
        with pytest.raises(ValueError):
            diagonal_phase_argument(trace, e)


class TestShiftEnsembles:
    def test_two_level_swap(self):
        e = thermal_ensemble(FLAGSHIP)
        companions = shift_ensembles(e)
        assert len(companions) == 2
        np.testing.assert_array_equal(companions[0].weights, e.weights)
        np.testing.assert_array_equal(companions[1].weights, e.weights[::-1])

    def test_uniform_weights_admitted(self):
        e = Ensemble(basis=np.eye(2, dtype=complex), weights=np.array([0.5, 0.5]))
        companions = shift_ensembles(e)
        assert len(companions) == 2

    def test_three_level_cycle_matches_conjugation(self):
        # oracle: conjugate diag(a, b, c) by the explicit shift matrix
        rng = np.random.default_rng(7)
        basis = random_unitary(3, rng)
        weights = np.array([0.5, 0.3, 0.2])
        e = Ensemble(basis=basis, weights=weights)
        companions = shift_ensembles(e)
        w_op = shift_operator(basis)
        rho = (basis * weights) @ basis.conj().T
        conjugated = w_op @ rho @ w_op.conj().T
        diag = np.real(basis.conj().T @ conjugated @ basis).diagonal()
        np.testing.assert_allclose(companions[1].weights, diag, atol=1e-12)
        np.testing.assert_array_equal(companions[1].weights, [0.2, 0.5, 0.3])

    def test_shift_operator_is_cyclic_permutation(self):
        w_op = shift_operator(np.eye(3, dtype=complex))
        expected = np.zeros((3, 3))
        expected[1, 0] = expected[2, 1] = expected[0, 2] = 1.0
        np.testing.assert_array_equal(w_op.real, expected)


class TestOffDiagonalPhase:
    def test_single_ensemble_reduces_to_diagonal_argument(self):
        trace = model_trace(FLAGSHIP, 1024)
        e = thermal_ensemble(FLAGSHIP)
        z = offdiagonal_trace(trace, [e], 1)
        assert abs(z - diagonal_phase_argument(trace, e)) <= 1e-12

    def test_decoupled_model_gives_unit_phase(self):
        p = ModelParams(V=1.3, muB=0.0, omega=0.7, beta=1.0)
        trace = model_trace(p, 1024, t_final=3.0)
        e = thermal_ensemble(p)
        pf = offdiagonal_mixed_phase(trace, shift_ensembles(e), 2)
        expected = 2.0 * math.sqrt(e.weights[0] * e.weights[1])
        assert pf.raw == pytest.approx(expected, abs=1e-9)
        assert pf.arg == pytest.approx(0.0, abs=1e-9)

    def test_flagship_frozen(self):
        trace = model_trace(FLAGSHIP, 8192)
        pf = offdiagonal_mixed_phase(trace, shift_ensembles(thermal_ensemble(FLAGSHIP)), 2)
        assert pf.raw.real == pytest.approx(FLAGSHIP_OFFDIAG_RAW, abs=1e-9)
        assert abs(pf.raw.imag) <= 1e-9
        # +pi and -pi are the same phase factor; the sign of a rounding-level
        # imaginary part picks between them.
        assert circular_distance(pf.arg, math.pi) <= 1e-6

    def test_length_mismatch_rejected(self):
        trace = model_trace(FLAGSHIP, 256)
        e = thermal_ensemble(FLAGSHIP)
        with pytest.raises(ValueError):
            offdiagonal_trace(trace, [e, e], 3)

    @pytest.mark.parametrize("n,l", [(2, 2), (3, 2), (3, 3)])
    def test_operator_route_equals_scalar_expansion(self, n, l):
        rng = np.random.default_rng(50 + 10 * n + l)
        for _ in range(10):
            segments = [random_hermitian(n, rng, 0.35) for _ in range(3)]
            trace = integrate_propagator(
                piecewise_constant_h(segments, 1.0),
                3.0,
                4104,
                basis=random_unitary(n, rng),
            )
            e = Ensemble(basis=trace.basis, weights=distinct_weights(n, rng))
            companions = shift_ensembles(e)[:l]
            z_op = offdiagonal_trace(trace, companions, l)
            z_exp = offdiag_trace_expansion(trace, companions, l)
            assert abs(z_op - z_exp) <= 1e-10


class TestInvariances:
    def test_gauge_invariance_sample(self):
        rng = np.random.default_rng(21)
        for n in (2, 3):
            h = smooth_random_family(n, 4, rng)
            bases = np.stack([random_unitary(n, rng) for _ in range(4)])
            weights = np.stack([distinct_weights(n, rng) for _ in range(4)])
            thetas = rng.uniform(-math.pi, math.pi, size=(4, n))
            rotated = bases * np.exp(1j * thetas)[:, None, :]
            for b_set in (bases, rotated):
                traces = integrate_sampled_family(h, np.full(4, 3.0), 512, b_set)
                args = []
                for trace, basis, w in zip(traces, b_set, weights):
                    e = Ensemble(basis=basis, weights=w)
                    args.append(
                        (
                            np.angle(diagonal_phase_argument(trace, e)),
                            np.angle(offdiagonal_trace(trace, shift_ensembles(e))),
                        )
                    )
                if b_set is bases:
                    reference = np.array(args)
                else:
                    deviation = np.abs(
                        np.angle(np.exp(1j * (np.array(args) - reference)))
                    ).max()
                    assert deviation <= 1e-9

    def test_identity_shift_invariance_sample(self):
        rng = np.random.default_rng(22)
        n, count, steps = 2, 4, 1024
        h = smooth_random_family(n, count, rng)
        bases = np.stack([random_unitary(n, rng) for _ in range(count)])
        weights = np.stack([distinct_weights(n, rng) for _ in range(count)])
        c0 = rng.uniform(-1, 1, size=count)
        c1 = rng.uniform(-1, 1, size=count)
        nu = rng.uniform(0.3, 2.0, size=count)

        def shifted(times):
            scalar = c0[:, None] + c1[:, None] * np.cos(nu[:, None] * times)
            return h(times) + scalar[..., None, None] * np.eye(n)

        for h_set, store in ((h, "ref"), (shifted, "cmp")):
            traces = integrate_sampled_family(h_set, np.full(count, 3.0), steps, bases)
            args = np.array(
                [
                    (
                        np.angle(diagonal_phase_argument(t, Ensemble(basis=b, weights=w))),
                        np.angle(
                            offdiagonal_trace(
                                t, shift_ensembles(Ensemble(basis=b, weights=w))
                            )
                        ),
                    )
                    for t, b, w in zip(traces, bases, weights)
                ]
            )
            if store == "ref":
                reference = args
        deviation = np.abs(np.angle(np.exp(1j * (args - reference)))).max()
        assert deviation <= 1e-8


class TestEnsembleValidation:
    def test_rejects_non_orthonormal_basis(self):
        with pytest.raises(ValueError):
            Ensemble(basis=np.ones((2, 2), dtype=complex), weights=np.array([0.5, 0.5]))

    def test_rejects_non_normalized_weights(self):
        with pytest.raises(ValueError):
            Ensemble(basis=np.eye(2, dtype=complex), weights=np.array([0.5, 0.6]))

    def test_rejects_non_positive_weights(self):
        with pytest.raises(ValueError, match="non-negative"):
            Ensemble(basis=np.eye(2, dtype=complex), weights=np.array([1.1, -0.1]))

    def test_accepts_an_empty_level(self):
        e = Ensemble(basis=np.eye(2, dtype=complex), weights=np.array([1.0, 0.0]))
        np.testing.assert_array_equal(e.weights, [1.0, 0.0])
