import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinphase.errors import DegenerateFrame, DegenerateSpectrum
from spinphase.linalg import SIGMA_X, unitarity_defect
from spinphase.model import (
    Convention,
    ModelParams,
    PointFamily,
    closed_form_propagator,
    hamiltonian,
    period_tau,
    reference_closed_forms,
    thermal_weights,
)

FLAGSHIP = ModelParams(V=1.0, muB=0.5, omega=0.6, beta=1.0)

# frozen from 40-digit evaluation of the defining expressions
FLAGSHIP_OMEGA_EFF = 1.077032961426900806
FLAGSHIP_TAU = 5.833791102228984013
FLAGSHIP_LAMBDA1 = 0.195570317493043095
FLAGSHIP_E1 = 0.707106781186547524
FLAGSHIP_NSQ = 0.292893218813452476

params_strategy = st.builds(
    ModelParams,
    V=st.floats(min_value=-3, max_value=3, allow_nan=False),
    muB=st.floats(min_value=0, max_value=2, allow_nan=False),
    omega=st.floats(min_value=-3, max_value=3, allow_nan=False),
    beta=st.floats(min_value=0, max_value=50, allow_nan=False),
)

generic_params = st.builds(
    ModelParams,
    V=st.floats(min_value=0.2, max_value=3),
    muB=st.floats(min_value=0.1, max_value=2),
    omega=st.floats(min_value=0.05, max_value=3),
    beta=st.floats(min_value=0, max_value=10),
)


class TestModelParams:
    def test_rejects_negative_coupling(self):
        with pytest.raises(ValueError):
            ModelParams(V=1, muB=-0.1, omega=0, beta=0)

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            ModelParams(V=1, muB=0.1, omega=0, beta=-1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ModelParams(V=math.inf, muB=0.1, omega=0, beta=0)


class TestHamiltonian:
    def test_zero_coupling_is_diagonal(self):
        h = hamiltonian(ModelParams(V=1, muB=0, omega=2.2, beta=0), 0.0)
        np.testing.assert_array_equal(h, np.diag([0.5, -0.5]))

    def test_static_transverse(self):
        h = hamiltonian(ModelParams(V=0, muB=0.5, omega=0, beta=0), 17.3)
        np.testing.assert_allclose(h, 0.5 * SIGMA_X, atol=1e-15)

    def test_half_turn_flips_coupling_sign(self):
        p = ModelParams(V=1, muB=0.5, omega=0.6, beta=0)
        h = hamiltonian(p, math.pi / 0.6)
        np.testing.assert_allclose(
            h, np.array([[0.5, -0.5], [-0.5, -0.5]]), atol=1e-15
        )

    @given(p=params_strategy, t=st.floats(min_value=-20, max_value=20))
    def test_traceless_and_hermitian(self, p, t):
        h = hamiltonian(p, t)
        assert h[0, 0] + h[1, 1] == 0.0
        assert np.array_equal(h, h.conj().T)

    @given(p=generic_params, t=st.floats(min_value=0, max_value=10))
    def test_periodicity_in_field_rotation(self, p, t):
        h1 = hamiltonian(p, t)
        h2 = hamiltonian(p, t + 2 * math.pi / p.omega)
        assert np.linalg.norm(h1 - h2) <= 1e-13

    def test_samples_match_pointwise(self):
        p = FLAGSHIP
        times = np.linspace(0.0, 7.0, 23)
        stacked = hamiltonian(p, times)
        for i, t in enumerate(times):
            np.testing.assert_array_equal(stacked[i], hamiltonian(p, t))

    def test_samples_vectorized_over_points(self):
        points = [FLAGSHIP, ModelParams(V=0.3, muB=1.2, omega=-0.4, beta=2.0)]
        times = np.array([np.linspace(0.0, 7.0, 23), np.linspace(0.0, 3.0, 23)])
        stacked = hamiltonian(points, times)
        assert stacked.shape == (2, 23, 2, 2)
        for p, row, samples in zip(points, times, stacked):
            np.testing.assert_array_equal(samples, hamiltonian(p, row))


class TestPointFamily:
    """The array form and the scalar functions are one computation, bit for bit."""

    EDGES = [
        ModelParams(V=1.3, muB=0.0, omega=0.4, beta=2.0),  # muB = 0 < V: exact basis
        ModelParams(V=-0.8, muB=0.3, omega=0.2, beta=1.0),  # V < 0 branch of D
        ModelParams(V=-1.2, muB=0.0, omega=0.3, beta=0.5),  # V < 0 without coupling
        ModelParams(V=1e200, muB=1e199, omega=0.6, beta=0.0),  # muB^2 would overflow
        ModelParams(V=1.4, muB=0.4, omega=0.1, beta=600.0),  # lambda1 underflows to 0
        ModelParams(V=1.0, muB=0.0, omega=1.0, beta=1.0),  # degenerate frame
        ModelParams(V=0.0, muB=0.0, omega=0.5, beta=1.0),  # degenerate spectrum
        ModelParams(V=0.0, muB=0.0, omega=0.0, beta=1.0),  # both: the frame is named
    ]

    @staticmethod
    def family_points():
        rng = np.random.default_rng(2024)
        drawn = [
            ModelParams(V=float(v), muB=float(m), omega=float(w), beta=float(b))
            for v, m, w, b in zip(
                rng.uniform(-3, 3, 200), rng.uniform(0, 2, 200),
                rng.uniform(-3, 3, 200), rng.uniform(0, 20, 200),
            )
        ]
        return drawn[:100] + TestPointFamily.EDGES + drawn[100:]

    @staticmethod
    def same_bits(a, b):
        return np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_array_form_matches_scalar_wrappers(self):
        points = self.family_points()
        family = PointFamily.of(points)
        e1, d = family.gap
        bases = family.eigenbasis()
        for i, p in enumerate(points):
            one = PointFamily.of([p])
            assert self.same_bits(family.omega_eff[i], one.omega_eff[0])
            assert self.same_bits([e1[i], d[i]], [one.gap[0][0], one.gap[1][0]])
            w = thermal_weights(p)
            assert self.same_bits(family.weights[i], [w.lambda1, w.lambda2])
            if family.frame_degenerate[i]:
                with pytest.raises(DegenerateFrame) as caught:
                    period_tau(p)
                assert str(caught.value) == str(family.degeneracy(i, spectrum=False))
            else:
                assert family.degeneracy(i, spectrum=False) is None
                assert self.same_bits(family.tau[i], period_tau(p))
            if family.spectrum_degenerate[i]:
                with pytest.raises(DegenerateSpectrum) as caught:
                    one.require(frame=False)
                assert str(caught.value) == str(family.degeneracy(i, frame=False))
            else:
                assert family.degeneracy(i, frame=False) is None
                assert self.same_bits(bases[i], one.eigenbasis()[0])

    def test_edge_points_get_the_right_masks(self):
        family = PointFamily.of(self.EDGES)
        np.testing.assert_array_equal(family.frame_degenerate, [0, 0, 0, 0, 0, 1, 0, 1])
        np.testing.assert_array_equal(family.spectrum_degenerate, [0, 0, 0, 0, 0, 0, 1, 1])
        assert isinstance(family.degeneracy(7), DegenerateFrame)
        assert isinstance(family.degeneracy(6), DegenerateSpectrum)
        bases = family.eigenbasis()
        np.testing.assert_array_equal(bases[0], np.eye(2))  # exact, not 0/0
        np.testing.assert_array_equal(bases[2], [[0, -1], [1, 0]])  # upper level is |1>
        assert family.weights[4, 0] == 0.0 and family.weights[4, 1] == 1.0
        assert np.all(np.isfinite(family.gap[1][:5]))

    def test_sampler_is_laid_out_for_the_kernel(self):
        points = [FLAGSHIP, ModelParams(V=0.3, muB=1.2, omega=-0.4, beta=2.0)]
        times = 0.01 * np.arange(2)[:, np.newaxis] * np.arange(129)
        h = hamiltonian(PointFamily.of(points), times)
        assert h.shape == (2, 129, 2, 2)
        kernel_order = h.transpose(2, 3, 1, 0)
        assert kernel_order.flags.c_contiguous
        assert np.ascontiguousarray(kernel_order) is kernel_order


class TestRotatingFrame:
    @staticmethod
    def omega_eff(p):
        return PointFamily.of([p]).omega_eff[0]

    def test_resonance(self):
        assert self.omega_eff(ModelParams(V=1, muB=0.5, omega=1, beta=0)) == pytest.approx(1.0)

    def test_longitudinal_only(self):
        assert self.omega_eff(ModelParams(V=1, muB=0, omega=0, beta=0)) == pytest.approx(1.0)

    def test_flagship_effective_frequency(self):
        assert self.omega_eff(FLAGSHIP) == pytest.approx(FLAGSHIP_OMEGA_EFF, abs=1e-14)


class TestPeriodTau:
    def test_unit_frequency(self):
        assert period_tau(ModelParams(V=1, muB=0, omega=0, beta=0)) == pytest.approx(
            2 * math.pi
        )

    def test_flagship(self):
        assert period_tau(FLAGSHIP) == pytest.approx(FLAGSHIP_TAU, abs=1e-12)

    def test_resonance(self):
        assert period_tau(ModelParams(V=1, muB=0.5, omega=1, beta=0)) == pytest.approx(
            2 * math.pi
        )

    def test_degenerate_frame(self):
        with pytest.raises(DegenerateFrame):
            period_tau(ModelParams(V=1, muB=0, omega=1, beta=0))


class TestClosedFormPropagator:
    @pytest.mark.parametrize("conv", [Convention.LITERAL, Convention.ODE])
    def test_identity_at_zero(self, conv):
        np.testing.assert_allclose(
            closed_form_propagator(FLAGSHIP, 0.0, conv), np.eye(2), atol=1e-15
        )

    def test_zero_coupling_ode_solution(self):
        # decoupled levels evolve as e^{-+ i V t / 2}
        p = ModelParams(V=1.3, muB=0, omega=0.7, beta=0)
        for t in (0.1, 1.0, 4.5):
            expected = np.diag([np.exp(-0.5j * p.V * t), np.exp(0.5j * p.V * t)])
            np.testing.assert_allclose(
                closed_form_propagator(p, t, Convention.ODE), expected, atol=1e-14
            )

    @given(
        p=generic_params,
        t=st.floats(min_value=0, max_value=20),
        conv=st.sampled_from(list(Convention)),
    )
    def test_unitarity(self, p, t, conv):
        assert unitarity_defect(closed_form_propagator(p, t, conv)) <= 1e-13

    @given(p=generic_params)
    def test_full_period_reduces_to_frame_rotation(self, p):
        # exp(-i H_rot tau) = -1, so the conventions become conjugates
        tau = period_tau(p)
        lit = closed_form_propagator(p, tau, Convention.LITERAL)
        ode = closed_form_propagator(p, tau, Convention.ODE)
        half = 0.5 * p.omega * tau
        expected_ode = -np.diag([np.exp(-1j * half), np.exp(1j * half)])
        assert np.linalg.norm(ode - expected_ode) <= 1e-12
        assert np.linalg.norm(lit - ode.conj()) <= 1e-12

    def test_conventions_coincide_without_rotation(self):
        p = ModelParams(V=1.0, muB=0.5, omega=0.0, beta=0.0)
        for t in (0.3, 2.0):
            np.testing.assert_allclose(
                closed_form_propagator(p, t, Convention.LITERAL),
                closed_form_propagator(p, t, Convention.ODE),
                atol=1e-14,
            )

    def test_ode_ordering_satisfies_equation_of_motion(self):
        # central-difference residual of i dU/dt = H(t) U shrinks as h^2
        p = FLAGSHIP
        t = 1.7

        def residual(h):
            du = (
                closed_form_propagator(p, t + h, Convention.ODE)
                - closed_form_propagator(p, t - h, Convention.ODE)
            ) / (2.0 * h)
            u = closed_form_propagator(p, t, Convention.ODE)
            return np.linalg.norm(du + 1j * hamiltonian(p, t) @ u)

        r1, r2 = residual(1e-3), residual(5e-4)
        assert r1 <= 1e-5
        assert 3.0 <= r1 / r2 <= 5.0

    def test_literal_ordering_violates_equation_of_motion(self):
        p = FLAGSHIP
        t, h = 1.7, 1e-5
        du = (
            closed_form_propagator(p, t + h, Convention.LITERAL)
            - closed_form_propagator(p, t - h, Convention.LITERAL)
        ) / (2.0 * h)
        u = closed_form_propagator(p, t, Convention.LITERAL)
        assert np.linalg.norm(du + 1j * hamiltonian(p, t) @ u) > 1e-2


class TestEigensystem:
    """The eigenbasis columns psi1, psi2 of H(t) for the energies E1 = -E2, from PointFamily."""

    @staticmethod
    def frame(p, t=0.0):
        family = PointFamily.of([p])
        family.require(frame=False)
        return family.gap[0][0], family.eigenbasis(t)[0]

    def test_zero_coupling_falls_back_to_basis_vectors(self):
        e1, basis = self.frame(ModelParams(V=1, muB=0, omega=0.4, beta=0))
        assert e1 == pytest.approx(0.5)
        np.testing.assert_array_equal(basis, np.eye(2))

    def test_pure_transverse(self):
        e1, basis = self.frame(ModelParams(V=0, muB=0.5, omega=0.9, beta=0))
        assert e1 == pytest.approx(0.5)
        np.testing.assert_allclose(
            np.abs(basis[:, 0]), np.array([1, 1]) / math.sqrt(2), atol=1e-14
        )

    def test_flagship_values(self):
        e1, basis = self.frame(FLAGSHIP)
        assert e1 == pytest.approx(FLAGSHIP_E1, abs=1e-14)
        shift = 0.5 - e1
        n_sq = shift**2 + 0.25
        assert n_sq == pytest.approx(FLAGSHIP_NSQ, abs=1e-14)
        np.testing.assert_allclose(
            basis[:, 0], np.array([0.5, -shift]) / math.sqrt(n_sq), atol=1e-14
        )

    def test_degenerate_spectrum(self):
        with pytest.raises(DegenerateSpectrum):
            self.frame(ModelParams(V=0, muB=0, omega=1, beta=0))

    @settings(max_examples=150)
    @given(p=generic_params, t=st.floats(min_value=0, max_value=12))
    def test_eigen_equation_and_orthonormality(self, p, t):
        e1, basis = self.frame(p, t)
        psi1, psi2 = basis[:, 0], basis[:, 1]
        h = hamiltonian(p, t)
        assert np.linalg.norm(h @ psi1 - e1 * psi1) <= 1e-10
        assert np.linalg.norm(h @ psi2 + e1 * psi2) <= 1e-10
        assert abs(np.linalg.norm(psi1) - 1) <= 1e-12
        assert abs(np.linalg.norm(psi2) - 1) <= 1e-12
        assert abs(np.vdot(psi1, psi2)) <= 1e-12

    def test_negative_splitting_without_coupling(self):
        p = ModelParams(V=-1.2, muB=0, omega=0.3, beta=0)
        e1, basis = self.frame(p)
        assert e1 == pytest.approx(0.6)
        h = hamiltonian(p, 0.0)
        assert np.linalg.norm(h @ basis[:, 0] - e1 * basis[:, 0]) <= 1e-12

    def test_gap_does_not_overflow(self):
        e1, d = PointFamily.of([ModelParams(V=1e300, muB=1e300, omega=0)]).gap
        assert math.isfinite(e1[0]) and math.isfinite(d[0])
        assert d[0] == pytest.approx(0.5e300 - e1[0], rel=1e-14)

    def test_basis_matrix_is_unitary(self):
        assert unitarity_defect(self.frame(FLAGSHIP)[1]) <= 1e-13


class TestThermalWeights:
    def test_infinite_temperature(self):
        w = thermal_weights(ModelParams(V=1, muB=0.5, omega=0, beta=0))
        assert w.lambda1 == 0.5
        assert w.lambda2 == 0.5

    def test_ground_state_limit(self):
        w = thermal_weights(ModelParams(V=1, muB=0.5, omega=0, beta=1e4))
        assert w.lambda1 <= 1e-12
        assert w.lambda2 == pytest.approx(1.0, abs=1e-12)

    def test_flagship_boltzmann_ratio(self):
        w = thermal_weights(FLAGSHIP)
        assert w.lambda1 == pytest.approx(FLAGSHIP_LAMBDA1, abs=1e-14)

    @given(p=params_strategy)
    def test_sum_and_ordering(self, p):
        w = thermal_weights(p)
        assert abs(w.lambda1 + w.lambda2 - 1.0) <= 1e-14
        assert w.lambda2 >= w.lambda1

    def test_monotone_in_beta(self):
        p0 = ModelParams(V=1, muB=0.5, omega=0.6, beta=0.0)
        betas = np.linspace(0.0, 6.0, 25)
        values = [
            thermal_weights(ModelParams(V=p0.V, muB=p0.muB, omega=p0.omega, beta=float(b))).lambda1
            for b in betas
        ]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestReferenceClosedForms:
    def test_zero_coupling_offdiagonal_vanishes(self):
        rc = reference_closed_forms(ModelParams(V=1, muB=0, omega=0.4, beta=1))
        assert rc.u12 == 0
        assert rc.u12_literal == 0
        assert rc.u21 == 0

    def test_static_field_diagonal_element(self):
        rc = reference_closed_forms(ModelParams(V=1, muB=0.5, omega=0.0, beta=1))
        assert rc.u11 == pytest.approx(-1.0, abs=1e-14)

    def test_structural_identities(self):
        rc = reference_closed_forms(FLAGSHIP)
        assert rc.u22 == rc.u11.conjugate()
        assert rc.u21 == -rc.u12.conjugate()
        assert rc.delta2 == -rc.delta1

    def test_flagship_record_frozen(self):
        # frozen from 40-digit evaluation of the stated expressions
        rc = reference_closed_forms(FLAGSHIP)
        assert rc.tau == pytest.approx(FLAGSHIP_TAU, abs=1e-12)
        assert rc.u11 == pytest.approx(
            0.178381185416303530 - 0.695765820046326486j, abs=1e-13
        )
        assert rc.u12 == pytest.approx(
            -0.244241927709251395 - 0.651487495730812922j, abs=1e-13
        )
        assert rc.u12_literal == pytest.approx(
            -0.073354931024818950 - 0.195665915189448568j, abs=1e-13
        )
        assert rc.delta1 == pytest.approx(-1.650045299364743239, abs=1e-13)
        assert rc.offdiag_arg == pytest.approx(-0.096846471780202768, abs=1e-13)
        assert rc.diag_arg == pytest.approx(
            -0.679460386429624513 + 0.141804779927995155j, abs=1e-13
        )

    def test_degenerate_frame_propagates(self):
        with pytest.raises(DegenerateFrame):
            reference_closed_forms(ModelParams(V=1, muB=0, omega=1, beta=0))
