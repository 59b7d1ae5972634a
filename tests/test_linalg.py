import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinphase.errors import UndefinedPhase
from spinphase.linalg import (
    IDENTITY_2,
    phase_functional,
    polar_project,
    principal_arg,
    su2_exponential,
    unitarity_defect,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
# Components are either exactly zero or well inside the normal range, so a
# power-of-two rescaling stays exact.
nonzero_complex = st.builds(
    lambda m, theta: complex(m * math.cos(theta), m * math.sin(theta)),
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=-math.pi, max_value=math.pi),
).filter(lambda z: all(c == 0.0 or abs(c) >= 1e-30 for c in (z.real, z.imag)))


class TestPhaseFunctional:
    def test_positive_real(self):
        pf = phase_functional(5.0)
        assert pf.unit == 1.0
        assert pf.arg == 0.0

    def test_negative_real(self):
        pf = phase_functional(-2.0)
        assert pf.unit == -1.0
        assert pf.arg == math.pi

    def test_diagonal_direction(self):
        pf = phase_functional(1.0 + 1.0j)
        expected = math.sqrt(2.0) / 2.0 * (1.0 + 1.0j)
        assert abs(pf.unit - expected) < 1e-15
        assert abs(pf.arg - math.pi / 4.0) < 1e-15

    @pytest.mark.parametrize("z", [0.0, 1e-13 + 0j, -1e-14j])
    def test_undefined_below_threshold(self, z):
        with pytest.raises(UndefinedPhase):
            phase_functional(z)

    @pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.0, math.inf), complex(-math.inf, 1.0)])
    def test_non_finite_is_rejected(self, z):
        with pytest.raises(ValueError, match="finite components"):
            phase_functional(z)

    def test_raw_is_preserved(self):
        pf = phase_functional(3.0 - 4.0j)
        assert pf.raw == 3.0 - 4.0j

    @given(z=nonzero_complex)
    def test_unit_modulus(self, z):
        assert abs(abs(phase_functional(z).unit) - 1.0) <= 1e-14

    @given(z=nonzero_complex, k=st.integers(min_value=-19, max_value=19))
    def test_scale_invariance_exact_on_binary_scales(self, z, k):
        # Powers of two scale both components exactly, so the quotient is
        # bit-identical.
        r = 2.0**k
        assert phase_functional(r * z).unit == phase_functional(z).unit

    @given(z=nonzero_complex, r=st.floats(min_value=1e-6, max_value=1e6))
    def test_scale_invariance_generic(self, z, r):
        assert abs(phase_functional(r * z).unit - phase_functional(z).unit) <= 1e-15

    @given(z=nonzero_complex)
    def test_arg_in_half_open_interval(self, z):
        arg = phase_functional(z).arg
        assert -math.pi < arg <= math.pi

    def test_negative_real_with_negative_zero_imag(self):
        assert principal_arg(complex(-1.0, -0.0)) == math.pi

    @pytest.mark.parametrize("z", [-1 - 1e-17j, -1 - 2e-16j, complex(-1.0, -1.4e-14)])
    def test_rounding_residue_below_minus_pi_gives_pi(self, z):
        assert principal_arg(z) == math.pi

    def test_arguments_past_32_ulp_keep_their_sign(self):
        assert -math.pi < principal_arg(complex(-1.0, -1.5e-14)) < -math.pi + 1.6e-14


class TestSu2Exponential:
    def test_zero_generator(self):
        np.testing.assert_array_equal(su2_exponential((0, 0, 0), 3.7), IDENTITY_2)

    def test_sigma_z_quarter_turn(self):
        u = su2_exponential((0, 0, 1), math.pi / 2)
        np.testing.assert_allclose(u, np.diag([-1j, 1j]), atol=1e-15)

    def test_sigma_x_full_turn(self):
        u = su2_exponential((1, 0, 0), math.pi)
        np.testing.assert_allclose(u, -IDENTITY_2, atol=1e-15)

    @given(
        a=st.tuples(finite, finite, finite),
        t=st.floats(min_value=-10, max_value=10, allow_nan=False),
    )
    def test_unitarity(self, a, t):
        assert unitarity_defect(su2_exponential(a, t)) <= 1e-13

    @given(
        a=st.tuples(
            st.floats(min_value=-3, max_value=3),
            st.floats(min_value=-3, max_value=3),
            st.floats(min_value=-3, max_value=3),
        ),
        t=st.floats(min_value=-5, max_value=5),
    )
    def test_matches_spectral_exponential(self, a, t):
        generator = a[0] * SIGMA_X + a[1] * SIGMA_Y + a[2] * SIGMA_Z
        values, vectors = np.linalg.eigh(generator)
        expected = (vectors * np.exp(-1j * values * t)) @ vectors.conj().T
        np.testing.assert_allclose(su2_exponential(a, t), expected, atol=1e-12)


class TestPolarProject:
    def test_restores_unitarity(self):
        rng = np.random.default_rng(11)
        u = su2_exponential((0.3, 0.4, 0.5), 2.0)
        perturbed = u + 1e-7 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        assert unitarity_defect(polar_project(perturbed)) <= 1e-14
