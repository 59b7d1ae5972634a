"""Two-level spin in a uniformly rotating transverse magnetic field.

Natural units with hbar = 1 are used throughout: energies and angular
frequencies share one unit, times carry the inverse unit.  The longitudinal
splitting ``V`` and the transverse coupling ``muB`` (the product of the
magnetic moment and the field strength) define the Hamiltonian

    H(t) = [[ V/2,           muB e^{-i omega t} ],
            [ muB e^{+i omega t},  -V/2         ]]

which is solved exactly by transforming into the frame co-rotating with the
field.  This module provides the Hamiltonian, the constant rotating-frame
generator and its return period, the closed-form propagator in both operator
orderings, the instantaneous eigensystem, thermal occupation weights, and the
closed-form reference expressions for the matrix elements, dynamical phases
and geometric phases at one full rotating-frame period.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateFrame, DegenerateSpectrum
from .linalg import SIGMA_X, SIGMA_Z, rotation_z, su2_exponential

#: Effective frequencies at or below this are treated as degenerate.
FRAME_EPSILON = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Physical inputs defining the Hamiltonian and the thermal state.

    Attributes
    ----------
    V : float
        Longitudinal level splitting (energy units).
    muB : float
        Transverse coupling, the product of magnetic moment and field
        strength.  Must be non-negative.
    omega : float
        Angular frequency of the field rotation.
    beta : float
        Inverse temperature 1/(kT), non-negative.
    """

    V: float
    muB: float
    omega: float
    beta: float = 0.0

    def __post_init__(self):
        for name in ("V", "muB", "omega", "beta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.muB < 0:
            raise ValueError(f"muB must be >= 0, got {self.muB}")
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")


class Convention(enum.Enum):
    """Operator ordering used by the closed-form propagator.

    LITERAL is the right-multiplied ordering exp(-i H_rot t) exp(+i sigma_z
    omega t / 2) stated by the reference closed forms; ODE is the
    left-multiplied ordering exp(-i sigma_z omega t / 2) exp(-i H_rot t),
    which solves i dU/dt = H(t) U with U(0) = I.  The two coincide at t = 0
    and at omega = 0, and reduce to complex conjugates of each other at one
    full rotating-frame period.
    """

    LITERAL = "literal"
    ODE = "ode"


def hamiltonian(
    p: ModelParams | Sequence[ModelParams], times: float | np.ndarray
) -> np.ndarray:
    """Lab-frame H(t), traceless and Hermitian; shape times.shape + (2, 2).

    ``times`` is a scalar or an array.  ``p`` is one :class:`ModelParams`,
    or a sequence of B of them with ``times`` of shape (B, T), one row of
    sample times per point.
    """
    times = np.asarray(times, dtype=float)
    if isinstance(p, ModelParams):
        V, muB, omega = p.V, p.muB, p.omega
    else:
        V, muB, omega = (
            np.array([getattr(q, name) for q in p])[:, np.newaxis]
            for name in ("V", "muB", "omega")
        )
    phase = np.exp(-1j * omega * times)
    out = np.empty(times.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = 0.5 * V
    out[..., 1, 1] = -0.5 * V
    out[..., 0, 1] = muB * phase
    out[..., 1, 0] = muB * np.conj(phase)
    return out


def rotating_frame(p: ModelParams):
    """Constant co-rotating generator and effective frequency.

    Returns (H_rot, Omega) with H_rot = muB sigma_x + (V - omega)/2 sigma_z
    and Omega = sqrt((2 muB)^2 + (V - omega)^2).
    """
    h_rot = p.muB * SIGMA_X + 0.5 * (p.V - p.omega) * SIGMA_Z
    omega_eff = math.hypot(2.0 * p.muB, p.V - p.omega)
    return h_rot, omega_eff


def period_tau(p: ModelParams) -> float:
    """Rotating-frame return period tau = 2 pi / Omega.

    Raises
    ------
    DegenerateFrame
        If Omega <= 1e-12 (resonant drive with vanishing coupling).
    """
    _, omega_eff = rotating_frame(p)
    if omega_eff <= FRAME_EPSILON:
        raise DegenerateFrame(
            f"effective frequency {omega_eff:.3e} <= {FRAME_EPSILON:.0e}; no period"
        )
    return 2.0 * math.pi / omega_eff


def closed_form_propagator(
    p: ModelParams, t: float, convention: Convention = Convention.ODE
) -> np.ndarray:
    """Exact propagator built from the rotating-frame solution.

    Both orderings share the SU(2) factor exp(-i H_rot t); they differ in
    where the frame rotation exp(±i sigma_z omega t / 2) is applied.  Only
    the ODE ordering satisfies i dU/dt = H(t) U with U(0) = I.
    """
    rot = su2_exponential((p.muB, 0.0, 0.5 * (p.V - p.omega)), t)
    half = 0.5 * p.omega * t
    if convention is Convention.LITERAL:
        return rot @ rotation_z(-half)
    return rotation_z(half) @ rot


def level_gap_shift(V: float, muB: float):
    """Upper level energy E1 and the shift D = V/2 - E1, computed stably.

    For V >= 0 the direct subtraction cancels catastrophically at small
    coupling, so D is evaluated as -muB^2 / (V/2 + E1).
    """
    e1 = math.hypot(0.5 * V, muB)
    if V >= 0.0:
        denom = 0.5 * V + e1
        d = -(muB * muB) / denom if denom > 0.0 else 0.0
    else:
        d = 0.5 * V - e1
    return e1, d


@dataclass(frozen=True)
class SpectralFrame:
    """Instantaneous eigensystem of H(t).

    ``psi1``/``psi2`` are unit eigenvectors for the energies ``E1 = -E2 =
    +sqrt((V/2)^2 + muB^2)``; ``normN`` is the normalization divisor applied
    to the closed-form components (1.0 when the zero-coupling branch returns
    exact basis vectors).
    """

    t: float
    E1: float
    E2: float
    psi1: np.ndarray
    psi2: np.ndarray
    normN: float


def eigensystem(p: ModelParams, t: float) -> SpectralFrame:
    """Instantaneous eigenvalues and eigenvectors of H(t).

    Implements the closed-form components

        psi1 = (muB, -e^{+i omega t} D) / N,
        psi2 = (e^{-i omega t} D,  muB) / N,   D = V/2 - E1,
        N = sqrt(D^2 + muB^2),

    with the exact standard basis where the closed form loses rank (muB = 0
    with V > 0 makes N vanish).

    Raises
    ------
    DegenerateSpectrum
        If E1 <= 1e-12 (V and muB both vanishing).
    """
    e1, d = level_gap_shift(p.V, p.muB)
    if e1 <= 1e-12:
        raise DegenerateSpectrum(f"E1 = {e1:.3e} <= 1e-12; eigenbasis undefined")
    norm_n = math.hypot(d, p.muB)
    if norm_n == 0.0:
        # muB = 0 < V: H(t) = diag(V/2, -V/2) at every t, so the basis is exact.
        basis = np.eye(2, dtype=complex)
        return SpectralFrame(t=t, E1=e1, E2=-e1, psi1=basis[:, 0], psi2=basis[:, 1], normN=1.0)
    phase = np.exp(1j * p.omega * t)
    psi1 = np.array([p.muB, -phase * d], dtype=complex) / norm_n
    psi2 = np.array([np.conj(phase) * d, p.muB], dtype=complex) / norm_n
    return SpectralFrame(t=t, E1=e1, E2=-e1, psi1=psi1, psi2=psi2, normN=norm_n)


def eigenbasis_matrix(frame: SpectralFrame) -> np.ndarray:
    """Eigenvectors as the columns of a 2x2 unitary matrix."""
    return np.column_stack([frame.psi1, frame.psi2])


@dataclass(frozen=True)
class ThermalWeights:
    """Boltzmann occupation weights of the two instantaneous levels."""

    lambda1: float
    lambda2: float


def thermal_weights(p: ModelParams) -> ThermalWeights:
    """Thermal weights lambda_k = e^{-beta E_k} / Z, overflow-safe.

    The largest exponent is subtracted before exponentiation, which reduces
    to lambda1 = e^{-2 beta E1} / (1 + e^{-2 beta E1}); lambda2 is the exact
    complement so the weights sum to one.
    """
    e1, _ = level_gap_shift(p.V, p.muB)
    w = math.exp(-2.0 * p.beta * e1)
    lam1 = w / (1.0 + w)
    return ThermalWeights(lambda1=lam1, lambda2=1.0 - lam1)


@dataclass(frozen=True)
class ReferenceForms:
    """Closed-form reference values at one rotating-frame period t = tau.

    These are the expressions under verification, evaluated exactly as
    stated.  ``u12``/``u21`` apply the documented repair sin(omega/2) ->
    sin(omega tau / 2) (the stated argument is dimensionally inconsistent:
    a bare frequency inside a sine); ``u12_literal``/``u21_literal`` keep
    the argument as stated.  ``offdiag_arg`` and ``diag_arg`` carry the
    stated phase-functional arguments rescaled by the positive factors
    2/N^4 and 1/N^2 respectively, so that an exact expression would
    reproduce the definitional trace value; positive rescaling cannot
    change the resulting phase.
    """

    tau: float
    u11: complex
    u12: complex
    u21: complex
    u22: complex
    u12_literal: complex
    u21_literal: complex
    delta1: float
    delta2: float
    offdiag_arg: complex
    diag_arg: complex


def reference_closed_forms(p: ModelParams) -> ReferenceForms:
    """Evaluate every closed-form reference expression at t = tau.

    The structural identities u22 = conj(u11), u21 = -conj(u12) and
    delta2 = -delta1 are applied as stated.  At muB = 0 the vanishing
    normalization is handled by the exact limits of the component fractions
    muB^2/N^2, D^2/N^2 and muB D/N^2.

    Raises
    ------
    DegenerateFrame
        If the rotating-frame frequency vanishes.
    DegenerateSpectrum
        If both V and muB vanish.
    """
    tau = period_tau(p)
    e1, d = level_gap_shift(p.V, p.muB)
    if e1 <= 1e-12:
        raise DegenerateSpectrum(f"E1 = {e1:.3e} <= 1e-12; eigenbasis undefined")
    n_sq = d * d + p.muB * p.muB
    if n_sq > 0.0:
        frac_b = p.muB * p.muB / n_sq
        frac_d = d * d / n_sq
        cross = p.muB * d / n_sq
    else:
        # muB = 0 with V > 0: limits of the fractions as the coupling -> 0.
        frac_b, frac_d, cross = 1.0, 0.0, 0.0

    half_wt = 0.5 * p.omega * tau
    u11 = -(frac_b * np.exp(1j * half_wt) + frac_d * np.exp(-1j * half_wt))
    off_phase = np.exp(-1j * (p.omega * tau + 0.5 * math.pi))
    u12_literal = 2.0 * cross * math.sin(0.5 * p.omega) * off_phase
    u12 = 2.0 * cross * math.sin(half_wt) * off_phase

    delta1 = tau * (2.0 * d * frac_b + (frac_d - frac_b) * (0.5 * p.V - p.omega))
    delta2 = -delta1

    weights = thermal_weights(p)
    lam1, lam2 = weights.lambda1, weights.lambda2
    root = math.sqrt(lam1 * lam2)
    wt = p.omega * tau
    offdiag_arg = 2.0 * (
        cross * cross * (math.cos(wt) - 1.0)
        + root
        * (
            (frac_d * frac_d + frac_b * frac_b) * math.cos(wt + 2.0 * delta1)
            + 2.0 * cross * cross * math.cos(2.0 * delta1)
        )
    )
    diag_arg = frac_b * (
        lam1 * np.exp(1j * (half_wt - delta1)) + lam2 * np.exp(-1j * (half_wt - delta1))
    ) + frac_d * (
        lam1 * np.exp(-1j * (half_wt + delta1)) + lam2 * np.exp(1j * (half_wt + delta1))
    )

    return ReferenceForms(
        tau=tau,
        u11=complex(u11),
        u12=complex(u12),
        u21=-complex(u12).conjugate(),
        u22=complex(u11).conjugate(),
        u12_literal=complex(u12_literal),
        u21_literal=-complex(u12_literal).conjugate(),
        delta1=delta1,
        delta2=delta2,
        offdiag_arg=complex(offdiag_arg),
        diag_arg=complex(diag_arg),
    )
