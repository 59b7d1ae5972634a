"""Two-level spin in a uniformly rotating transverse magnetic field.

Natural units with hbar = 1 are used throughout: energies and angular
frequencies share one unit, times carry the inverse unit.  The longitudinal
splitting ``V`` and the transverse coupling ``muB`` (the product of the
magnetic moment and the field strength) define the Hamiltonian

    H(t) = [[ V/2,           muB e^{-i omega t} ],
            [ muB e^{+i omega t},  -V/2         ]]

which is solved exactly by transforming into the frame co-rotating with the
field.  This module provides the Hamiltonian, the rotating-frame return
period, the closed-form propagator in both operator orderings, thermal
occupation weights, and the closed-form reference expressions for the matrix
elements, dynamical phases and geometric phases at one full rotating-frame
period.

:class:`PointFamily` holds a family of points as arrays and computes every
per-point quantity for all of them with numpy: the rotating-frame frequency,
the level energy, the instantaneous eigenbasis, the thermal weights and the
degeneracy masks.  It is the only source of eigenbases and thermal weights;
the scalar functions are families of one.  A family's H(t) samples are laid
out (2, 2, T, B), the order the engine's kernel steps in.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DegenerateFrame, DegenerateSpectrum, SpinPhaseError
from .linalg import rotation_z, su2_exponential

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


@dataclass(frozen=True)
class PointFamily:
    """Array form of a family of parameter points: 1-D arrays of length B.

    Every per-point quantity is computed here for the whole family with
    elementwise numpy operations, and the scalar functions of this module
    evaluate a family of one, so each formula exists once and a point's
    values do not depend on its family.  Degenerate points are flagged by
    the masks and named by the error methods, not rejected.
    """

    V: np.ndarray
    muB: np.ndarray
    omega: np.ndarray
    beta: np.ndarray

    @classmethod
    def of(cls, points: Sequence[ModelParams]) -> PointFamily:
        columns = np.array([(p.V, p.muB, p.omega, p.beta) for p in points], dtype=float)
        return cls(*columns.reshape(-1, 4).T.copy())

    def __getitem__(self, index) -> PointFamily:
        return PointFamily(self.V[index], self.muB[index], self.omega[index], self.beta[index])

    @cached_property
    def omega_eff(self) -> np.ndarray:
        """Rotating-frame frequency Omega = sqrt((2 muB)^2 + (V - omega)^2)."""
        return np.hypot(2.0 * self.muB, self.V - self.omega)

    @cached_property
    def tau(self) -> np.ndarray:
        """Rotating-frame return period 2 pi / Omega (inf where Omega = 0)."""
        with np.errstate(divide="ignore"):
            return 2.0 * math.pi / self.omega_eff

    @cached_property
    def gap(self) -> tuple[np.ndarray, np.ndarray]:
        """Upper level energy E1 and the shift D = V/2 - E1, computed stably.

        For V >= 0 the subtraction cancels at small coupling, so D is
        -muB (muB / (V/2 + E1)); that ratio is at most 1 and cannot overflow.
        """
        half = 0.5 * self.V
        e1 = np.hypot(half, self.muB)
        denom = half + e1
        with np.errstate(all="ignore"):  # the branch np.where discards may divide by 0
            stable = np.where(denom > 0.0, -self.muB * (self.muB / denom), 0.0)
        return e1, np.where(self.V >= 0.0, stable, half - e1)

    @cached_property
    def weights(self) -> np.ndarray:
        """Thermal weights (lambda1, lambda2), shape (B, 2), overflow-safe.

        lambda1 = e^{-2 beta E1} / (1 + e^{-2 beta E1}) is e^{-beta E1} / Z
        with the largest exponent subtracted; lambda2 is its complement.
        Past the float range, -2 beta E1 is -inf and lambda1 is exactly 0.
        """
        with np.errstate(over="ignore"):
            w = np.exp(-2.0 * self.beta * self.gap[0])
        lam1 = w / (1.0 + w)
        return np.stack([lam1, 1.0 - lam1], axis=1)

    @property
    def frame_degenerate(self) -> np.ndarray:
        """Points without a rotating-frame period: Omega <= 1e-12."""
        return self.omega_eff <= FRAME_EPSILON

    @property
    def spectrum_degenerate(self) -> np.ndarray:
        """Points without an eigenbasis: E1 <= 1e-12."""
        return self.gap[0] <= 1e-12

    def degeneracy(self, i: int, frame=True, spectrum=True) -> SpinPhaseError | None:
        """The error that leaves point ``i`` without a period (``frame``), else an eigenbasis."""
        if frame and self.frame_degenerate[i]:
            return DegenerateFrame(
                f"effective frequency {self.omega_eff[i]:.3e} <= {FRAME_EPSILON:.0e}; no period"
            )
        if spectrum and self.spectrum_degenerate[i]:
            return DegenerateSpectrum(f"E1 = {self.gap[0][i]:.3e} <= 1e-12; eigenbasis undefined")
        return None

    def require(self, frame=True, spectrum=True) -> None:
        """Raise :meth:`degeneracy` of the first point it names, if any."""
        mask = frame & self.frame_degenerate | spectrum & self.spectrum_degenerate
        flagged = np.flatnonzero(mask)
        if flagged.size:
            raise self.degeneracy(flagged[0], frame, spectrum)

    def eigenbasis(self, t=0.0) -> np.ndarray:
        """Eigenvectors of H(t) at a scalar or per-point ``t`` as columns, (B, 2, 2).

        psi1 = (muB, -e^{+i omega t} D) / N and psi2 = (e^{-i omega t} D, muB)
        / N with N = sqrt(D^2 + muB^2), and the exact standard basis where N
        vanishes (muB = 0 < V).  Meaningless where the spectrum is degenerate.
        """
        phase = np.exp(1j * self.omega * t)
        d = self.gap[1]
        norm = np.hypot(d, self.muB)
        basis = np.empty(self.V.shape + (2, 2), dtype=complex)
        basis[:, 0, 0] = basis[:, 1, 1] = self.muB
        basis[:, 1, 0] = -phase * d
        basis[:, 0, 1] = np.conj(phase) * d
        exact = norm == 0.0
        basis /= np.where(exact, 1.0, norm)[:, np.newaxis, np.newaxis]
        basis[exact] = np.eye(2)
        return basis


def hamiltonian(
    p: ModelParams | Sequence[ModelParams] | PointFamily, times: float | np.ndarray
) -> np.ndarray:
    """Lab-frame H(t), traceless and Hermitian.

    For one :class:`ModelParams`, ``times`` is a scalar or an array and the
    shape is times.shape + (2, 2).  For a family of B points, ``times`` is
    (B, T), one row per point, and the result (B, T, 2, 2) is a view of an
    array laid out (2, 2, T, B), each matrix element one contiguous (T, B)
    row: the engine's kernel reads it in that order without a copy.
    """
    times = np.asarray(times, dtype=float)
    if isinstance(p, ModelParams):
        samples = hamiltonian(PointFamily.of([p]), times.reshape(1, -1))[0]
        return samples.reshape(times.shape + (2, 2))
    family = p if isinstance(p, PointFamily) else PointFamily.of(p)
    rows = times.T
    out = np.empty((2, 2) + rows.shape, dtype=complex)
    out[0, 0] = 0.5 * family.V
    out[1, 1] = -0.5 * family.V
    phase = np.multiply(-1j * family.omega, rows, out=np.empty(rows.shape, dtype=complex))
    np.exp(phase, out=phase)
    np.multiply(family.muB, phase, out=out[0, 1])
    np.multiply(family.muB, np.conjugate(phase, out=phase), out=out[1, 0])
    return out.transpose(3, 2, 0, 1)


def period_tau(p: ModelParams) -> float:
    """Rotating-frame return period tau = 2 pi / Omega.

    Raises
    ------
    DegenerateFrame
        If Omega <= 1e-12 (resonant drive with vanishing coupling).
    """
    family = PointFamily.of([p])
    family.require(spectrum=False)
    return float(family.tau[0])


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


@dataclass(frozen=True)
class ThermalWeights:
    """Boltzmann occupation weights of the two instantaneous levels."""

    lambda1: float
    lambda2: float


def thermal_weights(p: ModelParams) -> ThermalWeights:
    """Thermal weights lambda_k = e^{-beta E_k} / Z; see :attr:`PointFamily.weights`."""
    lam1, lam2 = PointFamily.of([p]).weights[0].tolist()
    return ThermalWeights(lambda1=lam1, lambda2=lam2)


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
    family = PointFamily.of([p])
    family.require()
    tau = float(family.tau[0])
    d = float(family.gap[1][0])
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

    lam1, lam2 = family.weights[0].tolist()
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
