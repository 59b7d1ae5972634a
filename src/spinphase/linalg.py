"""Dense complex kernels for small dimensions.

Everything here is a pure function over numpy ``complex128`` arrays.  The
collection holds only what the engine and the model call: the phase functional
z -> z/|z|, closed-form SU(2) exponentials and z rotations, and the unitarity
check and polar projection used by the integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UndefinedPhase

#: Magnitudes at or below this are treated as zero by the phase functional.
PHASE_EPSILON = 1e-12

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


#: Arguments within this many ulp of -pi (1.4e-14 rad) are reported as +pi.
PI_ULPS = 32


def principal_arg(z: complex) -> float:
    """Argument of ``z`` in the half-open interval (-pi, pi].

    An argument within 32 ulp (1.4e-14 rad) of -pi is returned as +pi, an
    error of at most 1.4e-14 on the circle.  A negative real ``z`` whose
    imaginary part is a rounding residue of either sign then has the one
    argument pi, not pi or -pi by the sign of the residue; the quantized
    off-diagonal phases carry residues of up to about 1e-14 relative.
    """
    a = math.atan2(z.imag, z.real)
    if a <= -math.pi + PI_ULPS * math.ulp(math.pi):
        a = math.pi
    return a


@dataclass(frozen=True)
class PhaseFactor:
    """A nonzero complex number together with its unit-circle normalization.

    Attributes
    ----------
    raw : complex
        The number handed to the phase functional, before normalization.
    unit : complex
        raw / |raw|, on the unit circle to within 1e-14.
    arg : float
        Principal argument of ``unit`` in (-pi, pi].
    """

    raw: complex
    unit: complex
    arg: float


def phase_functional(z: complex) -> PhaseFactor:
    """Unit-modulus phase factor of a nonzero complex number.

    Raises
    ------
    UndefinedPhase
        If |z| <= 1e-12.  The phase of a vanishing interference amplitude
        is physically undefined.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError("phase functional requires finite components")
    r = abs(z)
    if r <= PHASE_EPSILON:
        raise UndefinedPhase(f"|z| = {r:.3e} <= {PHASE_EPSILON:.0e}; phase undefined")
    unit = complex(z.real / r, z.imag / r)
    return PhaseFactor(raw=z, unit=unit, arg=principal_arg(unit))


def su2_exponential(a, t: float) -> np.ndarray:
    """Closed-form ``exp(-i (a . sigma) t)`` for a real 3-vector ``a``.

    Returns cos(|a| t) I - i sin(|a| t) (a_hat . sigma); the identity when
    ``a`` vanishes.  The result is unitary to within 1e-13.
    """
    ax, ay, az = (float(c) for c in a)
    norm = math.hypot(ax, ay, az)
    if norm == 0.0:
        return IDENTITY_2.copy()
    theta = norm * float(t)
    c = math.cos(theta)
    s = math.sin(theta)
    nx, ny, nz = ax / norm, ay / norm, az / norm
    return np.array(
        [
            [c - 1j * s * nz, -1j * s * (nx - 1j * ny)],
            [-1j * s * (nx + 1j * ny), c + 1j * s * nz],
        ],
        dtype=complex,
    )


def rotation_z(theta: float) -> np.ndarray:
    """``exp(-i sigma_z theta)`` = diag(e^{-i theta}, e^{+i theta})."""
    return np.array(
        [[np.exp(-1j * theta), 0.0], [0.0, np.exp(1j * theta)]], dtype=complex
    )


def unitarity_defect(u: np.ndarray) -> float:
    """Frobenius distance of ``u^dagger u`` from the identity, per matrix of a batch."""
    u = np.asarray(u, dtype=complex)
    gram = np.conj(np.swapaxes(u, -1, -2)) @ u
    return np.linalg.norm(gram - np.eye(u.shape[-1]), axis=(-2, -1))


def polar_project(u: np.ndarray, iterations: int = 2) -> np.ndarray:
    """Project (a batch of) nearly-unitary matrices onto the unitary group.

    Newton iteration for the unitary polar factor, X <- (X + X^{-dagger})/2;
    two iterations take a 1e-6 defect below machine precision.  SVD-free so
    the same code path serves batched input.
    """
    x = np.asarray(u, dtype=complex)
    for _ in range(iterations):
        inv_adj = np.linalg.inv(np.conjugate(np.swapaxes(x, -2, -1)))
        x = 0.5 * (x + inv_adj)
    return x
