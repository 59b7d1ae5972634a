"""Dense complex kernels for small dimensions.

Everything here is a pure function over numpy ``complex128`` arrays.  The
collection is deliberately small: the phase functional z -> z/|z|, closed-form
SU(2) exponentials, a gauge-fixed Hermitian eigensolver for small matrices,
and the handful of matrix helpers the rest of the package leans on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotHermitian, UndefinedPhase

#: Magnitudes at or below this are treated as zero by the phase functional.
PHASE_EPSILON = 1e-12

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


def principal_arg(z: complex) -> float:
    """Argument of ``z`` in the half-open interval (-pi, pi]."""
    a = math.atan2(z.imag, z.real)
    if a == -math.pi:
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


def multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with an explicit conformability check."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape[-1] != b.shape[-2 if b.ndim > 1 else -1]:
        raise DimensionMismatch(f"cannot multiply shapes {a.shape} and {b.shape}")
    return a @ b


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a, dtype=complex).conj().T


def trace(a: np.ndarray) -> complex:
    """Trace of a square matrix."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"trace requires a square matrix, got {a.shape}")
    return complex(np.trace(a))


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of a - b."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def unitarity_defect(u: np.ndarray) -> float:
    """Frobenius distance of ``u^dagger u`` from the identity; the largest over a batch."""
    u = np.asarray(u, dtype=complex)
    gram = np.conj(np.swapaxes(u, -1, -2)) @ u
    return float(np.max(np.linalg.norm(gram - np.eye(u.shape[-1]), axis=(-2, -1))))


def hermitian_defect(h: np.ndarray) -> float:
    """Frobenius distance of ``h`` from its own adjoint."""
    h = np.asarray(h, dtype=complex)
    return float(np.linalg.norm(h - h.conj().T))


def _fix_gauge(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude component is real positive."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        k = int(np.argmax(np.abs(col)))
        c = col[k]
        out[:, j] = col * (c.conjugate() / abs(c))
        out[k, j] = abs(c)
    return out


def eigh_fixed_gauge(h: np.ndarray, hermitian_tol: float = 1e-10):
    """Eigendecomposition of a small Hermitian matrix, descending order.

    The gauge is fixed deterministically: the largest-magnitude component of
    each eigenvector is made real positive.

    Returns (values, vectors) with ``values[0] >= values[1] >= ...`` and the
    eigenvectors as the columns of ``vectors``.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {h.shape}")
    defect = hermitian_defect(h)
    if defect > hermitian_tol:
        raise NotHermitian(f"||H - H^dagger||_F = {defect:.3e} > {hermitian_tol:.0e}")
    values, vectors = np.linalg.eigh(0.5 * (h + h.conj().T))
    order = np.argsort(values)[::-1]
    return values[order].real, _fix_gauge(vectors[:, order])


def eigh_2x2(h: np.ndarray):
    """Eigensystem of a 2x2 Hermitian matrix.

    Closed-form fast path for dimension 2; same ordering and gauge contract
    as :func:`eigh_fixed_gauge`.

    Returns (e1, e2, v1, v2) with e1 >= e2 and H v_k = e_k v_k.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape != (2, 2):
        raise DimensionMismatch(f"expected a 2x2 matrix, got {h.shape}")
    defect = hermitian_defect(h)
    if defect > 1e-10:
        raise NotHermitian(f"||H - H^dagger||_F = {defect:.3e} > 1e-10")
    p = h[0, 0].real
    q = h[1, 1].real
    b = 0.5 * (h[0, 1] + h[1, 0].conjugate())
    mean = 0.5 * (p + q)
    half_gap = 0.5 * (p - q)
    radius = math.hypot(half_gap, abs(b))
    e1 = mean + radius
    e2 = mean - radius
    if radius == 0.0 or abs(b) == 0.0:
        vectors = np.eye(2, dtype=complex)
        if p < q:
            vectors = vectors[:, ::-1]
    else:
        # Components of the e1 eigenvector written via radius +/- half_gap,
        # picking the branch free of cancellation; the e2 eigenvector is the
        # exact orthogonal complement.
        if half_gap >= 0.0:
            w1 = np.array([radius + half_gap, b.conjugate()], dtype=complex)
        else:
            w1 = np.array([b, radius - half_gap], dtype=complex)
        # hypot-based norm survives components whose squares underflow
        v1 = w1 / math.hypot(abs(w1[0]), abs(w1[1]))
        v2 = np.array([-v1[1].conjugate(), v1[0].conjugate()], dtype=complex)
        vectors = np.column_stack([v1, v2])
    vectors = _fix_gauge(vectors)
    return float(e1), float(e2), vectors[:, 0], vectors[:, 1]


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
