"""Definitional machinery for mixed-state geometric phases of unitary paths.

The operations here are oracle-grade and model-agnostic: a classical RK4
integrator for i dU/dt = H(t) U with periodic re-unitarization, running
dynamical phases by Simpson quadrature, the parallel-transported evolution,
and the diagonal and off-diagonal mixed-state phase functionals for any
N-level unitary evolution over a fixed orthonormal reference basis.

Time-dependent generators are supplied as callables mapping a 1-D array of
times to a stacked array of Hermitian matrices, shape (len(times), N, N).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateWeights, UnitarityLoss
from .linalg import PhaseFactor, phase_functional, polar_project, unitarity_defect

#: Steps between polar re-unitarizations of the running propagator.
PROJECTION_INTERVAL = 64
#: Unitarity drift at a projection checkpoint beyond which integration aborts.
DRIFT_LIMIT = 1e-6
#: Minimum pairwise weight separation for shifted-companion construction.
WEIGHT_GAP = 1e-9


@dataclass(frozen=True)
class PropagatorTrace:
    """Sampled propagator of one unitary evolution.

    Attributes
    ----------
    grid : ndarray, shape (M+1,)
        Strictly increasing sample times starting at 0.
    U : ndarray, shape (M+1, N, N)
        Propagator at each grid time; U[0] is the identity.
    delta : ndarray, shape (M+1, N)
        Running dynamical phase of each reference-basis state,
        delta_k(t) = -int_0^t <psi_k| U^dag H U |psi_k> dt'.
    basis : ndarray, shape (N, N)
        Orthonormal reference basis (columns) the phases refer to.
    """

    grid: np.ndarray
    U: np.ndarray
    delta: np.ndarray
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.U.shape[-1]

    @property
    def t_final(self) -> float:
        return float(self.grid[-1])


@dataclass(frozen=True)
class Ensemble:
    """Ordered orthonormal basis with a normalized weight list."""

    basis: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=complex)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "weights", weights)
        n = basis.shape[0]
        if basis.shape != (n, n) or weights.shape != (n,):
            raise ValueError("basis must be square with one weight per column")
        gram = basis.conj().T @ basis
        if np.linalg.norm(gram - np.eye(n)) > 1e-10:
            raise ValueError("ensemble basis is not orthonormal")
        # An exactly empty level is the zero-temperature limit, not an error.
        if np.any(weights < 0.0):
            raise ValueError("ensemble weights must be non-negative")
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise ValueError("ensemble weights must sum to 1")

    @property
    def dim(self) -> int:
        return int(self.weights.shape[0])


def _contract(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over the two leading axes of stacks shaped (N, N, ...)."""
    return np.einsum("ij...,jk...->ik...", a, b)


def cumulative_simpson(y: np.ndarray, dx) -> np.ndarray:
    """Cumulative Simpson integral of ``y`` along axis 0 from 0, spacing ``dx``.

    Each interval integrates the parabola through three neighbouring
    samples (scipy's equal-interval h1/h2 rule).  ``dx`` broadcasts against
    ``y[0]``, so batch members may have their own spacing.  Needs >= 3 samples.
    """
    y = np.asarray(y, dtype=float)

    def first_interval(f1, f2, f3):
        # [x1, x2] under the parabola through x1, x2, x3; reversed, [x2, x3].
        return dx / 3 * (5 * f1 / 4 + 2 * f2 - f3 / 4)

    sub = np.empty((y.shape[0] - 1,) + y.shape[1:])
    sub[:-1:2] = first_interval(y[:-2:2], y[1:-1:2], y[2::2])
    sub[1::2] = first_interval(y[2::2], y[1:-1:2], y[:-2:2])
    sub[-1] = first_interval(y[-1], y[-2], y[-3])
    return np.concatenate([np.zeros_like(y[:1]), np.cumsum(sub, axis=0)])


def integrate_propagator(
    h_of_t: Callable[[np.ndarray], np.ndarray],
    t_final: float,
    steps: int,
    basis: np.ndarray | None = None,
) -> PropagatorTrace:
    """Integrate i dU/dt = H(t) U from the identity over [0, t_final], t_final > 0.

    A batch of one through :func:`integrate_sampled_family`: ``h_of_t``
    maps a 1-D time array to stacked Hermitian generators (len(times), N, N),
    sampled on the half-step grid of ``steps`` >= 2 RK4 steps; ``basis``
    (columns) defaults to the computational basis.
    """
    if not t_final > 0.0:
        raise ValueError(f"t_final must be positive, got {t_final}")
    # steps < 2 leaves fewer than five samples, which the kernel rejects.
    with np.errstate(divide="ignore", invalid="ignore"):
        dt = np.array([t_final], dtype=float) / steps
        times = 0.5 * dt * np.arange(2 * steps + 1)
    bases = None if basis is None else [basis]
    return integrate_sampled_family([h_of_t(times)], dt, bases)[0]


def integrate_sampled_family(
    h_samples: np.ndarray,
    dt: np.ndarray,
    bases: np.ndarray | None = None,
) -> list[PropagatorTrace]:
    """Integrate i dU/dt = H(t) U from the identity for a family of evolutions.

    ``h_samples`` has shape (B, 2*steps+1, N, N) on each member's half-step
    grid t_0, t_0 + dt/2, t_1, ...; ``dt`` holds the per-member step sizes
    and ``bases`` optional orthonormal reference bases (columns) of shape
    (B, N, N), defaulting to the computational basis.

    Classical fixed-step RK4 with polar re-unitarization every 64 steps;
    running dynamical phases by cumulative Simpson quadrature on the same
    grid.  No operation mixes members, so a member's result does not
    depend on the batch it is integrated in.

    Raises
    ------
    ValueError
        If there are fewer than 2 steps.
    UnitarityLoss
        If the drift found at a re-unitarization checkpoint exceeds 1e-6.
    """
    h_samples = np.asarray(h_samples, dtype=complex)
    dt = np.asarray(dt, dtype=float)
    b, m2, n, _ = h_samples.shape
    steps = (m2 - 1) // 2
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {m2} half-step samples")
    if bases is None:
        bases = np.broadcast_to(np.eye(n, dtype=complex), (b, n, n))
    bases = np.asarray(bases, dtype=complex)
    # Integration runs in (N, N, time, B) blocks: each matrix element is a
    # contiguous row over the batch, so one contraction advances every member.
    basis_last = bases.transpose(1, 2, 0)[:, :, np.newaxis]
    # Fold -i into the step so the stage updates stay plain contractions.
    step = -1j * dt
    half = 0.5 * step
    sixth = step / 6.0

    u_grid = np.empty((b, steps + 1, n, n), dtype=complex)
    u_grid[:, 0] = np.eye(n)
    integrand = np.empty((steps + 1, n, b))
    u = np.broadcast_to(np.eye(n, dtype=complex)[..., np.newaxis], (n, n, b))
    # A diverging run overflows; the checkpoint drift test reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, steps, PROJECTION_INTERVAL):
            stop = min(start + PROJECTION_INTERVAL, steps)
            h = np.ascontiguousarray(h_samples[:, 2 * start : 2 * stop + 1].transpose(2, 3, 1, 0))
            block = np.empty((n, n, stop - start + 1, b), dtype=complex)
            block[:, :, 0] = u
            for i in range(stop - start):
                hm = h[:, :, 2 * i + 1]
                k1 = _contract(h[:, :, 2 * i], u)
                k2 = _contract(hm, u + half * k1)
                k3 = _contract(hm, u + half * k2)
                k4 = _contract(h[:, :, 2 * i + 2], u + step * k3)
                u = u + sixth * (k1 + 2.0 * (k2 + k3) + k4)
                block[:, :, i + 1] = u
            u_end = block[:, :, -1].transpose(2, 0, 1)
            drift = unitarity_defect(u_end)
            if not drift <= DRIFT_LIMIT:  # NaN from a diverged run fails too
                raise UnitarityLoss(f"unitarity drift {drift:.3e} > {DRIFT_LIMIT:.0e}")
            if stop % PROJECTION_INTERVAL == 0:
                block[:, :, -1] = polar_project(u_end).transpose(1, 2, 0)
            u = block[:, :, -1]
            # -<psi_k| U^dag H U |psi_k> = -Re sum_i conj((U B)_ik) (H U B)_ik
            ub = _contract(block, basis_last)
            hub = _contract(h[:, :, ::2], ub)
            block_integrand = -np.real(np.einsum("ik...,ik...->k...", ub.conj(), hub))
            integrand[start : stop + 1] = block_integrand.transpose(1, 0, 2)
            u_grid[:, start + 1 : stop + 1] = block[:, :, 1:].transpose(3, 2, 0, 1)

    delta = np.ascontiguousarray(np.moveaxis(cumulative_simpson(integrand, dt), -1, 0))
    return [
        PropagatorTrace(
            grid=dt[j] * np.arange(steps + 1), U=u_grid[j], delta=delta[j], basis=bases[j]
        )
        for j in range(b)
    ]


def dynamical_phase(
    trace: PropagatorTrace,
    h_of_t: Callable[[np.ndarray], np.ndarray],
    k: int,
) -> float:
    """Dynamical phase delta_k(T) = -int_0^T <psi_k|U^dag H U|psi_k> dt.

    Simpson quadrature of the integrand re-sampled from ``h_of_t`` on the
    trace grid, independent of the trace's running phases.  The integrand
    is real because U^dag dU/dt = -i U^dag H U with Hermitian H.
    """
    if not 0 <= k < trace.dim:
        raise IndexError(f"basis index {k} out of range for dimension {trace.dim}")
    h_grid = np.asarray(h_of_t(trace.grid), dtype=complex)
    ub = trace.U @ trace.basis
    integrand = -np.real(np.einsum("mik,mik->mk", ub.conj(), h_grid @ ub))
    dt = float(trace.grid[1] - trace.grid[0])
    return float(cumulative_simpson(integrand[:, k], dt)[-1])


def transported_propagator(u: np.ndarray, delta: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Parallel-transported propagator U_par = U B diag(e^{-i delta}) B^dag.

    ``u`` (..., N, N), ``delta`` (..., N) and ``basis`` (..., N, N)
    broadcast over leading axes: pass the final time of one trace, a whole
    grid, or the final times of a batch.
    """
    phases = np.exp(-1j * np.asarray(delta))[..., np.newaxis, :]
    basis = np.asarray(basis)
    return u @ ((basis * phases) @ np.conj(np.swapaxes(basis, -1, -2)))


def parallel_transported(trace: PropagatorTrace) -> PropagatorTrace:
    """Parallel-transported evolution U_par = U sum_k e^{-i delta_k} P_k.

    The returned trace carries zero running phases: along U_par no dynamical
    phase accrues in any reference-basis direction.
    """
    return PropagatorTrace(
        grid=trace.grid,
        U=transported_propagator(trace.U, trace.delta, trace.basis),
        delta=np.zeros_like(trace.delta),
        basis=trace.basis,
    )


def parallel_transport_residual(trace: PropagatorTrace) -> float:
    """Max interior residual |<psi_k| U^dag dU/dt |psi_k>| of a transported trace.

    The derivative uses the five-point (fourth-order) central stencil; the
    three-point stencil's h^2 truncation would dominate the residual at the
    step counts this check runs at.
    """
    u = trace.U
    dt = float(trace.grid[1] - trace.grid[0])
    du = (-u[4:] + 8.0 * u[3:-1] - 8.0 * u[1:-3] + u[:-4]) / (12.0 * dt)
    inner = np.einsum("mji,mjk->mik", u[2:-2].conj(), du)
    per_state = np.einsum("ja,mjk,ka->ma", trace.basis.conj(), inner, trace.basis)
    return float(np.max(np.abs(per_state)))


def _require_shared_basis(trace: PropagatorTrace, ensembles: Sequence[Ensemble]):
    for e in ensembles:
        if np.linalg.norm(e.basis - trace.basis) > 1e-10:
            raise ValueError("ensemble basis differs from the trace reference basis")


def diagonal_amplitude(
    u_final: np.ndarray, delta_final: np.ndarray, basis: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """sum_k lambda_k <psi_k|U(T)|psi_k> e^{-i delta_k(T)} over the columns of ``basis``.

    ``u_final`` (..., N, N), ``delta_final`` (..., N), ``basis`` (..., N, N)
    and ``weights`` (..., N) broadcast over leading batch axes.
    """
    elements = np.einsum("...ja,...jk,...ka->...a", np.conj(basis), u_final, basis)
    return np.sum(weights * elements * np.exp(-1j * delta_final), axis=-1)


def diagonal_phase_argument(trace: PropagatorTrace, ensemble: Ensemble) -> complex:
    """Raw interference amplitude sum_k lambda_k <psi_k|U(T)|psi_k> e^{-i delta_k}."""
    _require_shared_basis(trace, [ensemble])
    u, delta = trace.U[-1], trace.delta[-1]
    return complex(diagonal_amplitude(u, delta, ensemble.basis, ensemble.weights))


def diagonal_mixed_phase(trace: PropagatorTrace, ensemble: Ensemble) -> PhaseFactor:
    """Mixed-state geometric phase of the surviving-basis interference sum.

    gamma = Phi[sum_k lambda_k <psi_k|U(T)|psi_k> e^{-i delta_k(T)}]; the raw
    argument is retained on the returned factor for sensitivity analysis.

    Raises
    ------
    UndefinedPhase
        If the interference amplitude (the visibility) vanishes.
    """
    return phase_functional(diagonal_phase_argument(trace, ensemble))


def shift_operator(basis: np.ndarray) -> np.ndarray:
    """Cyclic shift W = sum_k |psi_{k+1 mod N}><psi_k| over the given basis."""
    basis = np.asarray(basis, dtype=complex)
    # column k of the rolled matrix is |psi_{k+1 mod N}>
    return np.roll(basis, -1, axis=1) @ basis.conj().T


def shift_ensembles(ensemble: Ensemble, *, require_distinct: bool = True) -> list[Ensemble]:
    """The N mutually non-interfering companions rho_n = W^{n-1} rho (W^dag)^{n-1}.

    Conjugation by the cyclic shift permutes the weights against the fixed
    basis: companion n carries weights rolled by n-1 positions.

    Raises
    ------
    DegenerateWeights
        If any two weights are closer than 1e-9 (with ``require_distinct``).
        The companion construction presumes a non-degenerate spectrum; the
        equal-weight limit remains evaluable by building ensembles directly.
    """
    w = ensemble.weights
    if require_distinct:
        gaps = np.abs(w[:, np.newaxis] - w[np.newaxis, :])
        off_diag = gaps[~np.eye(len(w), dtype=bool)]
        if off_diag.size and float(off_diag.min()) <= WEIGHT_GAP:
            raise DegenerateWeights(
                f"minimum weight gap {float(off_diag.min()):.3e} <= {WEIGHT_GAP:.0e}"
            )
    return [
        Ensemble(basis=ensemble.basis, weights=np.roll(w, n))
        for n in range(ensemble.dim)
    ]


def cyclic_trace(u_par: np.ndarray, bases: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Tr prod_a U_par rho_a^{1/l} with rho_a^{1/l} = sum_k w_ak^{1/l} |psi_ak><psi_ak|.

    ``bases`` (..., l, N, N) and ``weights`` (..., l, N) list the l
    ensembles in product order; ``u_par`` is (..., N, N).  Leading batch
    axes broadcast.
    """
    l = weights.shape[-2]
    adjoints = np.conj(np.swapaxes(bases, -1, -2))
    roots = (bases * weights[..., np.newaxis, :] ** (1.0 / l)) @ adjoints
    product = u_par @ roots[..., 0, :, :]
    for a in range(1, l):
        product = product @ u_par @ roots[..., a, :, :]
    return np.trace(product, axis1=-2, axis2=-1)


def offdiagonal_trace(
    trace: PropagatorTrace,
    ensembles: Sequence[Ensemble],
    l: int | None = None,
) -> complex:
    """Raw cyclic-product trace Tr prod_a U_par(T) rho_a^{1/l}.

    ``ensembles`` lists the l density operators entering the product, all
    sharing the trace's reference basis; rho^{1/l} is formed state-wise as
    sum_k lambda_k^{1/l} |psi_k><psi_k|.
    """
    if l is None:
        l = len(ensembles)
    if l != len(ensembles):
        raise ValueError(f"l = {l} does not match {len(ensembles)} ensembles")
    if l < 1:
        raise ValueError("need at least one ensemble")
    _require_shared_basis(trace, ensembles)
    u_par = transported_propagator(trace.U[-1], trace.delta[-1], trace.basis)
    bases = np.stack([e.basis for e in ensembles])
    weights = np.stack([e.weights for e in ensembles])
    return complex(cyclic_trace(u_par, bases, weights))


def offdiagonal_mixed_phase(
    trace: PropagatorTrace,
    ensembles: Sequence[Ensemble],
    l: int | None = None,
) -> PhaseFactor:
    """Off-diagonal mixed-state phase gamma^(l) = Phi[Tr prod_a U_par(T) rho_a^{1/l}].

    Raises
    ------
    UndefinedPhase
        If the trace of the product vanishes.
    """
    return phase_functional(offdiagonal_trace(trace, ensembles, l))


def offdiag_trace_expansion(
    trace: PropagatorTrace,
    ensembles: Sequence[Ensemble],
    l: int | None = None,
) -> complex:
    """Scalar expansion of the off-diagonal trace over matrix elements.

    Independent cross-check route for :func:`offdiagonal_mixed_phase`: the
    trace of the cyclic product written out as nested sums of propagator
    matrix elements and weight roots in the shared basis.
    """
    if l is None:
        l = len(ensembles)
    if l != len(ensembles):
        raise ValueError(f"l = {l} does not match {len(ensembles)} ensembles")
    _require_shared_basis(trace, ensembles)
    b = trace.basis
    n = trace.dim
    m_par = b.conj().T @ transported_propagator(trace.U[-1], trace.delta[-1], b) @ b
    roots = [e.weights ** (1.0 / l) for e in ensembles]
    total = 0.0 + 0.0j
    for path in itertools.product(range(n), repeat=l):
        term = 1.0 + 0.0j
        for a in range(l):
            nxt = path[(a + 1) % l]
            term *= m_par[path[a], nxt] * roots[a][nxt]
        total += term
    return complex(total)
