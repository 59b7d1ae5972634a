"""Definitional machinery for mixed-state geometric phases of unitary paths.

The operations here are oracle-grade and model-agnostic: a classical RK4
integrator for i dU/dt = H(t) U, each step composed into one step matrix and
applied to the reference basis, with periodic re-unitarization; running
dynamical phases by Simpson quadrature, the parallel-transported evolution,
and the diagonal and off-diagonal mixed-state phase functionals for any
N-level unitary evolution over a fixed orthonormal reference basis.

Time-dependent generators are supplied as callables mapping an array of
times to a stacked array of Hermitian matrices, shape times.shape + (N, N).
The kernel samples them one block of steps at a time, so its memory does not
grow with the number of steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateWeights, UnitarityLoss
from .linalg import polar_project, unitarity_defect

#: Steps between polar re-unitarizations of the running propagator.
PROJECTION_INTERVAL = 64
#: Unitarity drift at a projection checkpoint beyond which integration aborts.
DRIFT_LIMIT = 1e-6
#: RK4 is stable for i dU/dt = H U only while dt |H| <= 2 sqrt(2).
RK4_STABILITY = 2.0 * math.sqrt(2.0)
#: Minimum pairwise weight separation for shifted-companion construction.
WEIGHT_GAP = 1e-9


@dataclass(frozen=True)
class PropagatorTrace:
    """Sampled propagator of one unitary evolution.

    The endpoint form, which the phase computations need and the kernel
    returns by default, holds two rows: grid [0, T], U [I, U(T)] and delta
    [0, delta(T)].  The full form holds every step, M+1 rows.  The rows of
    both forms are bit-identical where they overlap.

    Attributes
    ----------
    grid : ndarray, shape (M+1,) or (2,)
        Strictly increasing sample times starting at 0.
    U : ndarray, shape (M+1, N, N) or (2, N, N)
        Propagator at each grid time; U[0] is the identity.
    delta : ndarray, shape (M+1, N) or (2, N)
        Running dynamical phase of each reference-basis state,
        delta_k(t) = -int_0^t <psi_k| U^dag H U |psi_k> dt'.
    basis : ndarray, shape (N, N)
        Orthonormal reference basis (columns) the phases refer to.
    refusal : UnitarityLoss or None
        Why the integrator refused this evolution; U and delta are then NaN.
    """

    grid: np.ndarray
    U: np.ndarray
    delta: np.ndarray
    basis: np.ndarray
    refusal: UnitarityLoss | None = None

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


def cumulative_simpson(y: np.ndarray, dx, initial=0.0) -> np.ndarray:
    """Cumulative Simpson integral of ``y`` along axis 0, spacing ``dx``.

    Each interval integrates the parabola through three neighbouring
    samples (scipy's equal-interval h1/h2 rule), and the interval integrals
    are summed in order onto ``initial``.  ``dx`` and ``initial`` broadcast
    against ``y[0]``, so batch members may have their own spacing.  Needs
    >= 3 samples.
    """
    y = np.asarray(y, dtype=float)
    third = dx / 3

    def first_interval(f1, f2, f3):
        # [x1, x2] under the parabola through x1, x2, x3; reversed, [x2, x3].
        return third * (5 * f1 / 4 + 2 * f2 - f3 / 4)

    out = np.empty(y.shape)
    out[0] = initial
    sub = out[1:]
    sub[:-1:2] = first_interval(y[:-2:2], y[1:-1:2], y[2::2])
    sub[1::2] = first_interval(y[2::2], y[1:-1:2], y[:-2:2])
    sub[-1] = first_interval(y[-1], y[-2], y[-3])
    return np.cumsum(out, axis=0, out=out)


def integrate_propagator(
    h_of_t: Callable[[np.ndarray], np.ndarray],
    t_final: float,
    steps: int,
    basis: np.ndarray | None = None,
) -> PropagatorTrace:
    """Integrate i dU/dt = H(t) U from the identity over [0, t_final], t_final > 0.

    A batch of one through :func:`integrate_sampled_family`, returned on the
    full grid: ``h_of_t`` maps a 1-D time array to stacked Hermitian
    generators (len(times), N, N), sampled on the half-step grid of
    ``steps`` >= 2 RK4 steps; ``basis`` (columns) defaults to the
    computational basis.
    """
    bases = None if basis is None else [basis]
    (trace,) = integrate_sampled_family(
        lambda times: h_of_t(times[0])[np.newaxis], [t_final], steps, bases, full_grid=True
    )
    if trace.refusal is not None:
        raise trace.refusal
    return trace


def integrate_sampled_family(
    h_of_t: Callable[[np.ndarray], np.ndarray],
    t_final,
    steps: int,
    bases: np.ndarray | None = None,
    *,
    full_grid: bool = False,
) -> list[PropagatorTrace]:
    """Integrate i dU/dt = H(t) U from the identity for a family of evolutions.

    ``h_of_t`` maps sample times of shape (B, T), one row per member, to
    Hermitian generators of shape (B, T, N, N).  ``t_final`` holds the B
    final times, each member takes ``steps`` steps of t_final / steps, and
    ``bases`` holds optional orthonormal reference bases (columns) of shape
    (B, N, N), defaulting to the computational basis.

    Classical fixed-step RK4 in blocks of 64 steps, with polar
    re-unitarization at the end of each full block.  H is sampled once per
    block on the block's half-step grid, and each step is composed into one
    matrix: with A = -i dt H at the step's start, middle and end, S = I +
    (A0 + 2 (K2 + K3) + K4) / 6 for K2 = Am (I + A0/2), K3 = Am (I + K2/2)
    and K4 = A1 (I + K3).  The kernel steps V = U B from V(0) = B, the
    reference basis, so V's columns give the dynamical-phase integrand and
    U = V B^dag is formed only for the returned rows.  The integrand is
    summed per block by Simpson's rule; each block's quadrature reaches back
    one panel, so the sum equals one cumulative Simpson pass over the whole
    grid.  Only V and the running phases cross a block edge, so memory does
    not grow with ``steps``.  The traces are in endpoint form unless
    ``full_grid`` asks for every step.  No operation mixes members, so a
    member's result does not depend on the batch it is integrated in.

    A member whose dt |H| exceeds RK4's stability bound 2 sqrt(2), or whose
    drift at a re-unitarization checkpoint exceeds 1e-6, is refused: its
    trace has NaN rows and a :class:`UnitarityLoss` as ``refusal``, for the
    bound naming the least step count it allows.  It then steps by the
    identity from its basis, so the other members' results do not change.

    Raises
    ------
    ValueError
        If there are fewer than 2 steps, a final time is not positive and
        finite or a generator sample is not finite.
    """
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    t_final = np.asarray(t_final, dtype=float)
    if not np.all(np.isfinite(t_final) & (t_final > 0.0)):
        raise ValueError("t_final must be positive and finite")
    dt = t_final / steps
    b = dt.shape[0]
    refusals: list[UnitarityLoss | None] = [None] * b
    refused = np.zeros(b, dtype=bool)

    def refuse(mask, message):
        for j in np.flatnonzero(mask & ~refused):
            refusals[j] = UnitarityLoss(message(j))
        refused[mask] = True
    # Fold -i into the step so the stage updates stay plain contractions.
    step = -1j * dt
    half = 0.5 * step

    u_rows, delta_rows = [], []
    # Simpson carry: the two integrand rows before the block and the phase
    # at the first of them, so an odd final block can use the end rule.
    lead = lead_delta = 0.0
    # Integration runs in (N, N, time, B) blocks: each matrix element is a
    # contiguous row over the batch, so one contraction advances every member.
    # A diverging run overflows; the checkpoint drift test reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, steps, PROJECTION_INTERVAL):
            stop = min(start + PROJECTION_INTERVAL, steps)
            times = 0.5 * dt[:, np.newaxis] * np.arange(2 * start, 2 * stop + 1)
            h = np.ascontiguousarray(np.asarray(h_of_t(times), dtype=complex).transpose(2, 3, 1, 0))
            ratio = _step_ratio(h, dt)
            refuse(ratio > RK4_STABILITY, lambda j: _stability_message(ratio[j], steps))
            if start == 0:  # the first samples give the dimension
                n = h.shape[0]
                if bases is None:
                    bases = np.broadcast_to(np.eye(n, dtype=complex), (b, n, n))
                bases = np.asarray(bases, dtype=complex)
                adjoint_last = bases.conj().transpose(2, 1, 0)
                v = v0 = bases.transpose(1, 2, 0)
                u_rows.append(np.broadcast_to(np.eye(n, dtype=complex)[..., None, None], (n, n, 1, b)))
                delta_rows.append(np.zeros((1, n, b)))
            # The block's step matrices S = I + (A0 + 2 (K2 + K3) + K4) / 6, summed in
            # place: block-sized temporaries set the peak memory of a wide chunk.
            a = step * h[:, :, 1::2]
            k = a + _contract(a, half * h[:, :, :-1:2])  # K2
            s = step * h[:, :, :-1:2] + 2.0 * k
            k = a + _contract(a, 0.5 * k)  # K3
            s += 2.0 * k
            a = step * h[:, :, 2::2]
            s += a + _contract(a, k)  # K4
            del a, k
            s /= 6.0
            s[range(n), range(n)] += 1.0
            s[..., refused] = np.eye(n)[..., np.newaxis, np.newaxis]
            block = np.empty((n, n, stop - start + 1, b), dtype=complex)
            block[:, :, 0] = v
            for i, s_i in enumerate(s.transpose(2, 0, 1, 3), 1):
                v = _contract(s_i, v)
                block[:, :, i] = v
            del s
            v_end = block[:, :, -1].transpose(2, 0, 1)
            drift = unitarity_defect(v_end)
            drifted = ~(drift <= DRIFT_LIMIT)  # NaN from a diverged run fails too
            refuse(drifted, lambda j: f"unitarity drift {drift[j]:.3e} > {DRIFT_LIMIT:.0e}")
            block[:, :, -1, refused] = v0[..., refused]  # a refused member restarts from its basis
            if stop % PROJECTION_INTERVAL == 0:
                block[:, :, -1] = polar_project(v_end).transpose(1, 2, 0)
            v = block[:, :, -1]
            # -<psi_k| U^dag H U |psi_k> = -Re sum_i conj(V_ik) (H V)_ik
            hv = _contract(h[:, :, ::2], block)
            integrand = -np.real(np.einsum("ik...,ik...->k...", block.conj(), hv)).transpose(1, 0, 2)
            if start:
                integrand = np.concatenate([lead, integrand])
            delta = cumulative_simpson(integrand, dt, lead_delta)
            lead, lead_delta = integrand[-3:-1], delta[-3]
            if full_grid:
                u_rows.append(_contract(block[:, :, 1:], adjoint_last[:, :, np.newaxis]))
                delta_rows.append(delta[-(stop - start) :])
    if not full_grid:
        u_rows.append(_contract(v, adjoint_last)[:, :, np.newaxis])
        delta_rows.append(delta[-1:])
    index = np.arange(steps + 1) if full_grid else np.array([0, steps])
    u_all = np.ascontiguousarray(np.concatenate(u_rows, axis=2).transpose(3, 2, 0, 1))
    delta_all = np.ascontiguousarray(np.moveaxis(np.concatenate(delta_rows), -1, 0))
    u_all[refused] = delta_all[refused] = np.nan
    return [
        PropagatorTrace(
            grid=dt[j] * index, U=u_all[j], delta=delta_all[j], basis=bases[j], refusal=refusals[j]
        )
        for j in range(b)
    ]


def _step_ratio(h: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """dt |H|_F / sqrt(N) of each member over one block of samples.

    ``h`` is one block of samples, (N, N, time, B), contiguous.  |H|_F /
    sqrt(N) is a lower bound on the spectral norm, so a step whose ratio is
    past RK4's stability bound would have diverged.  Raises ValueError if a
    sample is not finite.
    """
    n = h.shape[0]
    parts = h.view(float)  # real and imaginary parts alternate along the batch axis
    square = np.einsum("ijtb,ijtb->tb", parts, parts)
    frobenius = np.sqrt(square[:, ::2] + square[:, 1::2]).max(axis=0)
    if not np.all(np.isfinite(frobenius)):  # the squares overflowed, or H is not finite
        frobenius = np.hypot.reduce(np.abs(h).reshape(n * n, *h.shape[2:]), axis=0).max(axis=0)
    ratio = dt * frobenius / math.sqrt(n)
    if np.isnan(ratio).any():
        raise ValueError("generator samples must be finite")
    return ratio


def _stability_message(ratio: float, steps: int) -> str:
    needed = min(steps * ratio / RK4_STABILITY, np.finfo(float).max)
    count = f"{math.ceil(needed)}" if needed < 1e15 else f"{needed:.3g}"
    return (
        f"dt*|H| = {ratio:.3g} exceeds the RK4 stability bound {RK4_STABILITY:.3g}; "
        f"needs at least {count} steps"
    )


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
    """Max interior residual |<psi_k| U^dag dU/dt |psi_k>| of a transported full-grid trace.

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
