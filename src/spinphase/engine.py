"""Definitional machinery for mixed-state geometric phases of unitary paths.

The operations here are oracle-grade and model-agnostic: a classical RK4
integrator for i dU/dt = H(t) U, each step composed into one step matrix,
with periodic re-unitarization; dynamical phases by Simpson quadrature, the
parallel-transported evolution, and the diagonal and off-diagonal
mixed-state phase functionals for any N-level unitary evolution over a
fixed orthonormal reference basis.

A trajectory is integrated as time segments of about 512 steps, side by
side: every (member, segment) pair is one member of the blocked kernel,
started from the identity, and accumulates its propagator U_s and the
operator integral W_s = int U_s^dag H U_s dt.  The endpoints compose in time
order, U(T) = U_P ... U_1, and the dynamical phases follow from the W_s and
the composed propagators, so a single long trajectory runs as a wide batch.
Segments run in waves that keep the kernel at most max(B, 64) members wide.

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

from .errors import UnitarityLoss
from .linalg import polar_project, unitarity_defect

#: Steps between polar re-unitarizations of the running propagator.
PROJECTION_INTERVAL = 64
#: Unitarity drift at a projection checkpoint beyond which integration aborts.
DRIFT_LIMIT = 1e-6
#: RK4 is stable for i dU/dt = H U only while dt |H| <= 2 sqrt(2).
RK4_STABILITY = 2.0 * math.sqrt(2.0)
#: Steps per time segment: a longer trajectory is cut into segments that are
#: integrated side by side, as members of one batch, and then composed.
SEGMENT_STEPS = 512
#: Kernel width a wave of segments fills; a wave holds at least one segment.
WAVE_MEMBERS = 64


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
    """Cumulative Simpson integral of real or complex ``y`` along axis 0, spacing ``dx``.

    Each interval integrates the parabola through three neighbouring
    samples (scipy's equal-interval h1/h2 rule), and the interval integrals
    are summed in order onto ``initial``.  ``dx`` and ``initial`` broadcast
    against ``y[0]``, so batch members may have their own spacing.  Needs
    >= 3 samples.
    """
    y = np.asarray(y)
    y = y.astype(np.result_type(y, float), copy=False)
    third = dx / 3

    def first_interval(f1, f2, f3):
        # [x1, x2] under the parabola through x1, x2, x3; reversed, [x2, x3].
        return third * (5 * f1 / 4 + 2 * f2 - f3 / 4)

    out = np.empty(y.shape, dtype=y.dtype)
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

    Each member's [0, T] is cut into ceil(steps / 512) time segments whose
    lengths depend on ``steps`` alone (:func:`_segment_lengths`).  Every
    (member, segment) pair is integrated from the identity as one member of
    the blocked RK4 kernel (:func:`_integrate_segments`), which yields the
    segment propagator U_s and the operator integral W_s = int U_s^dag H U_s
    dt.  The segments run in time order, in waves of at most max(1, 64 // B)
    segments, so the kernel is never wider than max(B, 64) members.  After
    each wave the segment endpoints are composed in time order: with X_0 =
    B, the reference basis, X_{s+1} = U_s X_s and delta_k(t_{s+1}) =
    delta_k(t_s) - Re <b_k| X_s^dag W_s X_s |b_k>; finally U(T) = X_P B^dag.
    The segments of even length pair their Simpson panels as one composite
    rule over the whole grid would.  Memory does not grow with ``steps``.
    The traces are in endpoint form unless ``full_grid`` asks for every
    step; the rows inside segment s are then U_s(t) X_s B^dag and
    delta(t_s) - diag(X_s^dag W_s(t) X_s) with W_s(t) summed cumulatively,
    and each segment's last row is the composed endpoint itself.  No
    operation mixes members, and the segment layout does not depend on the
    batch, so a member's result does not depend on the batch it is
    integrated in.

    A member is refused if any of its segments is.  A segment is refused if
    its dt |H| exceeds RK4's stability bound 2 sqrt(2), or its drift at a
    re-unitarization checkpoint exceeds 1e-6; it then steps by the identity,
    so the other members' results do not change.  A refused member's trace
    has NaN rows and a :class:`UnitarityLoss` as ``refusal``: for the bound,
    naming the least step count that the member's largest ratio allows; for
    drift, its first failed checkpoint in time order.

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
    lengths = _segment_lengths(steps)
    origins = 2 * np.cumsum([0] + lengths[:-1])  # each segment's first half-step index
    ratio = np.zeros(b)  # each member's largest step ratio over all its segments
    drift = np.zeros(b)  # the drift at each member's first failed checkpoint, 0 if none
    u_rows, delta_rows = [], []
    # A diverging run overflows; the checkpoint drift test reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for first, count in _waves(lengths, max(1, WAVE_MEMBERS // b)):
            u_end, w_end, wave_ratio, wave_drift, rows = _integrate_segments(
                h_of_t, dt, origins[first : first + count], lengths[first], full_grid
            )
            if first == 0:  # the first samples give the dimension
                n = u_end.shape[0]
                upper = np.triu_indices(n)
                if bases is None:
                    bases = np.broadcast_to(np.eye(n, dtype=complex), (b, n, n))
                bases = np.asarray(bases, dtype=complex)
                adjoint = bases.conj().transpose(2, 1, 0)
                x = bases.transpose(1, 2, 0)
                phase = np.zeros((n, b))
                u_rows.append(np.broadcast_to(np.eye(n, dtype=complex)[..., None, None], (n, n, 1, b)))
                delta_rows.append(phase[:, np.newaxis])
            np.maximum(ratio, wave_ratio.reshape(count, b).max(axis=0), out=ratio)
            for p in range(count):
                members = slice(p * b, (p + 1) * b)
                drift = np.where(drift != 0.0, drift, wave_drift[members])
                x_next = _contract(u_end[..., members], x)
                phase_next = phase - _phase_drop(w_end[:, members], x, upper)
                if full_grid:
                    u_inner, w_inner = rows[0][:, :, :-1, members], rows[1][:, :-1, members]
                    u_rows += [_contract(_contract(u_inner, x[:, :, None]), adjoint[:, :, None]),
                               _contract(x_next, adjoint)[:, :, None]]
                    drop = _phase_drop(w_inner, x[:, :, None], upper)
                    delta_rows += [phase[:, None] - drop, phase_next[:, None]]
                x, phase = x_next, phase_next
    if not full_grid:
        u_rows.append(_contract(x, adjoint)[:, :, np.newaxis])
        delta_rows.append(phase[:, np.newaxis])
    index = np.arange(steps + 1) if full_grid else np.array([0, steps])
    u_all = np.ascontiguousarray(np.concatenate(u_rows, axis=2).transpose(3, 2, 0, 1))
    delta_all = np.ascontiguousarray(np.concatenate(delta_rows, axis=1).transpose(2, 1, 0))
    unstable = ratio > RK4_STABILITY
    drifted = drift != 0.0  # NaN, from a run that overflowed, counts too
    refused = unstable | drifted
    u_all[refused] = delta_all[refused] = np.nan
    refusals = [
        _stability_refusal(ratio[j], steps) if unstable[j]
        else UnitarityLoss(f"unitarity drift {drift[j]:.3e} > {DRIFT_LIMIT:.0e}") if drifted[j]
        else None
        for j in range(b)
    ]
    return [
        PropagatorTrace(
            grid=dt[j] * index, U=u_all[j], delta=delta_all[j], basis=bases[j], refusal=refusals[j]
        )
        for j in range(b)
    ]


def _segment_lengths(steps: int) -> list[int]:
    """Step counts of the ceil(steps / 512) time segments of a trajectory, in time order.

    The lengths are near-equal and even, so each segment's Simpson panels
    pair as the composite rule over the whole grid pairs them; only the last
    segment takes an odd step.  Every segment has at least 2 steps, and at
    least 256 when there are two or more.
    """
    count = -(-steps // SEGMENT_STEPS)
    even = 2 * (steps // (2 * count))
    extra = steps - count * even  # fewer than 2 * count
    longer = extra // 2
    return [even + 2] * longer + [even] * (count - 1 - longer) + [even + extra % 2]


def _waves(lengths: list[int], width: int):
    """(first, count) of each wave: at most ``width`` consecutive segments of one length."""
    first = 0
    while first < len(lengths):
        count = 1
        while (
            count < width and first + count < len(lengths)
            and lengths[first + count] == lengths[first]
        ):
            count += 1
        yield first, count
        first += count


def _simpson_weights(steps: int) -> np.ndarray:
    """Coefficients c with Simpson's integral over ``steps`` panels = dt / 3 sum_t c_t f_t.

    Composite Simpson over the leading even number of panels; an odd last
    panel takes the end rule of :func:`cumulative_simpson`.
    """
    even = steps - steps % 2
    c = np.zeros(steps + 1)
    c[1:even:2] = 4.0
    c[2:even:2] = 2.0
    c[0] = c[even] = 1.0
    if steps % 2:
        c[even - 1 : even + 2] += (-0.25, 2.0, 1.25)
    return c


def _phase_drop(w: np.ndarray, x: np.ndarray, upper) -> np.ndarray:
    """Re <e_k| X^dag W X |e_k> for every column k of X.

    ``w`` holds the upper triangle of the Hermitian W, (pairs, ...), in the
    order of ``upper``, and ``x`` is (N, N, ...); trailing axes broadcast.
    """
    drop = 0.0
    for p, (i, j) in enumerate(zip(*upper)):
        term = np.real(np.conj(x[i]) * w[p] * x[j])
        drop = drop + (term if i == j else 2.0 * term)
    return drop


def _integrate_segments(
    h_of_t: Callable[[np.ndarray], np.ndarray],
    dt: np.ndarray,
    origins: np.ndarray,
    length: int,
    full_grid: bool,
):
    """Integrate ``length``-step segments of every member from the identity, side by side.

    Kernel member p B + j is segment p of member j of ``dt``; ``origins``
    holds each segment's first sample time as an index of the half-step
    grid, so H is sampled at 0.5 dt (origin + k).  ``h_of_t`` gets one row
    of times per member, ordered (time, segment): a sampler that stores
    (N, N, T P, B) is then read as (N, N, T, P B) without a copy.

    Classical fixed-step RK4 in blocks of 64 steps, with polar
    re-unitarization at the end of each full block.  H is sampled once per
    block on the block's half-step grid, and each step is composed into one
    matrix: with A = -i dt H at the step's start, middle and end, S = I +
    (A0 + 2 (K2 + K3) + K4) / 6 for K2 = Am (I + A0/2), K3 = Am (I + K2/2)
    and K4 = A1 (I + K3).  Each block adds its Simpson-weighted sum of
    U^dag H U to W; a sample on a block edge is counted by the earlier
    block.  A kernel member past the stability bound, or drifting at a
    checkpoint, steps by the identity from then on.

    Returns U_s(end) (N, N, M), the upper triangle of W_s (pairs, M), each
    kernel member's largest step ratio (M,) and the drift at its first
    failed checkpoint (M,), 0 if none, and with ``full_grid`` the rows
    U_s(t) (N, N, length, M) and W_s(t) (pairs, length, M) after t = 0.
    """
    b = dt.shape[0]
    m = len(origins) * b
    dt_m = np.tile(dt, len(origins))
    # Fold -i into the step so the stage updates stay plain contractions.
    step = -1j * dt_m
    half = 0.5 * step
    weights = _simpson_weights(length)
    ratio = np.zeros(m)
    drift = np.zeros(m)
    refused = np.zeros(m, dtype=bool)
    u_rows, w_rows = [], []
    lead_w = 0.0
    # Integration runs in (N, N, time, M) blocks: each matrix element is a
    # contiguous row over the members, so one contraction advances them all.
    for start in range(0, length, PROJECTION_INTERVAL):
        stop = min(start + PROJECTION_INTERVAL, length)
        index = np.add.outer(np.arange(2 * start, 2 * stop + 1), origins).ravel()
        times = 0.5 * dt[:, np.newaxis] * index
        h = np.ascontiguousarray(np.asarray(h_of_t(times), dtype=complex).transpose(2, 3, 1, 0))
        n = h.shape[0]
        h = h.reshape(n, n, 2 * (stop - start) + 1, m)
        block_ratio = _step_ratio(h, dt_m)
        np.maximum(ratio, block_ratio, out=ratio)
        refused |= block_ratio > RK4_STABILITY
        if start == 0:
            eye = np.eye(n, dtype=complex)[..., np.newaxis]
            v = np.broadcast_to(eye, (n, n, m))
            upper = np.triu_indices(n)
            w = np.zeros((len(upper[0]), m), dtype=complex)
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
        s[..., refused] = eye[..., np.newaxis]
        block = np.empty((n, n, stop - start + 1, m), dtype=complex)
        block[:, :, 0] = v
        for i, s_i in enumerate(s.transpose(2, 0, 1, 3), 1):
            v = _contract(s_i, v)
            block[:, :, i] = v
        del s
        v_end = block[:, :, -1].transpose(2, 0, 1)
        defect = unitarity_defect(v_end)
        new = ~(defect <= DRIFT_LIMIT) & ~refused  # NaN from a diverged run fails too
        drift[new] = defect[new]
        refused |= new
        block[:, :, -1, refused] = eye  # a refused member restarts from the identity
        if stop % PROJECTION_INTERVAL == 0:
            block[:, :, -1] = polar_project(v_end).transpose(1, 2, 0)
        v = block[:, :, -1].copy()
        # The upper triangle of G = U^dag H U at every sample.  Sums over time
        # run row by row, never pairwise, so they do not depend on the width.
        hu = _contract(h[:, :, ::2], block)
        del h
        adjoint = np.conj(block)
        g = np.empty((stop - start + 1, len(upper[0]), m), dtype=complex)
        for p, (i, j) in enumerate(zip(*upper)):
            np.einsum("ktm,ktm->tm", adjoint[:, i], hu[:, j], out=g[:, p])
        del hu, adjoint
        lo = 1 if start else 0
        w += np.sum(g[lo:] * weights[start + lo : stop + 1, np.newaxis, np.newaxis], axis=0)
        if full_grid:
            # The rows of W_s(t) by one cumulative Simpson pass per segment; each
            # block reaches back one panel, so an odd last block can use the end rule.
            if start:
                g = np.concatenate([lead, g])
            running = cumulative_simpson(g, dt_m, lead_w)
            lead, lead_w = g[-3:-1], running[-3]
            u_rows.append(block[:, :, 1:])
            w_rows.append(running[-(stop - start) :].transpose(1, 0, 2))
        del block, g  # the next block's samples and stages need the room
    w *= dt_m / 3.0
    rows = (np.concatenate(u_rows, axis=2), np.concatenate(w_rows, axis=1)) if full_grid else None
    return v, w, ratio, drift, rows


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


def _stability_refusal(ratio: float, steps: int) -> UnitarityLoss:
    """Names the least step count the bound allows: necessary, not sufficient against drift."""
    needed = min(steps * ratio / RK4_STABILITY, np.finfo(float).max)
    count = f"{math.ceil(needed)}" if needed < 1e15 else f"{needed:.3g}"
    return UnitarityLoss(
        f"dt*|H| = {ratio:.3g} exceeds the RK4 stability bound {RK4_STABILITY:.3g}; "
        f"needs at least {count} steps",
        steps_needed=needed,
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


def shift_ensembles(ensemble: Ensemble) -> list[Ensemble]:
    """The N mutually non-interfering companions rho_n = W^{n-1} rho (W^dag)^{n-1}.

    Conjugation by the cyclic shift permutes the weights against the fixed
    basis: companion n carries weights rolled by n-1 positions.  Equal
    weights are admitted: the off-diagonal trace has a well-defined
    equal-weight limit.
    """
    return [
        Ensemble(basis=ensemble.basis, weights=np.roll(ensemble.weights, n))
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
