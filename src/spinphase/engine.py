"""Definitional machinery for mixed-state geometric phases of unitary paths.

The operations here are oracle-grade and model-agnostic: a classical RK4
integrator for i dU/dt = H(t) U, each step composed into one step matrix,
with periodic re-unitarization, and dynamical phases by Simpson quadrature;
then, over leading batch axes, the parallel-transported propagator, the
diagonal interference amplitude, the weight-shifted companion ensembles and
the off-diagonal cyclic trace of any N-level unitary evolution over a fixed
orthonormal reference basis.

A trajectory is integrated as time segments of about 512 steps, side by
side: every (member, segment) pair is one member of the blocked kernel,
started from the identity, and accumulates its propagator U_s and the
operator integral W_s = int U_s^dag H U_s dt.  The endpoints compose in time
order, U(T) = U_P ... U_1, and the dynamical phases follow from the W_s and
the composed propagators, so a single long trajectory runs as a wide batch.
A trace keeps the rows at t = 0 and t = T alone.
Segments run in waves of up to 256 kernel members.  A wave steps in sub-blocks
short enough that a kernel call over B trajectories holds no more
member-steps than a 64-step block max(B, 32) members wide.

Time-dependent generators are supplied as callables mapping an array of
times to a stacked array of Hermitian matrices, shape times.shape + (N, N).
The kernel samples them one block of steps at a time, so its memory does not
grow with the number of steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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
WAVE_MEMBERS = 256
#: A kernel call over B trajectories holds at most max(B, BLOCK_MEMBERS) x 64
#: member-steps: a wave wider than that runs its 64-step blocks in sub-blocks
#: of 32, 16 or 8 steps.  A full wave of WAVE_MEMBERS fits in 8-step ones.
BLOCK_MEMBERS = 32
#: Most steps a run may take, the step bound of the command-line contract.
MAX_STEPS = 2**31


@dataclass(frozen=True)
class PropagatorTrace:
    """Propagator of one unitary evolution at its start and end.

    Two rows, which the phase computations need: grid [0, T], U [I, U(T)]
    and delta [0, delta(T)].

    Attributes
    ----------
    grid : ndarray, shape (2,)
        The times 0 and T.
    U : ndarray, shape (2, N, N)
        Propagator at each grid time; U[0] is the identity.
    delta : ndarray, shape (2, N)
        Dynamical phase of each reference-basis state at each grid time,
        delta_k(t) = -int_0^t <psi_k| U^dag H U |psi_k> dt'.
    basis : ndarray, shape (N, N)
        Orthonormal reference basis (columns) the phases refer to.
    """

    grid: np.ndarray
    U: np.ndarray
    delta: np.ndarray
    basis: np.ndarray


def _contract(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Matrix product over the two leading axes of stacks shaped (N, N, ...), into ``out`` if given."""
    return np.einsum("ij...,jk...->ik...", a, b, out=out)


def cumulative_simpson(y: np.ndarray, dx) -> np.ndarray:
    """Cumulative Simpson integral of real or complex ``y`` along axis 0, spacing ``dx``, from 0.

    Each interval integrates the parabola through three neighbouring
    samples (scipy's equal-interval h1/h2 rule), and the interval integrals
    are summed in order.  ``dx`` broadcasts against ``y[0]``, so batch
    members may have their own spacing.  Needs >= 3 samples.
    """
    y = np.asarray(y)
    y = y.astype(np.result_type(y, float), copy=False)
    third = dx / 3

    def first_interval(f1, f2, f3):
        # [x1, x2] under the parabola through x1, x2, x3; reversed, [x2, x3].
        return third * (5 * f1 / 4 + 2 * f2 - f3 / 4)

    out = np.empty(y.shape, dtype=y.dtype)
    out[0] = 0.0
    sub = out[1:]
    sub[:-1:2] = first_interval(y[:-2:2], y[1:-1:2], y[2::2])
    sub[1::2] = first_interval(y[2::2], y[1:-1:2], y[:-2:2])
    sub[-1] = first_interval(y[-1], y[-2], y[-3])
    return np.cumsum(out, axis=0, out=out)


def integrate_sampled_family(
    h_of_t: Callable[[np.ndarray], np.ndarray],
    t_final,
    steps: int,
    bases: np.ndarray,
) -> list[PropagatorTrace | UnitarityLoss]:
    """Integrate i dU/dt = H(t) U from the identity for a family of evolutions.

    ``h_of_t`` maps sample times of shape (B, T), one row per member, to
    Hermitian generators of shape (B, T, N, N).  ``t_final`` holds the B
    final times, each member takes ``steps`` steps of t_final / steps, and
    ``bases`` holds the B orthonormal reference bases (columns), shape
    (B, N, N).

    Each member's [0, T] is cut into ceil(steps / 512) time segments whose
    lengths depend on ``steps`` alone and form at most three runs
    (:func:`_waves`).  Every (member, segment) pair is integrated from the
    identity as one member of the blocked RK4 kernel
    (:func:`_integrate_segments`), which yields the segment propagator U_s
    and the operator integral W_s = int U_s^dag H U_s dt.  The segments run
    in time order, in waves of at most max(1, 256 // B) segments, each
    stepped in sub-blocks of at most max(B, 32) x 64 member-steps.  After
    each wave the segments are composed in time order: with X_0 = B, the
    reference basis, X_{s+1} = U_s X_s and delta_k(t_{s+1}) = delta_k(t_s)
    - Re <b_k| X_s^dag W_s X_s |b_k>, so U(T) = X_P B^dag.  The segments of
    even length pair their Simpson panels as one composite rule over the
    whole grid would.  Memory does not grow with ``steps``.  A family of no
    members is checked like any other and gets no traces.  No operation
    mixes members, and the segment layout does not depend on the batch, so
    a member's result does not depend on the batch it is integrated in.

    A member is refused if any of its segments is.  A segment is refused if
    its dt |H| exceeds RK4's stability bound 2 sqrt(2), or its drift at a
    re-unitarization checkpoint exceeds 1e-6; it then steps by the identity,
    so the other members' results do not change.  A refused member gets a
    :class:`UnitarityLoss` in place of its trace: for the bound, naming the
    least step count that the member's largest ratio allows; for drift, its
    first failed checkpoint in time order.

    Raises
    ------
    ValueError
        If there are fewer than 2 steps or more than MAX_STEPS, a final
        time is not positive and finite or its time step rounds to zero, or
        a generator sample is not finite.
    """
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    if steps > MAX_STEPS:
        raise ValueError(f"steps must be <= {MAX_STEPS}, got {steps}")
    t_final = np.asarray(t_final, dtype=float)
    if not np.all(np.isfinite(t_final) & (t_final > 0.0)):
        raise ValueError("t_final must be positive and finite")
    dt = t_final / steps
    if not np.all(dt > 0.0):
        raise ValueError(f"t_final = {float(t_final[dt == 0.0][0])!r} over {steps} steps "
                         "rounds the time step to zero")
    b = dt.shape[0]
    if b == 0:  # a family with nothing to integrate still had its step count checked
        return []
    ratio = np.zeros(b)  # each member's largest step ratio over all its segments
    drift = np.zeros(b)  # the drift at each member's first failed checkpoint, 0 if none
    bases = np.asarray(bases, dtype=complex)
    n = bases.shape[-1]
    adjoint = bases.conj().transpose(2, 1, 0)
    x = bases.transpose(1, 2, 0)
    phase = np.zeros((n, b))
    # A diverging run overflows; the checkpoint drift test reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for origins, length in _waves(steps, max(1, WAVE_MEMBERS // b)):
            u, w, wave_ratio, wave_drift = _integrate_segments(h_of_t, dt, origins, length)
            np.maximum(ratio, wave_ratio.reshape(len(origins), b).max(axis=0), out=ratio)
            for p in range(len(origins)):
                members = slice(p * b, (p + 1) * b)
                drift = np.where(drift != 0.0, drift, wave_drift[members])
                x, phase = _contract(u[..., members], x), phase - _phase_drop(w[..., members], x)
        u_final = _contract(x, adjoint).transpose(2, 0, 1)
    u_all = np.stack([np.broadcast_to(np.eye(n), u_final.shape), u_final], axis=1)
    delta_all = np.stack([np.zeros((b, n)), phase.T], axis=1)
    grid = np.multiply.outer(dt, [0, steps])
    unstable, drifted = ratio > RK4_STABILITY, drift != 0.0  # NaN drift, from an overflow, counts
    return [
        _stability_refusal(ratio[j], steps) if unstable[j]
        else UnitarityLoss(f"unitarity drift {drift[j]:.3e} > {DRIFT_LIMIT:.0e}") if drifted[j]
        else PropagatorTrace(grid=grid[j], U=u_all[j], delta=delta_all[j], basis=bases[j])
        for j in range(b)
    ]


def _waves(steps: int, width: int):
    """(origins, length) of each wave of time segments of a trajectory, in time order.

    The ceil(steps / 512) segments are near-equal and even, so each one's
    Simpson panels pair as the composite rule over the whole grid pairs them;
    only the last takes an odd step.  Every segment has at least 2 steps, and
    at least 256 when there are two or more.  Their lengths form at most
    three runs, and a wave is at most ``width`` consecutive segments of one
    run; ``origins`` holds each segment's first half-step index.
    """
    count = -(-steps // SEGMENT_STEPS)
    even = 2 * (steps // (2 * count))
    extra = steps - count * even  # fewer than 2 * count
    start = 0  # the run's first step
    runs = (even + 2, extra // 2), (even, count - extra // 2 - extra % 2), (even + 1, extra % 2)
    for length, segments in runs:
        for first in range(0, segments, width):
            yield 2 * (start + length * np.arange(first, min(first + width, segments))), length
        start += length * segments


def _simpson_weights(steps: int) -> np.ndarray:
    """Coefficients c with Simpson's integral over ``steps`` panels = dt / 3 sum_t c_t f_t.

    The interval rules of :func:`cumulative_simpson`, read off its integrals
    of unit samples (dx / 3 = 1, so every coefficient is exact): composite
    Simpson over the leading even number of panels, and its end rule on an
    odd last panel.
    """
    first, second, last = np.diff(cumulative_simpson(np.eye(4), 3.0), axis=0)
    pair = (first + second)[:3]  # 1, 4, 1
    even = steps - steps % 2
    c = np.zeros(steps + 1)
    for i in range(3):
        c[i : even - 1 + i : 2] += pair[i]
    if steps % 2:
        c[even - 1 :] += last[1:]  # -1/4, 2, 5/4
    return c


def _phase_drop(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Re <e_k| X^dag W X |e_k> = Re sum_i conj(x_ik) (W X)_ik per column k of (N, N, ...) stacks."""
    return np.real(np.sum(np.conj(x) * _contract(w, x), axis=0))


def _integrate_segments(
    h_of_t: Callable[[np.ndarray], np.ndarray],
    dt: np.ndarray,
    origins: np.ndarray,
    length: int,
):
    """Integrate ``length``-step segments of every member from the identity, side by side.

    Kernel member p B + j is segment p of member j of ``dt``; ``origins``
    holds each segment's first sample time as an index of the half-step
    grid, so H is sampled at 0.5 dt (origin + k).  ``h_of_t`` gets one row
    of times per member, ordered (time, segment): a sampler that stores
    (N, N, T P, B) is then read as (N, N, T, P B) without a copy.

    Classical fixed-step RK4 in blocks of 64 steps, with the drift check at
    the end of each block and polar re-unitarization at the end of each full
    one.  A block runs in sub-blocks of 64, 32, 16 or 8 steps, the longest for
    which M members x its length stay within max(B, 32) x 64 member-steps,
    so a wide wave holds no more than a 64-step block of max(B, 32) members.
    H is sampled once per sub-block on its half-step grid, and each step is
    composed into one matrix: with A = -i dt H at the step's start, middle
    and end, S = I + (A0 + 2 (K2 + K3) + K4) / 6 for K2 = Am (I + A0/2), K3
    = Am (I + K2/2) and K4 = A1 (I + K3).  W_s is the full matrix: each
    sample of G = U^dag H U is scaled by its Simpson weight times dt / 3, so
    the sum overflows no sooner than W_s itself; a sample on a sub-block
    edge is counted by the earlier sub-block.  A block's samples are summed
    in time order, the running sum added to each sub-block's first sample,
    and added to W_s at the block's end, so the bytes do not depend on the
    sub-block length.  A kernel member past the stability bound, or drifting
    at a checkpoint, steps by the identity from then on.

    Returns U_s and W_s, each (N, N, M); then each kernel member's
    largest step ratio (M,) and the drift at its first failed checkpoint
    (M,), 0 if none.
    """
    b = dt.shape[0]
    m = len(origins) * b
    sub = next(k for k in (64, 32, 16, 8) if m * k <= max(b, BLOCK_MEMBERS) * PROJECTION_INTERVAL)
    dt_m = np.tile(dt, len(origins))
    # Fold -i into the step so the stage updates stay plain contractions.
    step = -1j * dt_m
    half = 0.5 * step
    weights = _simpson_weights(length)
    ratio = np.zeros(m)
    drift = np.zeros(m)
    refused = np.zeros(m, dtype=bool)
    partial = None  # the current 64-step block's Simpson sum so far, in time order
    # Integration runs in (N, N, time, M) blocks: each matrix element is a
    # contiguous row over the members, so one contraction advances them all.
    for start in range(0, length, sub):
        stop = min(start + sub, length)
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
            w = np.zeros((n, n, m), dtype=complex)
        # The sub-block's step matrices S = I + (A0 + 2 (K2 + K3) + K4) / 6, summed in
        # place: sub-block-sized temporaries set the peak memory of a wide chunk.
        a = step * h[:, :, 1::2]
        k = a + _contract(a, half * h[:, :, :-1:2])  # K2
        ends = step * h[:, :, ::2]  # A at each step's start and end: interior samples are both
        s = ends[:, :, :-1] + 2.0 * k
        k *= 0.5  # K2 is spent: halved in place, the stage holds one sub-block less
        k = _contract(a, k)
        k += a  # K3
        s += 2.0 * k
        a = ends[:, :, 1:]
        s += a + _contract(a, k)  # K4
        del a, k, ends
        s /= 6.0
        s[range(n), range(n)] += 1.0
        s[..., refused] = eye[..., np.newaxis]
        block = np.empty((n, n, stop - start + 1, m), dtype=complex)
        block[:, :, 0] = v
        for i, s_i in enumerate(s.transpose(2, 0, 1, 3), 1):
            _contract(s_i, block[:, :, i - 1], out=block[:, :, i])
        del s
        checkpoint = stop % PROJECTION_INTERVAL == 0 or stop == length
        if checkpoint:
            v_end = block[:, :, -1].transpose(2, 0, 1)
            defect = unitarity_defect(v_end)
            new = ~(defect <= DRIFT_LIMIT) & ~refused  # NaN from a diverged run fails too
            drift[new] = defect[new]
            refused |= new
            block[:, :, -1, refused] = eye  # a refused member restarts from the identity
            if stop % PROJECTION_INTERVAL == 0:
                block[:, :, -1] = polar_project(v_end).transpose(1, 2, 0)
        v = block[:, :, -1].copy()
        # G = U^dag H U at each sample the previous sub-block did not count, time leading:
        # sums over time then run row by row, never pairwise, so they do not depend on M.
        lo = 1 if start else 0
        hu = _contract(h[:, :, 2 * lo :: 2], block[:, :, lo:])
        del h
        adjoint = np.conj(block[:, :, lo:])
        g = np.empty((stop - start + 1 - lo, n, n, m), dtype=complex)
        for i in range(n):
            for j in range(n):
                np.einsum("ktm,ktm->tm", adjoint[:, i], hu[:, j], out=g[:, i, j])
        del hu, adjoint
        scale = np.multiply.outer(weights[start + lo : stop + 1], dt_m / 3.0)
        terms = g * scale[:, np.newaxis, np.newaxis]
        if partial is not None:  # the block's sum so far joins the first row: the rows add in time order
            terms[0] += partial
        partial = np.sum(terms, axis=0)
        del terms
        if checkpoint:
            w += partial
            partial = None
        del block, g  # the next sub-block's samples and stages need the room
    return v, w, ratio, drift


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
    frobenius = np.sqrt((square[:, ::2] + square[:, 1::2]).max(axis=0))  # sqrt is monotone
    if not np.all(np.isfinite(frobenius)):  # the squares overflowed, or H is not finite
        frobenius = np.hypot.reduce(np.abs(h).reshape(n * n, *h.shape[2:]), axis=0).max(axis=0)
    ratio = dt * frobenius / math.sqrt(n)
    if np.isnan(ratio).any():
        raise ValueError("generator samples must be finite")
    return ratio


def _stability_refusal(ratio: float, steps: int) -> UnitarityLoss:
    """Names the least step count the bound allows: necessary, not sufficient against drift."""
    needed = min(steps * float(ratio) / RK4_STABILITY, np.finfo(float).max)  # Python floats: no warning
    count = f"{math.ceil(needed)}" if needed < 1e15 else f"{needed:.3g}"
    return UnitarityLoss(
        f"dt*|H| = {ratio:.3g} exceeds the RK4 stability bound {RK4_STABILITY:.3g}; "
        f"needs at least {count} steps",
        steps_needed=needed,
    )


def parallel_transported(u: np.ndarray, delta: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Parallel-transported propagator U_par = U B diag(e^{-i delta}) B^dag.

    ``u`` (..., N, N), ``delta`` (..., N) and ``basis`` (..., N, N)
    broadcast over leading axes: pass the final time of one trace, a whole
    grid, or the final times of a batch.
    """
    phases = np.exp(-1j * np.asarray(delta))[..., np.newaxis, :]
    basis = np.asarray(basis)
    return u @ ((basis * phases) @ np.conj(np.swapaxes(basis, -1, -2)))


def diagonal_phase_argument(
    u_final: np.ndarray, delta_final: np.ndarray, basis: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """sum_k lambda_k <psi_k|U(T)|psi_k> e^{-i delta_k(T)} over the columns of ``basis``.

    ``u_final`` (..., N, N), ``delta_final`` (..., N), ``basis`` (..., N, N)
    and ``weights`` (..., N) broadcast over leading batch axes.
    """
    elements = np.einsum("...ja,...jk,...ka->...a", np.conj(basis), u_final, basis)
    return np.sum(weights * elements * np.exp(-1j * delta_final), axis=-1)


def shift_ensembles(weights: np.ndarray) -> np.ndarray:
    """Weights (..., N, N) of the N companions rho_n = W^{n-1} rho (W^dag)^{n-1}.

    Conjugation by the cyclic shift W permutes the weights (..., N) against
    the fixed basis: companion n carries them rolled by n-1 positions.
    Equal weights are admitted: the off-diagonal trace has a well-defined
    equal-weight limit.
    """
    return np.stack([np.roll(weights, n, axis=-1) for n in range(weights.shape[-1])], axis=-2)


def offdiagonal_trace(u_par: np.ndarray, basis: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Tr prod_a U_par rho_a^{1/l} with rho_a^{1/l} = sum_k w_ak^{1/l} |psi_k><psi_k|.

    The l ensembles share the columns of ``basis`` (..., N, N), as the
    companions of ``shift_ensembles`` do; ``weights`` (..., l, N) lists them
    in product order and ``u_par`` is (..., N, N).  Leading axes broadcast.
    """
    l = weights.shape[-2]
    basis = basis[..., np.newaxis, :, :]
    roots = (basis * weights[..., np.newaxis, :] ** (1.0 / l)) @ np.conj(np.swapaxes(basis, -1, -2))
    product = u_par @ roots[..., 0, :, :]
    for a in range(1, l):
        product = product @ u_par @ roots[..., a, :, :]
    return np.trace(product, axis1=-2, axis2=-1)
