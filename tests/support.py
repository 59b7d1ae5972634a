"""Shared builders for randomized engine tests."""

import numpy as np

from spinphase.engine import Ensemble, integrate_sampled_family


def random_unitary(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()


def random_hermitian(n, rng, scale=1.0):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * 0.5 * (m + m.conj().T)


def circular_distance(a, b):
    """Distance between angles on the circle, in [0, pi]."""
    return np.abs(np.angle(np.exp(1j * (np.asarray(a) - b))))


def distinct_weights(n, rng, min_gap=1e-3):
    while True:
        w = rng.uniform(0.2, 1.0, size=n)
        w = w / w.sum()
        gaps = np.abs(np.subtract.outer(w, w))[~np.eye(n, dtype=bool)]
        if gaps.min() > min_gap:
            return w


def piecewise_constant_h(segments, seg_len):
    """Right-open piecewise-constant generator aligned to multiples of seg_len."""
    nseg = len(segments)

    def h_of_t(times):
        idx = np.clip((np.asarray(times) / seg_len).astype(int), 0, nseg - 1)
        return np.stack([segments[i] for i in idx])

    return h_of_t


def smooth_random_family(n, count, steps, t_final, rng):
    """Random smooth Hermitian generator families H(t) = A + C cos(nu t) + S sin(nu t).

    Returns (h_samples, dt, sample_times) ready for the batched integrator.
    """
    a = np.stack([random_hermitian(n, rng, 0.6) for _ in range(count)])
    c = np.stack([random_hermitian(n, rng, 0.6) for _ in range(count)])
    s = np.stack([random_hermitian(n, rng, 0.6) for _ in range(count)])
    nu = rng.uniform(0.3, 2.0, size=count)
    dt = np.full(count, t_final / steps)
    times = 0.5 * dt[:, None] * np.arange(2 * steps + 1)[None, :]
    cos = np.cos(nu[:, None] * times)[..., None, None]
    sin = np.sin(nu[:, None] * times)[..., None, None]
    h = a[:, None] + c[:, None] * cos + s[:, None] * sin
    return h, dt, times


def random_ensembles(n, count, rng):
    bases = np.stack([random_unitary(n, rng) for _ in range(count)])
    weights = np.stack([distinct_weights(n, rng) for _ in range(count)])
    return bases, weights


def family_phase_args(h_samples, dt, bases, weights):
    """Diagonal and off-diagonal phase arguments for a random family."""
    from spinphase.engine import (
        diagonal_phase_argument,
        offdiagonal_trace,
        shift_ensembles,
    )
    from spinphase.linalg import phase_functional

    traces = integrate_sampled_family(h_samples, dt, bases)
    out = []
    for trace, basis, w in zip(traces, bases, weights):
        ensemble = Ensemble(basis=basis, weights=w)
        companions = shift_ensembles(ensemble)
        diag = diagonal_phase_argument(trace, ensemble)
        off = offdiagonal_trace(trace, companions, len(companions))
        out.append(
            (
                phase_functional(diag).arg,
                phase_functional(off).arg,
                abs(diag),
                abs(off),
            )
        )
    return np.array(out)
