"""Shared builders for randomized engine tests."""

import numpy as np


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


class SmoothFamily:
    """Smooth Hermitian generators H_j(t) = A_j + C_j cos(nu_j t) + S_j sin(nu_j t).

    A sampler for the batched integrator: calling it with times of shape
    (B, T) gives generators of shape (B, T, N, N).  Slicing selects members.
    """

    def __init__(self, a, c, s, nu):
        self.a, self.c, self.s, self.nu = a, c, s, nu

    def __getitem__(self, members):
        return SmoothFamily(self.a[members], self.c[members], self.s[members], self.nu[members])

    def __call__(self, times):
        phase = self.nu[:, None] * times
        cos = np.cos(phase)[..., None, None]
        sin = np.sin(phase)[..., None, None]
        return self.a[:, None] + self.c[:, None] * cos + self.s[:, None] * sin


def smooth_random_family(n, count, rng):
    """A random :class:`SmoothFamily` of ``count`` N x N generators."""
    a, c, s = (np.stack([random_hermitian(n, rng, 0.6) for _ in range(count)]) for _ in range(3))
    return SmoothFamily(a, c, s, rng.uniform(0.3, 2.0, size=count))


def rk4_reference(h_of_t, t_final, steps):
    """Classical four-stage RK4 for i dU/dt = H(t) U from U(0) = I, stage by stage.

    ``h_of_t(t)`` gives one (N, N) generator at a scalar time.  Returns the
    propagator at every grid time, shape (steps + 1, N, N).  No
    re-unitarization: a reference for runs shorter than one projection block.
    """
    dt = t_final / steps
    u = np.eye(h_of_t(0.0).shape[-1], dtype=complex)
    rows = [u]
    for m in range(steps):
        t = m * dt
        k1 = -1j * h_of_t(t) @ u
        k2 = -1j * h_of_t(t + 0.5 * dt) @ (u + 0.5 * dt * k1)
        k3 = -1j * h_of_t(t + 0.5 * dt) @ (u + 0.5 * dt * k2)
        k4 = -1j * h_of_t(t + dt) @ (u + dt * k3)
        u = u + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rows.append(u)
    return np.array(rows)
