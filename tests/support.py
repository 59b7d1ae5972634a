"""Shared builders for randomized engine tests, and independent cross-check routes."""

import itertools

import numpy as np

from spinphase.engine import (
    cumulative_simpson,
    diagonal_phase_argument,
    offdiagonal_trace,
    transported_propagator,
)
from spinphase.linalg import phase_functional
from spinphase.model import (
    Convention,
    PointFamily,
    closed_form_propagator,
    period_tau,
    reference_closed_forms,
)


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


# Independent cross-check routes of the phase engine, used only by the tests.


def dynamical_phase(trace, h_of_t, k):
    """Dynamical phase delta_k(T) = -int_0^T <psi_k|U^dag H U|psi_k> dt.

    Simpson quadrature of the integrand re-sampled from ``h_of_t`` on the
    grid of a full-grid trace, independent of the trace's running phases.
    """
    if not 0 <= k < trace.dim:
        raise IndexError(f"basis index {k} out of range for dimension {trace.dim}")
    h_grid = np.asarray(h_of_t(trace.grid), dtype=complex)
    ub = trace.U @ trace.basis
    integrand = -np.real(np.einsum("mik,mik->mk", ub.conj(), h_grid @ ub))
    dt = float(trace.grid[1] - trace.grid[0])
    return float(cumulative_simpson(integrand[:, k], dt)[-1])


def diagonal_mixed_phase(trace, ensemble):
    """Phase factor of the diagonal interference sum; raises UndefinedPhase if it vanishes."""
    return phase_functional(diagonal_phase_argument(trace, ensemble))


def offdiagonal_mixed_phase(trace, ensembles, l=None):
    """Phase factor of the off-diagonal cyclic trace; raises UndefinedPhase if it vanishes."""
    return phase_functional(offdiagonal_trace(trace, ensembles, l))


def shift_operator(basis):
    """Cyclic shift W = sum_k |psi_{k+1 mod N}><psi_k| over the given basis."""
    basis = np.asarray(basis, dtype=complex)
    # column k of the rolled matrix is |psi_{k+1 mod N}>
    return np.roll(basis, -1, axis=1) @ basis.conj().T


def offdiag_trace_expansion(trace, ensembles, l):
    """The off-diagonal trace written out as nested sums over matrix elements.

    Tr prod_a U_par(T) rho_a^{1/l} in the shared basis, term by term: a
    route independent of the operator products of ``offdiagonal_trace``.
    """
    b = trace.basis
    m_par = b.conj().T @ transported_propagator(trace.U[-1], trace.delta[-1], b) @ b
    roots = [e.weights ** (1.0 / l) for e in ensembles]
    total = 0.0 + 0.0j
    for path in itertools.product(range(trace.dim), repeat=l):
        term = 1.0 + 0.0j
        for a in range(l):
            nxt = path[(a + 1) % l]
            term *= m_par[path[a], nxt] * roots[a][nxt]
        total += term
    return complex(total)


def reading_diagnostic(p, tol=1e-9):
    """Which propagator ordering and eigenbasis time reproduce the references.

    Evaluates the exact closed-form propagator in both orderings, takes its
    matrix elements in the t = 0 and t = tau eigenbases, and lists the
    readings that reproduce the reference U11 and (repaired) U12 values.
    """
    tau = period_tau(p)
    rc = reference_closed_forms(p)
    family = PointFamily.of([p])
    bases = {"t0": family.eigenbasis(0.0)[0], "tau": family.eigenbasis(tau)[0]}
    propagators = {
        "literal": closed_form_propagator(p, tau, Convention.LITERAL),
        "ode": closed_form_propagator(p, tau, Convention.ODE),
    }
    out = {"U11_Eq15": [], "U12_Eq16_repaired": []}
    for conv_name, u in propagators.items():
        for basis_name, b in bases.items():
            m = b.conj().T @ u @ b
            label = f"{conv_name}@{basis_name}"
            if abs(m[0, 0] - rc.u11) <= tol:
                out["U11_Eq15"].append(label)
            if abs(m[0, 1] - rc.u12) <= tol:
                out["U12_Eq16_repaired"].append(label)
    return out
