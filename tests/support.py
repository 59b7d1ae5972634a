"""Shared builders for randomized engine tests, the per-trace phase API and cross-check routes."""

import itertools
from dataclasses import dataclass
from functools import partial

import numpy as np

from spinphase import engine
from spinphase.engine import PropagatorTrace, integrate_sampled_family
from spinphase.errors import UnitarityLoss
from spinphase.linalg import phase_functional
from spinphase.model import (
    Convention,
    PointFamily,
    closed_form_propagator,
    hamiltonian,
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


# The per-trace API of the tests: one point, one evolution, or one
# PropagatorTrace and its Ensemble objects at a time.  The phase functions
# wrap the engine's array functions of the same names.


def point_hamiltonian(p, times):
    """H(t) of one ModelParams at a scalar or an array of times, shape times.shape + (2, 2)."""
    times = np.asarray(times, dtype=float)
    samples = hamiltonian(PointFamily.of([p]), times.reshape(1, -1))[0]
    return samples.reshape(times.shape + (2, 2))


def period_tau(p):
    """Rotating-frame return period tau = 2 pi / Omega of one ModelParams.  Raises DegenerateFrame."""
    family = PointFamily.of([p])
    if family.frame_degenerate[0]:
        raise family.degeneracy(0)
    return float(family.tau[0])


def identity_bases(count, n):
    """The computational basis of N levels as the reference basis of each of ``count`` members."""
    return np.broadcast_to(np.eye(n, dtype=complex), (count, n, n))


def integrate_propagator(h_of_t, t_final, steps, basis=None):
    """One evolution's endpoint trace; ``h_of_t`` maps 1-D times to (T, N, N).  Raises its refusal.

    ``basis`` defaults to the computational basis of H's dimension.
    """
    bases = identity_bases(1, h_of_t(np.zeros(1)).shape[-1]) if basis is None else [basis]
    (trace,) = integrate_sampled_family(lambda times: h_of_t(times[0])[np.newaxis], [t_final], steps, bases)
    if isinstance(trace, UnitarityLoss):
        raise trace
    return trace


def model_family_traces(points, steps, t_final=None):
    """The kernel call of ``model_traces``, one member per entry of ``points``.

    ``points`` lists ModelParams that have an eigenbasis and, when
    ``t_final`` is None, a period tau; a point may repeat, so one family
    holds a trajectory's rows at chosen times as its members' endpoints.
    ``t_final`` may be a scalar, one value per point, or None for each
    point's tau.  A point the kernel refused gets its UnitarityLoss.  A
    member's trace is bit-identical to ``model_traces``' trace of its point
    at its final time.
    """
    family = PointFamily.of(points)
    finals = family.tau if t_final is None else np.broadcast_to(np.asarray(t_final, dtype=float), family.V.shape)
    return integrate_sampled_family(partial(hamiltonian, family), finals, steps, family.eigenbasis())


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


def parallel_transported(trace):
    """Parallel-transported evolution U_par = U sum_k e^{-i delta_k} P_k.

    The returned trace carries zero running phases: along U_par no dynamical
    phase accrues in any reference-basis direction.
    """
    return PropagatorTrace(
        grid=trace.grid,
        U=engine.parallel_transported(trace.U, trace.delta, trace.basis),
        delta=np.zeros_like(trace.delta),
        basis=trace.basis,
    )


def parallel_transport_residual(p, steps, centers, h):
    """Max residual |<psi_k| U_par^dag dU_par/dt |psi_k>| of one point at each time of ``centers``.

    U_par at t0 + j h, j = -2..2, comes from the endpoint traces of one
    family, one member per time, each of ``steps`` steps.  At a fixed step
    count U(t) is smooth in t, so the five-point (fourth-order) central
    stencil's error is about 1e-15 / h + h^4; the three-point stencil's h^2
    truncation would dominate the residual.
    """
    times = np.add.outer(centers, h * np.arange(-2, 3)).ravel()
    traces = model_family_traces([p] * len(times), steps, times)
    u = np.stack([engine.parallel_transported(t.U[-1], t.delta[-1], t.basis) for t in traces])
    u = u.reshape(len(centers), 5, *u.shape[1:])
    du = (-u[:, 4] + 8.0 * u[:, 3] - 8.0 * u[:, 1] + u[:, 0]) / (12.0 * h)
    inner = np.einsum("mji,mjk->mik", u[:, 2].conj(), du)
    basis = traces[0].basis
    per_state = np.einsum("ja,mjk,ka->ma", basis.conj(), inner, basis)
    return float(np.max(np.abs(per_state)))


def _require_shared_basis(trace, ensembles):
    for e in ensembles:
        if np.linalg.norm(e.basis - trace.basis) > 1e-10:
            raise ValueError("ensemble basis differs from the trace reference basis")


def diagonal_phase_argument(trace, ensemble):
    """Raw interference amplitude sum_k lambda_k <psi_k|U(T)|psi_k> e^{-i delta_k}."""
    _require_shared_basis(trace, [ensemble])
    u, delta = trace.U[-1], trace.delta[-1]
    return complex(engine.diagonal_phase_argument(u, delta, ensemble.basis, ensemble.weights))


def shift_ensembles(ensemble):
    """The N mutually non-interfering companions rho_n = W^{n-1} rho (W^dag)^{n-1}.

    Conjugation by the cyclic shift permutes the weights against the fixed
    basis: companion n carries weights rolled by n-1 positions.  Equal
    weights are admitted: the off-diagonal trace has a well-defined
    equal-weight limit.
    """
    return [Ensemble(basis=ensemble.basis, weights=w) for w in engine.shift_ensembles(ensemble.weights)]


def offdiagonal_trace(trace, ensembles, l=None):
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
    u_par = engine.parallel_transported(trace.U[-1], trace.delta[-1], trace.basis)
    weights = np.stack([e.weights for e in ensembles])
    return complex(engine.offdiagonal_trace(u_par, trace.basis, weights))


# Independent cross-check routes of the phase engine, used only by the tests.


def exact_delta1(p):
    """Exact delta_1(tau) = -delta_2(tau) = -tau (h0.n)^2 / E1 of one ModelParams.

    U(t) = R(t) e^{-i H_rot t} with R(t) = e^{-i sigma_z omega t / 2}, so
    U^dag H U = e^{i H_rot t} H(0) e^{-i H_rot t}.  Over one period the
    Bloch vector h0 = (muB, 0, V/2) of H(0) turns once about the axis n =
    (2 muB, 0, V - omega) / Omega of H_rot, and only its part along n
    survives: int_0^tau U^dag H U dt = tau (h0.n) n.sigma, with h0.n = (2
    muB^2 + V (V - omega) / 2) / Omega.  The upper eigenvector psi_1 of
    H(0) has <psi_1|n.sigma|psi_1> = (h0.n) / E1.
    """
    family = PointFamily.of([p])
    omega_eff = float(family.omega_eff[0])
    along = (2.0 * p.muB**2 + 0.5 * p.V * (p.V - p.omega)) / omega_eff
    return -float(family.tau[0]) * along**2 / float(family.gap[0][0])


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
    m_par = b.conj().T @ engine.parallel_transported(trace.U[-1], trace.delta[-1], b) @ b
    roots = [e.weights ** (1.0 / l) for e in ensembles]
    total = 0.0 + 0.0j
    for path in itertools.product(range(trace.U.shape[-1]), repeat=l):
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
