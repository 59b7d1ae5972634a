"""End-to-end evaluation of thermal-state geometric phases for the spin model.

Single parameter points and parameter families share one code path: a family
is integrated as one batch by the engine kernel, after which the phases of
every point are assembled at once with the engine's broadcasting operations
over the frozen t = 0 eigenbasis.  No operation mixes points, so a point's
values do not depend on the family it is evaluated in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import (
    Ensemble,
    PropagatorTrace,
    cyclic_trace,
    diagonal_amplitude,
    integrate_sampled_family,
    shift_ensembles,
    transported_propagator,
)
from .errors import UndefinedPhase
from .linalg import PhaseFactor, phase_functional
from .model import (
    ModelParams,
    eigenbasis_matrix,
    eigensystem,
    hamiltonian_samples,
    period_tau,
    rotating_frame,
    thermal_weights,
)

SWEEP_AXES = ("beta", "omega", "muB", "V")


def model_traces(
    params_list: Sequence[ModelParams],
    steps: int,
    t_final: float | Sequence[float] | None = None,
) -> list[PropagatorTrace]:
    """Integrate the model for a family of parameter points as one batch.

    ``t_final`` may be a scalar, one value per point, or None for each
    point's own rotating-frame period tau.  The dynamical-phase reference
    basis is the t = 0 eigenbasis of each point.  Points that differ only in
    beta share one trace: beta enters the thermal weights, not the evolution.
    """
    n_pts = len(params_list)
    if t_final is None:
        finals = np.array([period_tau(p) for p in params_list])
    else:
        finals = np.broadcast_to(np.asarray(t_final, dtype=float), (n_pts,)).astype(float)
        if np.any(finals <= 0.0):
            raise ValueError("t_final must be positive")
    keys = [(p.V, p.muB, p.omega, t) for p, t in zip(params_list, finals.tolist())]
    distinct = dict(zip(keys, params_list))
    points = list(distinct.values())
    bases = np.stack([eigenbasis_matrix(eigensystem(p, 0.0)) for p in points])
    # steps < 2 leaves fewer than five samples, which the kernel rejects.
    with np.errstate(divide="ignore", invalid="ignore"):
        dts = np.array([key[3] for key in distinct]) / steps
        # Half-step sample times per point, shape (B, 2*steps+1).
        times = 0.5 * dts[:, np.newaxis] * np.arange(2 * steps + 1)[np.newaxis, :]
    traces = integrate_sampled_family(hamiltonian_samples(points, times), dts, bases)
    by_key = dict(zip(distinct, traces))
    return [by_key[key] for key in keys]


def model_trace(
    params: ModelParams, steps: int, t_final: float | None = None
) -> PropagatorTrace:
    """Single-point convenience wrapper around :func:`model_traces`."""
    return model_traces([params], steps, t_final)[0]


def thermal_companions(params: ModelParams, basis: np.ndarray) -> list[Ensemble]:
    """The thermal state over ``basis`` followed by its weight-shifted companion.

    Equal weights (beta = 0) are admitted: the off-diagonal trace has a
    well-defined equal-weight limit even though shifted companions of a
    degenerate ensemble are conceptually ill-defined.
    """
    w = thermal_weights(params)
    ensemble = Ensemble(basis=basis, weights=np.array([w.lambda1, w.lambda2]))
    return shift_ensembles(ensemble, require_distinct=False)


@dataclass(frozen=True)
class PhasePoint:
    """All phase quantities of one parameter point at one final time.

    ``diag``/``offdiag`` are None when the corresponding interference
    amplitude vanished (undefined phase); the raw arguments are always
    recorded.
    """

    params: ModelParams
    t_final: float
    tau: float
    omega_eff: float
    lambda1: float
    lambda2: float
    delta1: float
    delta2: float
    diag_raw: complex
    offdiag_raw: complex
    diag: PhaseFactor | None
    offdiag: PhaseFactor | None

    @property
    def undefined(self) -> tuple[str, ...]:
        names = []
        if self.diag is None:
            names.append("diagonal")
        if self.offdiag is None:
            names.append("off-diagonal")
        return tuple(names)


def _phase_or_none(raw: complex) -> PhaseFactor | None:
    try:
        return phase_functional(raw)
    except UndefinedPhase:
        return None


def phase_points(
    params_list: Sequence[ModelParams],
    steps: int = 8192,
    t_final: float | None = None,
) -> list[PhasePoint]:
    """Evaluate the diagonal and off-diagonal phases for a parameter family."""
    traces = model_traces(params_list, steps, t_final)
    companions = [thermal_companions(p, tr.basis) for p, tr in zip(params_list, traces)]
    u_final = np.stack([tr.U[-1] for tr in traces])
    delta_final = np.stack([tr.delta[-1] for tr in traces])
    bases = np.stack([tr.basis for tr in traces])
    weights = np.array([[e.weights for e in c] for c in companions])
    diag_raw = diagonal_amplitude(u_final, delta_final, bases, weights[:, 0])
    u_par = transported_propagator(u_final, delta_final, bases)
    offdiag_raw = cyclic_trace(u_par, bases[:, np.newaxis], weights)
    return [
        PhasePoint(
            params=p,
            t_final=trace.t_final,
            tau=period_tau(p),
            omega_eff=rotating_frame(p)[1],
            lambda1=lam1,
            lambda2=lam2,
            delta1=d1,
            delta2=d2,
            diag_raw=d,
            offdiag_raw=o,
            diag=_phase_or_none(d),
            offdiag=_phase_or_none(o),
        )
        for p, trace, (lam1, lam2), (d1, d2), d, o in zip(
            params_list, traces, weights[:, 0].tolist(), delta_final.tolist(),
            diag_raw.tolist(), offdiag_raw.tolist(),
        )
    ]


def phase_point(
    params: ModelParams, steps: int = 8192, t_final: float | None = None
) -> PhasePoint:
    """Evaluate one parameter point; see :class:`PhasePoint`."""
    return phase_points([params], steps, t_final)[0]


@dataclass(frozen=True)
class SweepSpec:
    """One-axis parameter sweep over a strictly increasing grid."""

    axis: str
    start: float
    stop: float
    points: int
    fixed: ModelParams
    steps: int = 8192
    t_final: float | None = None

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"axis must be one of {SWEEP_AXES}, got {self.axis!r}")
        if not self.start < self.stop:
            raise ValueError("start must be < stop")
        if self.points < 2:
            raise ValueError("points must be >= 2")

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)

    def params_at(self, value: float) -> ModelParams:
        fields = {
            "V": self.fixed.V,
            "muB": self.fixed.muB,
            "omega": self.fixed.omega,
            "beta": self.fixed.beta,
        }
        fields[self.axis] = float(value)
        return ModelParams(**fields)


@dataclass(frozen=True)
class SweepRow:
    """One sweep output row; phase fields are None when undefined."""

    axis_value: float
    lambda1: float
    delta1: float
    diag_arg_re: float
    diag_arg_im: float
    diag_phase: float | None
    offdiag_arg_re: float
    offdiag_arg_im: float
    offdiag_phase: float | None


def _row_from_point(value: float, point: PhasePoint) -> SweepRow:
    return SweepRow(
        axis_value=float(value),
        lambda1=point.lambda1,
        delta1=point.delta1,
        diag_arg_re=point.diag_raw.real,
        diag_arg_im=point.diag_raw.imag,
        diag_phase=None if point.diag is None else point.diag.arg,
        offdiag_arg_re=point.offdiag_raw.real,
        offdiag_arg_im=point.offdiag_raw.imag,
        offdiag_phase=None if point.offdiag is None else point.offdiag.arg,
    )


def run_sweep(spec: SweepSpec, jobs: int = 1) -> list[SweepRow]:
    """Evaluate a sweep as one batch; rows come back in axis order.

    ``jobs`` must be >= 1; it is accepted for command-line compatibility
    and does not change the evaluation.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    values = spec.grid()
    points = phase_points([spec.params_at(v) for v in values], spec.steps, spec.t_final)
    return [_row_from_point(v, pt) for v, pt in zip(values, points)]
