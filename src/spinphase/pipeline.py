"""End-to-end evaluation of thermal-state geometric phases for the spin model.

Single parameter points and parameter families share one code path: a family
is integrated by the engine kernel in chunks of distinct trajectories, after
which the phases of every point are assembled at once with the engine's
broadcasting operations over the frozen t = 0 eigenbasis.  No operation mixes
points, so a point's values do not depend on the family it is evaluated in.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from functools import partial
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
from .errors import DegenerateFrame, DegenerateSpectrum, UndefinedPhase
from .linalg import PhaseFactor, phase_functional
from .model import (
    ModelParams,
    eigenbasis_matrix,
    eigensystem,
    hamiltonian,
    period_tau,
    rotating_frame,
    thermal_weights,
)

SWEEP_AXES = ("beta", "omega", "muB", "V")
#: Distinct points integrated together.  Wide enough that per-step
#: interpreter work is amortized, narrow enough that a chunk's working set
#: stays a few MiB at any step count.
CHUNK_POINTS = 512


def _trajectories(
    params_list: Sequence[ModelParams], t_final: float | Sequence[float] | None
) -> tuple[list[tuple], list[list[int]]]:
    """Trajectory key (V, muB, omega, T) of each point, and the point indices in chunks.

    Points with equal keys differ only in beta, which enters the thermal
    weights, not the evolution: they share one trajectory and one chunk.  A
    chunk spans at most CHUNK_POINTS distinct trajectories.
    """
    if t_final is None:
        finals = [period_tau(p) for p in params_list]
    else:
        finals = np.broadcast_to(np.asarray(t_final, dtype=float), (len(params_list),))
        if np.any(finals <= 0.0):
            raise ValueError("t_final must be positive")
        finals = finals.tolist()
    keys = [(p.V, p.muB, p.omega, t) for p, t in zip(params_list, finals)]
    members: dict[tuple, list[int]] = {}
    for i, key in enumerate(keys):
        members.setdefault(key, []).append(i)
    groups = list(members.values())
    chunks = [
        [i for group in groups[lo : lo + CHUNK_POINTS] for i in group]
        for lo in range(0, len(groups), CHUNK_POINTS)
    ]
    return keys, chunks


def model_traces(
    params_list: Sequence[ModelParams],
    steps: int,
    t_final: float | Sequence[float] | None = None,
    *,
    full_grid: bool = False,
) -> list[PropagatorTrace]:
    """Integrate the model for a family of parameter points.

    ``t_final`` may be a scalar, one value per point, or None for each
    point's own rotating-frame period tau.  The dynamical-phase reference
    basis is the t = 0 eigenbasis of each point.  Points that differ only in
    beta share one trace.  The distinct trajectories are integrated in
    chunks of at most CHUNK_POINTS, so the working memory depends on neither
    the number of points nor ``steps``.  Traces are in endpoint form unless
    ``full_grid`` asks for every step.
    """
    keys, chunks = _trajectories(params_list, t_final)
    traces: list[PropagatorTrace | None] = [None] * len(keys)
    for chunk in chunks:
        distinct = {keys[i]: params_list[i] for i in chunk}
        points = list(distinct.values())
        bases = np.stack([eigenbasis_matrix(eigensystem(p, 0.0)) for p in points])
        integrated = integrate_sampled_family(
            partial(hamiltonian, points), [key[3] for key in distinct], steps, bases,
            full_grid=full_grid,
        )
        by_key = dict(zip(distinct, integrated))
        for i in chunk:
            traces[i] = by_key[keys[i]]
    return traces


def model_trace(
    params: ModelParams, steps: int, t_final: float | None = None, *, full_grid: bool = False
) -> PropagatorTrace:
    """Single-point convenience wrapper around :func:`model_traces`."""
    return model_traces([params], steps, t_final, full_grid=full_grid)[0]


def degeneracy(p: ModelParams) -> DegenerateFrame | DegenerateSpectrum | None:
    """The error that leaves ``p`` without phases (no frame period or no eigenbasis), or None."""
    try:
        period_tau(p)
        eigensystem(p, 0.0)
    except (DegenerateFrame, DegenerateSpectrum) as exc:
        return exc
    return None


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
    u_final = np.stack([tr.U[-1] for tr in traces])
    delta_final = np.stack([tr.delta[-1] for tr in traces])
    bases = np.stack([tr.basis for tr in traces])
    # The thermal weights and their shifted companion, as thermal_companions builds them.
    thermal = np.array([astuple(thermal_weights(p)) for p in params_list])
    weights = np.stack([thermal, thermal[:, ::-1]], axis=1)
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
    """One sweep output row; phase fields are None when undefined.

    A degenerate point keeps only ``axis_value`` and names its ``error``.
    """

    axis_value: float
    lambda1: float | None = None
    delta1: float | None = None
    diag_arg_re: float | None = None
    diag_arg_im: float | None = None
    diag_phase: float | None = None
    offdiag_arg_re: float | None = None
    offdiag_arg_im: float | None = None
    offdiag_phase: float | None = None
    error: str | None = None


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


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate a sweep; rows come back in axis order.

    A degenerate point gets a row with only its axis value and the error;
    the other points are computed.  If every point is degenerate, the first
    point's error is raised.  Points are evaluated one chunk of trajectories
    at a time, so only the rows outlive a chunk.
    """
    values = spec.grid()
    params = [spec.params_at(v) for v in values]
    errors = [degeneracy(p) for p in params]
    if all(errors):
        raise errors[0]
    rows = [
        SweepRow(axis_value=float(v), error=f"{type(e).__name__}: {e}") if e else None
        for v, e in zip(values, errors)
    ]
    good = [i for i, e in enumerate(errors) if e is None]
    for chunk in _trajectories([params[i] for i in good], spec.t_final)[1]:
        members = [good[j] for j in chunk]
        points = phase_points([params[i] for i in members], spec.steps, spec.t_final)
        for i, point in zip(members, points):
            rows[i] = _row_from_point(values[i], point)
    return rows
