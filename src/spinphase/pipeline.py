"""End-to-end evaluation of thermal-state geometric phases for the spin model.

Single parameter points and parameter families share one code path: a family
is taken into its array form (:class:`PointFamily`), integrated by the engine
kernel in chunks of distinct trajectories, and the phases of every point are
assembled at once by :func:`thermal_phases` over the frozen t = 0 eigenbasis;
verification assembles its oracle values there too.  No operation mixes
points, so a point's values do not depend on the family it is evaluated in,
and a degenerate or refused point is reported per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .engine import (
    PropagatorTrace,
    cyclic_trace,
    diagonal_amplitude,
    integrate_sampled_family,
    transported_propagator,
)
from .errors import SpinPhaseError, UndefinedPhase, UnitarityLoss
from .linalg import PhaseFactor, phase_functional
from .model import ModelParams, PointFamily, hamiltonian

SWEEP_AXES = ("beta", "omega", "muB", "V")
#: Distinct points integrated together.  Wide enough that per-step
#: interpreter work is amortized, narrow enough that a chunk's working set
#: stays a few MiB at any step count.
CHUNK_POINTS = 512


def _trajectories(
    family: PointFamily, t_final: float | Sequence[float] | None
) -> tuple[list[tuple], list[list[int]]]:
    """Trajectory key (V, muB, omega, T) of each point, and the point indices in chunks.

    Points with equal keys differ only in beta, which enters the thermal
    weights, not the evolution: they share one trajectory and one chunk.  A
    chunk spans at most CHUNK_POINTS distinct trajectories.
    """
    if t_final is None:
        family.require(spectrum=False)
        finals = family.tau
    else:
        finals = np.broadcast_to(np.asarray(t_final, dtype=float), family.V.shape)
        if not np.all(np.isfinite(finals) & (finals > 0.0)):
            raise ValueError("t_final must be positive and finite")
    keys = list(zip(family.V.tolist(), family.muB.tolist(), family.omega.tolist(), finals.tolist()))
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
    ``full_grid`` asks for every step.  A trace the integrator refused
    carries its ``refusal``; the others do not depend on it.
    """
    family = PointFamily.of(params_list)
    keys, chunks = _trajectories(family, t_final)
    traces: list[PropagatorTrace | None] = [None] * len(keys)
    for chunk in chunks:
        first: dict[tuple, int] = {}
        for i in chunk:
            first.setdefault(keys[i], i)
        points = family[list(first.values())]
        points.require(frame=False)
        integrated = integrate_sampled_family(
            partial(hamiltonian, points), [key[3] for key in first], steps, points.eigenbasis(),
            full_grid=full_grid,
        )
        by_key = dict(zip(first, integrated))
        for i in chunk:
            traces[i] = by_key[keys[i]]
    return traces


def model_trace(
    params: ModelParams, steps: int, t_final: float | None = None, *, full_grid: bool = False
) -> PropagatorTrace:
    """Single-point wrapper around :func:`model_traces` that raises the point's refusal."""
    trace = model_traces([params], steps, t_final, full_grid=full_grid)[0]
    if trace.refusal is not None:
        raise trace.refusal
    return trace


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


def thermal_phases(
    traces: Sequence[PropagatorTrace], weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """U_par(T), the diagonal amplitude and the off-diagonal trace of each trace's thermal state.

    ``weights`` (B, 2) are the thermal weights over each trace's reference
    basis.  The off-diagonal trace pairs the thermal state with its
    weight-shifted companion, whose weights are the reversed pair.
    """
    u_final = np.stack([tr.U[-1] for tr in traces])
    delta_final = np.stack([tr.delta[-1] for tr in traces])
    bases = np.stack([tr.basis for tr in traces])
    u_par = transported_propagator(u_final, delta_final, bases)
    diag_raw = diagonal_amplitude(u_final, delta_final, bases, weights)
    companions = np.stack([weights, weights[:, ::-1]], axis=1)
    offdiag_raw = cyclic_trace(u_par, bases[:, np.newaxis], companions)
    return u_par, diag_raw, offdiag_raw


def _phase_or_none(raw: complex) -> PhaseFactor | None:
    try:
        return phase_functional(raw)
    except UndefinedPhase:
        return None


def phase_points(
    params_list: Sequence[ModelParams],
    steps: int = 8192,
    t_final: float | None = None,
) -> list[PhasePoint | UnitarityLoss]:
    """Evaluate the diagonal and off-diagonal phases for a parameter family.

    A point the integrator refused comes back as its :class:`UnitarityLoss`
    in place of a :class:`PhasePoint`.
    """
    traces = model_traces(params_list, steps, t_final)
    family = PointFamily.of(params_list)
    family.require(spectrum=False)
    _, diag_raw, offdiag_raw = thermal_phases(traces, family.weights)
    return [
        trace.refusal
        or PhasePoint(
            params=p,
            t_final=trace.t_final,
            tau=tau,
            omega_eff=omega_eff,
            lambda1=lam1,
            lambda2=lam2,
            delta1=d1,
            delta2=d2,
            diag_raw=d,
            offdiag_raw=o,
            diag=_phase_or_none(d),
            offdiag=_phase_or_none(o),
        )
        for p, trace, tau, omega_eff, (lam1, lam2), (d1, d2), d, o in zip(
            params_list, traces, family.tau.tolist(), family.omega_eff.tolist(),
            family.weights.tolist(), (tr.delta[-1].tolist() for tr in traces),
            diag_raw.tolist(), offdiag_raw.tolist(),
        )
    ]


def phase_point(
    params: ModelParams, steps: int = 8192, t_final: float | None = None
) -> PhasePoint:
    """Evaluate one parameter point; see :class:`PhasePoint`.  Raises its refusal."""
    point = phase_points([params], steps, t_final)[0]
    if isinstance(point, UnitarityLoss):
        raise point
    return point


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
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError("start and stop must be finite")
        if not self.start < self.stop:
            raise ValueError("start must be < stop")
        if self.points < 2:
            raise ValueError("points must be >= 2")

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)

    def family(self) -> PointFamily:
        """The grid's points in array form."""
        columns = {name: np.full(self.points, float(v)) for name, v in vars(self.fixed).items()}
        columns[self.axis] = self.grid()
        return PointFamily(**columns)

    def params_at(self, value: float) -> ModelParams:
        return ModelParams(**{**vars(self.fixed), self.axis: float(value)})


@dataclass(frozen=True)
class SweepRow:
    """One sweep output row; phase fields are None when undefined.

    A degenerate or refused point keeps only ``axis_value`` and names its
    ``error``.
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


def _row_from_point(value: float, point: PhasePoint | SpinPhaseError) -> SweepRow:
    if not isinstance(point, PhasePoint):
        return SweepRow(axis_value=float(value), error=f"{type(point).__name__}: {point}")
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

    A degenerate point, or one the integrator refused, gets a row with only
    its axis value and the error; the other points are computed.  If every
    point is degenerate, the first point's error is raised; if every other
    point is refused, the refusal naming the most steps is (the first if
    none names a count).  Points are evaluated one chunk of trajectories at
    a time, so only the rows outlive a chunk.
    """
    values = spec.grid()
    family = spec.family()
    degenerate = family.frame_degenerate | family.spectrum_degenerate
    rows: list[SweepRow | None] = [None] * len(values)
    for i in np.flatnonzero(degenerate):
        rows[i] = _row_from_point(values[i], family.degeneracy(i))
    if all(rows):
        raise family.degeneracy(0)
    good = np.flatnonzero(~degenerate)
    refusals = []
    for chunk in _trajectories(family[good], spec.t_final)[1]:
        members = good[chunk]
        params = [spec.params_at(v) for v in values[members]]
        points = phase_points(params, spec.steps, spec.t_final)
        refusals += [point for point in points if isinstance(point, UnitarityLoss)]
        for i, point in zip(members, points):
            rows[i] = _row_from_point(values[i], point)
    if len(refusals) == len(good):
        raise max(refusals, key=lambda refusal: refusal.steps_needed or 0.0)
    return rows
