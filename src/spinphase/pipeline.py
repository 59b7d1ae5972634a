"""End-to-end evaluation of thermal-state geometric phases for the spin model.

Single parameter points and parameter families share one code path: a family
is carried in its array form (:class:`PointFamily`) from the sweep to the
engine kernel, integrated in chunks of distinct trajectories, and the phases
of every point are assembled at once by :func:`phase_points` over the frozen
t = 0 eigenbasis; sweeps, ``phases`` and verification all read them there.
A single point is a family of one, built by :func:`model_trace` and
:func:`phase_point`.  No operation mixes points, so a point's values do not
depend on the family it is evaluated in, and each point's outcome is one
value: its trace or phases, or the error that leaves it without them.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from .engine import (
    BLOCK_MEMBERS,
    PropagatorTrace,
    diagonal_phase_argument,
    integrate_sampled_family,
    offdiagonal_trace,
    parallel_transported,
    shift_ensembles,
)
from .errors import SpinPhaseError, UndefinedPhase, UnitarityLoss
from .linalg import PhaseFactor, phase_functional
from .model import ModelParams, PointFamily, hamiltonian

SWEEP_AXES = ("beta", "omega", "muB", "V")
#: Distinct points integrated together.  Wide enough that per-step
#: interpreter work is amortized, narrow enough that a chunk's working set
#: stays a few MiB at any step count.
CHUNK_POINTS = 512


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _trajectories(
    family: PointFamily, t_final: float | Sequence[float] | None
) -> tuple[np.ndarray, np.ndarray, list[list[list[int]]]]:
    """Each point's final time, whether it is flagged, and the indices by trajectory, in chunks.

    Points with equal (V, muB, omega, final time) differ only in beta, which
    enters the thermal weights, not the evolution: they form one group and
    share one trajectory.  A chunk holds at most CHUNK_POINTS groups.  An
    explicit final time must be positive and finite.  So must omega t, the
    phase H(t) is sampled at, at every point of an explicit time and at each
    unflagged point of period tau.  :func:`model_traces` integrates no
    flagged point.
    """
    flagged = family.spectrum_degenerate | (t_final is None) & family.frame_degenerate
    if t_final is None:
        finals = family.tau
        checked = ~flagged
    else:
        finals = np.broadcast_to(np.asarray(t_final, dtype=float), family.V.shape)
        if not np.all(np.isfinite(finals) & (finals > 0.0)):
            raise ValueError("t_final must be positive and finite")
        checked = True
    with np.errstate(over="ignore", invalid="ignore"):
        overflow = np.flatnonzero(~np.isfinite(family.omega * finals) & checked)
    if overflow.size:
        i = overflow[0]
        raise ValueError(f"omega * t is not finite at omega = {family.omega[i]:.12g}, "
                         f"t = {finals[i]:.12g}")
    keys = zip(family.V.tolist(), family.muB.tolist(), family.omega.tolist(), finals.tolist())
    by_trajectory: dict[tuple, list[int]] = {}
    for i, key in enumerate(keys):
        by_trajectory.setdefault(key, []).append(i)
    groups = list(by_trajectory.values())
    return finals, flagged, [groups[lo : lo + CHUNK_POINTS] for lo in range(0, len(groups), CHUNK_POINTS)]


def _thread_pool(workers: int):
    """A pool of ``workers`` threads to split chunks over, or no pool (None) below 2."""
    if workers < 2:
        return contextlib.nullcontext()
    from concurrent.futures import ThreadPoolExecutor  # only a split pays for the import

    return ThreadPoolExecutor(workers)


def model_traces(
    family: PointFamily,
    steps: int,
    t_final: float | Sequence[float] | None = None,
    *,
    full_grid: bool = False,
) -> list[PropagatorTrace | SpinPhaseError]:
    """Integrate the model for each point of ``family``, or name why it is not.

    ``t_final`` may be a scalar, one value per point, or None for each
    point's own rotating-frame period tau.  The dynamical-phase reference
    basis is the t = 0 eigenbasis of each point.  Points that differ only in
    beta share one trace: the first point of each trajectory group is
    integrated and its trace handed to the rest.  The distinct trajectories
    are integrated in chunks of at most CHUNK_POINTS, so the working memory
    depends on neither the number of points nor ``steps``.  A chunk is cut
    into max(1, min(usable CPUs, trajectories // BLOCK_MEMBERS)) contiguous,
    near-equal parts.  Two or more parts are integrated on as many threads:
    the kernel releases the GIL in its array operations, and each part holds
    at least BLOCK_MEMBERS (64) trajectories, so its kernel calls hold at
    most 64 member-steps per trajectory and the parts together no more than
    one thread would.
    One part is integrated on the calling thread, which starts no thread.
    No operation mixes members, so the traces do not depend on the split.
    Traces are in endpoint form unless ``full_grid`` asks for every step.
    The one triage of degenerate points: a point without an eigenbasis, or
    without a period when ``t_final`` is None, gets its
    :meth:`PointFamily.degeneracy` and is not integrated; a point the
    integrator refused, its UnitarityLoss.
    """
    finals, flagged, chunks = _trajectories(family, t_final)
    traces = [family.degeneracy(i) if bad else None for i, bad in enumerate(flagged)]
    # A group shares V, muB and omega, so its first point decides whether it is integrated.
    chunks = [[group for group in groups if not flagged[group[0]]] for groups in chunks]
    cpus = _usable_cpus()
    counts = [max(1, min(cpus, len(groups) // BLOCK_MEMBERS)) for groups in chunks]
    with _thread_pool(max(counts, default=0)) as pool:
        for groups, count in zip(chunks, counts):
            if not groups:
                continue
            firsts = [group[0] for group in groups]
            points, t = family[firsts], finals[firsts]
            bases = points.eigenbasis()

            def integrate(part: slice) -> list[PropagatorTrace | UnitarityLoss]:
                return integrate_sampled_family(
                    partial(hamiltonian, points[part]), t[part], steps, bases[part],
                    full_grid=full_grid,
                )

            bounds = [len(firsts) * k // count for k in range(count + 1)]
            parts = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
            integrated = (pool.map if count > 1 else map)(integrate, parts)
            for group, trace in zip(groups, (trace for part in integrated for trace in part)):
                for i in group:
                    traces[i] = trace
    return traces


def model_trace(
    params: ModelParams, steps: int, t_final: float | None = None, *, full_grid: bool = False
) -> PropagatorTrace:
    """Single-point wrapper around :func:`model_traces` that raises the point's error."""
    (trace,) = model_traces(PointFamily.of([params]), steps, t_final, full_grid=full_grid)
    if isinstance(trace, SpinPhaseError):
        raise trace
    return trace


@dataclass(frozen=True)
class PhasePoint:
    """All phase quantities of one parameter point at one final time.

    The point itself is not kept: the caller holds it.  ``diag``/``offdiag``
    are None when the corresponding interference amplitude vanished
    (undefined phase); the raw arguments are always recorded.  ``trace`` is
    the endpoint trace the phases were assembled from and ``u_par`` its
    parallel-transported U_par(T); neither takes part in equality or repr.
    """

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
    trace: PropagatorTrace = field(compare=False, repr=False)
    u_par: np.ndarray = field(compare=False, repr=False)

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
    family: PointFamily,
    steps: int = 8192,
    t_final: float | None = None,
) -> list[PhasePoint | SpinPhaseError]:
    """Evaluate the diagonal and off-diagonal phases for each point of ``family``.

    The one phase assembly: for the traces of all points at once it computes
    U_par(T), the diagonal amplitude of each point's thermal state and the
    off-diagonal trace of the thermal state with its weight-shifted
    companion, whose weights are the reversed pair.  A point without a trace
    from :func:`model_traces`, or without the period a PhasePoint reports,
    comes back as its error in place of a PhasePoint.
    """
    outcomes = model_traces(family, steps, t_final)
    for i in np.flatnonzero(family.frame_degenerate):
        outcomes[i] = family.degeneracy(i)
    accepted = [i for i, trace in enumerate(outcomes) if isinstance(trace, PropagatorTrace)]
    if not accepted:
        return outcomes
    traces = [outcomes[i] for i in accepted]
    weights = family.weights[accepted]
    u_final = np.stack([tr.U[-1] for tr in traces])
    delta_final = np.stack([tr.delta[-1] for tr in traces])
    bases = np.stack([tr.basis for tr in traces])
    u_par = parallel_transported(u_final, delta_final, bases)
    diag_raw = diagonal_phase_argument(u_final, delta_final, bases, weights)
    offdiag_raw = offdiagonal_trace(u_par, bases[:, np.newaxis], shift_ensembles(weights))
    for i, trace, u, tau, omega_eff, (lam1, lam2), d, o in zip(
        accepted, traces, u_par, family.tau[accepted].tolist(),
        family.omega_eff[accepted].tolist(), weights.tolist(), diag_raw.tolist(),
        offdiag_raw.tolist(),
    ):
        d1, d2 = trace.delta[-1].tolist()
        outcomes[i] = PhasePoint(
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
            trace=trace,
            u_par=u,
        )
    return outcomes


def phase_point(
    params: ModelParams, steps: int = 8192, t_final: float | None = None
) -> PhasePoint:
    """Evaluate one parameter point; see :class:`PhasePoint`.  Raises the point's error."""
    (point,) = phase_points(PointFamily.of([params]), steps, t_final)
    if isinstance(point, SpinPhaseError):
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
        if not math.isfinite(float(self.stop) - float(self.start)):
            raise ValueError("stop - start must be finite; it overflows")
        if self.points < 2:
            raise ValueError("points must be >= 2")
        if not np.all(np.diff(self.grid()) > 0.0):
            raise ValueError(f"{self.points} points from {self.start!r} to {self.stop!r} "
                             "do not make a strictly increasing grid")
        self.family()  # rejects the first invalid grid point, as ModelParams would

    def grid(self) -> np.ndarray:
        with np.errstate(over="ignore"):  # linspace overflows inside at a span near the float maximum
            return np.linspace(self.start, self.stop, self.points)

    def family(self) -> PointFamily:
        """The grid's points in array form: the axis column is the grid, the others ``fixed``."""
        columns = {name: np.full(self.points, float(v)) for name, v in vars(self.fixed).items()}
        columns[self.axis] = self.grid()
        return PointFamily(**columns)


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

    A point that :func:`phase_points` gives an error gets a row with only its
    axis value and the error.  If every point has one, the refusal naming the
    most steps is raised (the first if none names a count), or, with no
    refusal, the first point's error.  Points are evaluated one chunk of
    trajectories at a time, so only the rows and errors outlive a chunk.
    """
    family = spec.family()
    values = getattr(family, spec.axis)
    rows: list[SweepRow | None] = [None] * len(values)
    errors: dict[int, SpinPhaseError] = {}
    for groups in _trajectories(family, spec.t_final)[2]:
        members = [i for group in groups for i in group]
        for i, point in zip(members, phase_points(family[members], spec.steps, spec.t_final)):
            rows[i] = _row_from_point(values[i], point)
            if isinstance(point, SpinPhaseError):
                errors[i] = point
    if len(errors) == len(rows):
        refusals = [error for error in errors.values() if isinstance(error, UnitarityLoss)]
        raise max(refusals, key=lambda refusal: refusal.steps_needed or 0.0) if refusals else errors[0]
    return rows
