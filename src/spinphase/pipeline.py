"""End-to-end evaluation of thermal-state geometric phases for the spin model.

A family of points is carried in its array form (:class:`PointFamily`) from
the sweep to the engine kernel.  :func:`phase_points` cuts it into chunks of
distinct trajectories and assembles the phase amplitudes of every point over
the frozen t = 0 eigenbasis into one :class:`PhaseTable` of columns, which
sweeps, ``phases`` and verification all read; a single point is a family of
one.  No operation mixes points, so a point's values do not depend on the
family it is evaluated in, and each point's outcome is one value: its trace
or its table row, or the error that leaves it without them.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .engine import (
    PropagatorTrace,
    diagonal_phase_argument,
    integrate_sampled_family,
    offdiagonal_trace,
    parallel_transported,
    shift_ensembles,
)
from .errors import SpinPhaseError, UnitarityLoss
from .model import ModelParams, PointFamily, hamiltonian

SWEEP_AXES = ("beta", "omega", "muB", "V")
#: Distinct trajectories in flight at once, over all threads.  Wide enough that
#: per-step interpreter work is amortized, narrow enough that the working set
#: stays a few MiB at any step count.
CHUNK_POINTS = 512
#: Fewest trajectories a worker thread is given: threads over narrower parts
#: of a chunk cost more than they save.
THREAD_TRAJECTORIES = 64
#: Integrator steps of a run that names no count.
DEFAULT_STEPS = 8192


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _plan(
    family: PointFamily, t_final: float | Sequence[float] | None, flagged: np.ndarray
) -> tuple[np.ndarray, list[SpinPhaseError | None], list[list[int]]]:
    """Each point's final time and error, and the indices of each trajectory to integrate.

    A ``flagged`` point gets its :meth:`PointFamily.degeneracy`, any other
    None.  Unflagged points with equal (V, muB, omega, final time) differ
    only in beta, which enters the thermal weights, not the evolution: they
    form one group, in order of first appearance, and share one trajectory.
    ``t_final`` None is each point's period tau; an explicit final time must
    be positive and finite.  So must omega t, the phase H(t) is sampled at,
    at every point of an explicit time and at each unflagged point of tau.
    """
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
    errors = [family.degeneracy(i) if bad else None for i, bad in enumerate(flagged.tolist())]
    keys = np.stack([family.V, family.muB, family.omega, finals], axis=1).tolist()
    by_trajectory: dict[tuple, list[int]] = {}
    for i in np.flatnonzero(~flagged).tolist():
        by_trajectory.setdefault(tuple(keys[i]), []).append(i)
    return finals, errors, list(by_trajectory.values())


def model_traces(
    family: PointFamily,
    steps: int,
    t_final: float | Sequence[float] | None = None,
) -> list[PropagatorTrace | SpinPhaseError]:
    """Integrate the model for each point of ``family``, or name why it is not.

    ``t_final`` may be a scalar, one value per point, or None for each
    point's own rotating-frame period tau.  The dynamical-phase reference
    basis is the t = 0 eigenbasis of each point.  The first point of each
    trajectory group is integrated, all in one kernel call (:func:`phase_points`
    bounds its width), and its trace handed to the rest.  The call is made
    with no member too, so the kernel checks ``steps`` for every run.  Traces
    are in endpoint form: a trace of every step is an option of the kernel
    alone.  A point without an eigenbasis, or without a period when
    ``t_final`` is None, gets its :meth:`PointFamily.degeneracy`; a point
    the integrator refused, its UnitarityLoss.
    """
    flagged = family.spectrum_degenerate | (t_final is None) & family.frame_degenerate
    finals, traces, groups = _plan(family, t_final, flagged)
    firsts = [group[0] for group in groups]
    points = family[firsts]
    integrated = integrate_sampled_family(partial(hamiltonian, points), finals[firsts], steps, points.eigenbasis())
    for group, trace in zip(groups, integrated):
        for i in group:
            traces[i] = trace
    return traces


def model_trace(params: ModelParams, steps: int, t_final: float | None = None) -> PropagatorTrace:
    """Single-point wrapper around :func:`model_traces`: the endpoint trace, or the point's error raised."""
    (trace,) = model_traces(PointFamily.of([params]), steps, t_final)
    if isinstance(trace, SpinPhaseError):
        raise trace
    return trace


@dataclass(frozen=True)
class PhaseTable:
    """The phase quantities of a family's points: one numpy column each, one row per point.

    Rows are in family order.  ``errors`` holds each point's SpinPhaseError,
    None where it has phases; an error row holds NaN in every other column.
    ``t_final`` and ``delta`` (B, 2) are each trace's final time and delta(T);
    ``u_final``, ``u_par`` and ``basis`` (B, 2, 2) are U(T), U_par(T) and the
    frozen t = 0 eigenbasis; ``diag_raw`` and ``offdiag_raw`` are the
    interference amplitudes of the two phases.  ``tau``, ``omega_eff`` and
    ``weights`` (lambda1, lambda2) are the family's.  Whether an amplitude has
    a phase is for the writer to ask :func:`~spinphase.linalg.phase_functional`.
    """

    errors: np.ndarray
    t_final: np.ndarray
    tau: np.ndarray
    omega_eff: np.ndarray
    weights: np.ndarray
    delta: np.ndarray
    diag_raw: np.ndarray
    offdiag_raw: np.ndarray
    u_final: np.ndarray
    u_par: np.ndarray
    basis: np.ndarray

    @classmethod
    def unfilled(cls, n: int) -> PhaseTable:
        """``n`` rows without an error, every value NaN."""
        def nan(*shape, dtype=float):
            return np.full((n, *shape), np.nan, dtype)

        return cls(
            errors=np.full(n, None), t_final=nan(), tau=nan(), omega_eff=nan(),
            weights=nan(2), delta=nan(2), diag_raw=nan(dtype=complex),
            offdiag_raw=nan(dtype=complex), u_final=nan(2, 2, dtype=complex),
            u_par=nan(2, 2, dtype=complex), basis=nan(2, 2, dtype=complex),
        )

    def fill(self, rows, **columns) -> None:
        """Write each named column's values into ``rows``."""
        for name, values in columns.items():
            getattr(self, name)[rows] = values


def phase_points(family: PointFamily, steps: int = DEFAULT_STEPS, t_final: float | None = None) -> PhaseTable:
    """Evaluate the diagonal and off-diagonal phase amplitudes of every point of ``family``.

    The one phase assembly, and the one place a family is cut up.  A point
    without an eigenbasis, or without the period tau the table reports, gets
    its :meth:`PointFamily.degeneracy` and is never integrated.  The final
    times are fixed here, once, and handed to each chunk's :func:`model_traces`.
    The other trajectories are cut into contiguous, near-equal chunks of at
    most CHUNK_POINTS // workers, where workers = max(1, min(usable CPUs,
    CHUNK_POINTS // THREAD_TRAJECTORIES, trajectories // THREAD_TRAJECTORIES)) threads
    run them (the kernel releases the GIL); one worker is the calling thread.
    With no trajectory left, one empty chunk still has the kernel check
    ``steps``.  For the traces of a chunk at once, the assembly computes
    U_par(T), the diagonal amplitude of each thermal state and the
    off-diagonal trace of the thermal state with its weight-shifted companion
    (reversed weights); a refused point gets its UnitarityLoss.  No
    operation mixes points, so the table does not depend on the cut.  No
    chunk after one that raises starts, so the error is the serial run's.
    """
    flagged = family.spectrum_degenerate | family.frame_degenerate  # the table reports tau
    finals, errors, groups = _plan(family, t_final, flagged)
    table = PhaseTable.unfilled(len(family.V))
    table.errors[:] = errors
    n = len(groups)
    workers = max(1, min(_usable_cpus(), CHUNK_POINTS // THREAD_TRAJECTORIES, n // THREAD_TRAJECTORIES))
    count = max(workers, -(-n // (CHUNK_POINTS // workers)))
    bounds = [n * k // count for k in range(count + 1)]
    failed: list[int] = []  # the chunks that raised

    def assemble(k: int) -> None:
        if any(j < k for j in failed):
            return  # an earlier chunk's error ends the run
        try:
            rows = np.array([i for group in groups[bounds[k] : bounds[k + 1]] for i in group], dtype=int)
            outcomes = model_traces(family[rows], steps, finals[rows])
        except Exception:
            failed.append(k)
            raise
        traced = np.array([isinstance(trace, PropagatorTrace) for trace in outcomes], dtype=bool)
        table.fill(rows[~traced], errors=[error for error, ok in zip(outcomes, traced) if not ok])
        traces = [trace for trace, ok in zip(outcomes, traced) if ok]
        if not traces:
            return
        rows = rows[traced]
        weights = family.weights[rows]
        u_final = np.stack([tr.U[-1] for tr in traces])
        delta = np.stack([tr.delta[-1] for tr in traces])
        basis = np.stack([tr.basis for tr in traces])
        u_par = parallel_transported(u_final, delta, basis)
        table.fill(
            rows, t_final=[tr.grid[-1] for tr in traces], tau=family.tau[rows],
            omega_eff=family.omega_eff[rows], weights=weights, delta=delta,
            diag_raw=diagonal_phase_argument(u_final, delta, basis, weights),
            offdiag_raw=offdiagonal_trace(u_par, basis, shift_ensembles(weights)),
            u_final=u_final, u_par=u_par, basis=basis,
        )

    if workers == 1:
        list(map(assemble, range(count)))
    else:
        from concurrent.futures import ThreadPoolExecutor  # only a split pays for the import

        with ThreadPoolExecutor(workers) as pool:  # map raises in chunk order, as serially
            list(pool.map(assemble, range(count)))
    return table


def phase_point(params: ModelParams, steps: int = DEFAULT_STEPS, t_final: float | None = None) -> PhaseTable:
    """Evaluate one parameter point as a one-row :class:`PhaseTable`.  Raises the point's error."""
    table = phase_points(PointFamily.of([params]), steps, t_final)
    if table.errors[0] is not None:
        raise table.errors[0]
    return table


@dataclass(frozen=True)
class SweepSpec:
    """One-axis parameter sweep over a strictly increasing grid."""

    axis: str
    start: float
    stop: float
    points: int
    fixed: ModelParams
    steps: int = DEFAULT_STEPS
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
        try:
            grid = self.grid()
        except MemoryError:  # numpy's, when the count alone asks for more than can be allocated
            raise ValueError(f"{self.points} points make a grid too large to allocate") from None
        if not np.all(np.diff(grid) > 0.0):
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


def run_sweep(spec: SweepSpec) -> PhaseTable:
    """Evaluate a sweep with :func:`phase_points`; the table's rows are in axis order.

    A point that :func:`phase_points` gives an error keeps it in its row.  If
    every point has one, the refusal naming the most steps is raised (the
    first if none names a count), or, with no refusal, the first point's
    error.
    """
    table = phase_points(spec.family(), spec.steps, spec.t_final)
    if all(error is not None for error in table.errors):
        refusals = [error for error in table.errors if isinstance(error, UnitarityLoss)]
        raise max(refusals, key=lambda refusal: refusal.steps_needed or 0.0) if refusals else table.errors[0]
    return table
