"""End-to-end evaluation of thermal-state geometric phases for the spin model.

Single parameter points and parameter families share one code path: a family
is carried in its array form (:class:`PointFamily`) from the sweep to the
engine kernel, integrated in chunks of distinct trajectories, and the phase
amplitudes of every point are assembled at once by :func:`phase_points`
over the frozen t = 0 eigenbasis into one :class:`PhaseTable` of columns;
sweeps, ``phases`` and verification all read that table.  A single point is
a family of one, built by :func:`model_trace` and :func:`phase_point`.  No
operation mixes points, so a point's values do not depend on the family it
is evaluated in, and each point's outcome is one value: its trace or its
table row, or the error that leaves it without them.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass
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
from .errors import SpinPhaseError, UnitarityLoss
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


def phase_points(family: PointFamily, steps: int = 8192, t_final: float | None = None) -> PhaseTable:
    """Evaluate the diagonal and off-diagonal phase amplitudes of every point of ``family``.

    The one phase assembly: for the traces of all points at once it computes
    U_par(T), the diagonal amplitude of each point's thermal state and the
    off-diagonal trace of the thermal state with its weight-shifted
    companion, whose weights are the reversed pair.  A point without a trace
    from :func:`model_traces`, or without the period tau the table reports,
    gets its error in place of its values.
    """
    outcomes = model_traces(family, steps, t_final)
    for i in np.flatnonzero(family.frame_degenerate):
        outcomes[i] = family.degeneracy(i)
    traced = np.array([isinstance(trace, PropagatorTrace) for trace in outcomes], dtype=bool)
    table = PhaseTable.unfilled(len(outcomes))
    table.fill(~traced, errors=[error for error, ok in zip(outcomes, traced) if not ok])
    if not traced.any():
        return table
    traces = [trace for trace, ok in zip(outcomes, traced) if ok]
    weights = family.weights[traced]
    u_final = np.stack([tr.U[-1] for tr in traces])
    delta = np.stack([tr.delta[-1] for tr in traces])
    basis = np.stack([tr.basis for tr in traces])
    u_par = parallel_transported(u_final, delta, basis)
    table.fill(
        traced, t_final=[tr.grid[-1] for tr in traces], tau=family.tau[traced],
        omega_eff=family.omega_eff[traced], weights=weights, delta=delta,
        diag_raw=diagonal_phase_argument(u_final, delta, basis, weights),
        offdiag_raw=offdiagonal_trace(u_par, basis[:, np.newaxis], shift_ensembles(weights)),
        u_final=u_final, u_par=u_par, basis=basis,
    )
    return table


def phase_point(params: ModelParams, steps: int = 8192, t_final: float | None = None) -> PhaseTable:
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


def run_sweep(spec: SweepSpec) -> PhaseTable:
    """Evaluate a sweep; the table's rows are in axis order.

    A point that :func:`phase_points` gives an error keeps it in its row.  If
    every point has one, the refusal naming the most steps is raised (the
    first if none names a count), or, with no refusal, the first point's
    error.  Points are evaluated one chunk of trajectories at a time, and
    each chunk's rows are written into the sweep's table by point index, so
    only the table outlives a chunk.
    """
    family = spec.family()
    table = PhaseTable.unfilled(spec.points)
    for groups in _trajectories(family, spec.t_final)[2]:
        members = [i for group in groups for i in group]
        table.fill(members, **vars(phase_points(family[members], spec.steps, spec.t_final)))
    if all(error is not None for error in table.errors):
        refusals = [error for error in table.errors if isinstance(error, UnitarityLoss)]
        raise max(refusals, key=lambda refusal: refusal.steps_needed or 0.0) if refusals else table.errors[0]
    return table
