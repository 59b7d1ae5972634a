"""Cross-check of the closed-form reference expressions against the oracle.

Every closed-form quantity at t = tau is recomputed definitionally (RK4
propagation, Simpson dynamical phases, the trace formulas of the phase
engine, through the one assembly, :func:`~spinphase.pipeline.phase_points`)
and compared against its reference expression.  Each comparison is
classified; the classification is pure data, never a judgment:

- ``match``          the stated expression agrees with the oracle,
- ``conjugate``      it agrees with the complex conjugate of the oracle,
- ``sign_flip``      it agrees with the negated oracle,
- ``repaired_match`` the documented sin(omega/2) -> sin(omega tau/2) repair
                     agrees with the oracle,
- ``mismatch``       none of the above within tolerance.

The recorded residual is always the literal distance |reference - oracle|,
so ``classification == "match"`` holds exactly when the residual is within
the per-item tolerance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import InconsistentClassification
from .model import (
    Convention,
    ModelParams,
    PointFamily,
    closed_form_propagator,
    reference_closed_forms,
)
from .pipeline import DEFAULT_STEPS, PhaseTable, phase_points

CLASSIFICATIONS = ("match", "conjugate", "sign_flip", "repaired_match", "mismatch")

#: Each verified equation's tolerance, in report order.
TOLERANCES = {
    "U11_Eq15": 1e-6,
    "U12_Eq16": 1e-6,
    "delta1_Eq17": 1e-7,
    "delta2_Eq18": 1e-7,
    "Uparallel_Eq19": 1e-6,
    "offdiag_Eq23": 1e-6,
    "diag_Eq24": 1e-6,
    "propagator_Eq14_literal": 1e-6,
    "propagator_Eq14_ode": 1e-6,
}
EQUATION_IDS = tuple(TOLERANCES)

MIN_VERIFY_STEPS = 1024

#: Sampling range of each parameter for the seeded generic grid, drawn in this order.
GENERIC_RANGES = {"V": (0.3, 2.0), "muB": (0.15, 1.0), "omega": (0.1, 2.0), "beta": (0.2, 3.0)}


@dataclass(frozen=True)
class VerifyItem:
    """One verified equation: reference value, oracle value, classification."""

    equation_id: str
    reference_value: object
    oracle_value: object
    classification: str
    residual: float


@dataclass(frozen=True)
class VerifyReport:
    """Verification of one parameter point; ``error`` marks failed points."""

    params: ModelParams
    items: tuple[VerifyItem, ...]
    summary: dict
    error: str | None = None


def _distance(a, b) -> float:
    return float(np.linalg.norm(np.atleast_1d(np.asarray(a) - np.asarray(b))))


def _classify(reference, oracle, tol: float, repaired=None) -> tuple[str, float]:
    residual = _distance(reference, oracle)
    if residual <= tol:
        return "match", residual
    if _distance(reference, np.conj(oracle)) <= tol:
        return "conjugate", residual
    if _distance(reference, -np.asarray(oracle)) <= tol:
        return "sign_flip", residual
    if repaired is not None and _distance(repaired, oracle) <= tol:
        return "repaired_match", residual
    return "mismatch", residual


def _assemble_report(p: ModelParams, table: PhaseTable, i: int) -> VerifyReport:
    """The report of point ``p``, whose oracle values are row ``i`` of ``table``."""
    basis, u_final = table.basis[i], table.u_final[i]
    delta1, delta2 = table.delta[i].tolist()
    rc = reference_closed_forms(p)

    m_oracle = basis.conj().T @ u_final @ basis
    p_oracle = basis.conj().T @ table.u_par[i] @ basis

    phase1 = np.exp(-1j * rc.delta1)
    phase2 = np.exp(-1j * rc.delta2)
    par_reference = np.array(
        [
            [rc.u11 * phase1, rc.u12_literal * phase2],
            [rc.u21_literal * phase1, rc.u22 * phase2],
        ]
    )
    par_repaired = np.array(
        [[rc.u11 * phase1, rc.u12 * phase2], [rc.u21 * phase1, rc.u22 * phase2]]
    )

    # Equation id -> (reference value, oracle value, documented repair or None).
    compared = {
        "U11_Eq15": (rc.u11, complex(m_oracle[0, 0]), None),
        "U12_Eq16": (rc.u12_literal, complex(m_oracle[0, 1]), rc.u12),
        "delta1_Eq17": (rc.delta1, delta1, None),
        # The stated content of this relation is delta2 = -delta1; it is
        # checked against the oracle's own delta1 so that the item probes
        # the relation, not the value of delta1.
        "delta2_Eq18": (-delta1, delta2, None),
        "Uparallel_Eq19": (par_reference, p_oracle, par_repaired),
        "offdiag_Eq23": (rc.offdiag_arg, table.offdiag_raw[i].item(), None),
        "diag_Eq24": (rc.diag_arg, table.diag_raw[i].item(), None),
        "propagator_Eq14_literal": (closed_form_propagator(p, rc.tau, Convention.LITERAL), u_final, None),
        "propagator_Eq14_ode": (closed_form_propagator(p, rc.tau, Convention.ODE), u_final, None),
    }
    items = tuple(
        VerifyItem(equation_id, reference, oracle, *_classify(reference, oracle, TOLERANCES[equation_id], repaired))
        for equation_id in EQUATION_IDS
        for reference, oracle, repaired in [compared[equation_id]]
    )
    summary = {name: sum(item.classification == name for item in items) for name in CLASSIFICATIONS}
    return VerifyReport(params=p, items=items, summary=summary)


def _verify(params_list: list[ModelParams], steps: int) -> list:
    """Each point's report, or the error :func:`phase_points` gives it."""
    if steps < MIN_VERIFY_STEPS:
        raise ValueError(f"steps must be >= {MIN_VERIFY_STEPS}, got {steps}")
    table = phase_points(PointFamily.of(params_list), steps)
    return [
        _assemble_report(p, table, i) if error is None else error
        for i, (p, error) in enumerate(zip(params_list, table.errors))
    ]


def verify_point(p: ModelParams, steps: int = DEFAULT_STEPS) -> VerifyReport:
    """Verify every reference equation at one parameter point.

    ``steps`` must be at least 1024; the stated tolerances assume it.  Raises
    the point's error: its degeneracy or the integrator's refusal.
    """
    (result,) = _verify([p], steps)
    if not isinstance(result, VerifyReport):
        raise result
    return result


def verify_grid(params_list, steps: int = DEFAULT_STEPS) -> list[VerifyReport]:
    """Independent verification of each grid point, with a consistency gate.

    Degenerate points, and points the integrator refused, produce an
    error-marked report and do not abort the grid.  Classifications of the
    remaining points must agree equation by equation; a flip across generic
    points raises InconsistentClassification.
    """
    if not params_list:
        raise ValueError("grid must be nonempty")
    reports = [
        result if isinstance(result, VerifyReport)
        else VerifyReport(params=p, items=(), summary={}, error=f"{type(result).__name__}: {result}")
        for p, result in zip(params_list, _verify(params_list, steps))
    ]
    _check_consistency([r for r in reports if r.error is None])
    return reports


def _check_consistency(reports: list[VerifyReport]) -> None:
    if len(reports) < 2:
        return
    first = {it.equation_id: it.classification for it in reports[0].items}
    for report in reports[1:]:
        for item in report.items:
            if item.classification != first[item.equation_id]:
                raise InconsistentClassification(
                    f"{item.equation_id}: {item.classification!r} at "
                    f"{report.params} vs {first[item.equation_id]!r} at "
                    f"{reports[0].params}"
                )


def random_generic_params(n: int, seed: int) -> list[ModelParams]:
    """Seeded generic parameter points, clear of all degeneracy edges.

    Each point draws V, muB, omega and beta in that order from Python's
    ``random.Random(seed)``, whose sequence for an int seed is stable across
    Python versions; each draw is ``lo + (hi - lo) * random()`` over its range
    in ``GENERIC_RANGES``.  Drawing with the standard library keeps
    numpy.random unloaded.
    """
    rng = random.Random(seed)
    return [
        ModelParams(**{name: lo + (hi - lo) * rng.random() for name, (lo, hi) in GENERIC_RANGES.items()})
        for _ in range(n)
    ]


def _value_to_jsonable(value):
    """A real as a number, a complex as [re, im], an array as nested lists, by dtype."""
    arr = np.asarray(value)
    if np.iscomplexobj(arr):
        arr = np.stack((arr.real, arr.imag), axis=-1)
    return arr.astype(float).tolist()


def report_to_dict(report: VerifyReport) -> dict:
    """Stable JSON-ready representation of a report."""
    out = {
        "params": dict(vars(report.params)),
        "items": [
            {
                "equation_id": it.equation_id,
                "reference_value": _value_to_jsonable(it.reference_value),
                "oracle_value": _value_to_jsonable(it.oracle_value),
                "classification": it.classification,
                "residual": it.residual,
            }
            for it in report.items
        ],
        "summary": dict(report.summary),
    }
    if report.error is not None:
        out["error"] = report.error
    return out


def _fmt_value(value) -> str:
    arr = np.asarray(value)
    if arr.ndim == 0:
        z = complex(arr)
        if z.imag == 0.0:
            return f"{z.real:.9g}"
        return f"{z.real:.9g}{z.imag:+.9g}i"
    rows = ";".join(
        " ".join(_fmt_value(entry) for entry in row) for row in arr
    )
    return f"[{rows}]"


def report_table(report: VerifyReport) -> str:
    """Line-oriented text table, one row per verified equation."""
    header = (
        f"{'equation_id':<24}{'classification':<16}{'residual':<12}"
        f"{'reference_value':<44}oracle_value"
    )
    lines = [header]
    if report.error is not None:
        lines.append(f"error: {report.error}")
        return "\n".join(lines)
    for it in report.items:
        lines.append(
            f"{it.equation_id:<24}{it.classification:<16}{it.residual:<12.3e}"
            f"{_fmt_value(it.reference_value):<44}{_fmt_value(it.oracle_value)}"
        )
    return "\n".join(lines)
