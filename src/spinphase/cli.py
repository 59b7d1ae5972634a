"""Command-line front end.

Subcommands: ``phases`` (single-point report), ``sweep`` (one-axis parameter
sweep to CSV or JSON), ``verify`` (closed-form verification ledger), and
``propagate`` (propagator comparison dump).

Exit codes are a stable contract: 0 success, 2 usage error, 3 degenerate
frame or spectrum, 4 undefined phase, 5 inconsistent verification, 6 the
integration lost unitarity (too few steps for the final time).  Number
formatting is locale independent; sweep output uses 17 significant digits
with a lowercase exponent so repeated runs are byte identical.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import (
    DegenerateFrame,
    DegenerateSpectrum,
    InconsistentClassification,
    UndefinedPhase,
    UnitarityLoss,
)
from .model import Convention, ModelParams, closed_form_propagator, period_tau
from .pipeline import SWEEP_AXES, SweepSpec, model_trace, phase_point, run_sweep
from .verify import (
    random_generic_params,
    report_table,
    report_to_dict,
    verify_grid,
    verify_point,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_UNDEFINED_PHASE = 4
EXIT_INCONSISTENT = 5
EXIT_UNITARITY_LOSS = 6

SWEEP_CSV_HEADER = (
    "axis,axis_value,lambda1,delta1,diag_arg_re,diag_arg_im,diag_phase,"
    "offdiag_arg_re,offdiag_arg_im,offdiag_phase"
)


#: Sweep row fields in output order, after the leading ``axis`` column.
SWEEP_COLUMNS = tuple(SWEEP_CSV_HEADER.split(",")[1:])


def _fnum(x: float | None) -> str:
    """Deterministic float formatting: 17 significant digits, lowercase e; None is empty."""
    return "" if x is None else format(float(x), ".17g")


def sweep_csv_lines(axis: str, rows) -> list[str]:
    """Header plus one CSV line per sweep row, byte-stable across runs."""
    lines = [SWEEP_CSV_HEADER]
    for r in rows:
        lines.append(",".join((axis, *(_fnum(getattr(r, c)) for c in SWEEP_COLUMNS))))
    return lines


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--V", type=float, default=1.0, help="longitudinal splitting")
    parser.add_argument("--mu", type=float, help="magnetic moment (use with --B)")
    parser.add_argument("--B", type=float, help="field strength (use with --mu)")
    parser.add_argument(
        "--mu-B",
        dest="mu_B",
        type=float,
        help="transverse coupling mu*B (exclusive with --mu/--B); default 0.5",
    )
    parser.add_argument("--omega", type=float, default=0.6, help="field rotation frequency")
    parser.add_argument("--beta", type=float, default=1.0, help="inverse temperature")
    parser.add_argument("--steps", type=int, default=8192, help="integrator steps")


def _params_from(args: argparse.Namespace, parser: argparse.ArgumentParser) -> ModelParams:
    if args.mu_B is not None and (args.mu is not None or args.B is not None):
        parser.error("--mu-B is exclusive with --mu/--B")
    if (args.mu is None) != (args.B is None):
        parser.error("--mu and --B must be given together")
    if args.mu is not None:
        muB = args.mu * args.B
    elif args.mu_B is not None:
        muB = args.mu_B
    else:
        muB = 0.5
    try:
        return ModelParams(V=args.V, muB=muB, omega=args.omega, beta=args.beta)
    except ValueError as exc:
        parser.error(str(exc))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinphase",
        description="Mixed-state geometric phases of a spin in a rotating field.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_phases = sub.add_parser("phases", help="single-point phase report")
    _add_param_flags(p_phases)
    p_phases.add_argument("--t", type=float, help="final time (default: tau)")
    p_phases.add_argument("--format", choices=("table", "json"), default="table")

    p_sweep = sub.add_parser("sweep", help="one-axis parameter sweep")
    _add_param_flags(p_sweep)
    p_sweep.add_argument("--axis", choices=SWEEP_AXES, required=True)
    p_sweep.add_argument("--start", type=float, required=True)
    p_sweep.add_argument("--stop", type=float, required=True)
    p_sweep.add_argument("--points", type=int, required=True)
    p_sweep.add_argument("--t", type=float, help="final time (default: tau per point)")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--jobs", type=int, default=1, help="accepted, no effect (>= 1)")

    p_verify = sub.add_parser("verify", help="closed-form verification ledger")
    _add_param_flags(p_verify)
    p_verify.add_argument("--grid", type=int, help="verify N seeded random generic points")
    p_verify.add_argument("--seed", type=int, default=0, help="grid seed")
    p_verify.add_argument("--format", choices=("table", "json"), default="table")

    p_prop = sub.add_parser("propagate", help="propagator comparison at one time")
    _add_param_flags(p_prop)
    p_prop.add_argument("--t", type=float, help="evaluation time (default: tau)")

    return parser


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}i"


def _cmd_phases(args, parser) -> int:
    params = _params_from(args, parser)
    point = phase_point(params, steps=args.steps, t_final=args.t)
    if point.undefined:
        names = " and ".join(point.undefined)
        raise UndefinedPhase(f"{names} interference visibility vanished")
    if args.format == "json":
        doc = {
            "params": {"V": params.V, "muB": params.muB, "omega": params.omega, "beta": params.beta},
            "steps": args.steps,
            "t_final": point.t_final,
            "tau": point.tau,
            "Omega": point.omega_eff,
            "lambda1": point.lambda1,
            "lambda2": point.lambda2,
            "delta1": point.delta1,
            "delta2": point.delta2,
            "diag": {
                "raw": [point.diag_raw.real, point.diag_raw.imag],
                "factor": [point.diag.unit.real, point.diag.unit.imag],
                "arg": point.diag.arg,
            },
            "offdiag": {
                "raw": [point.offdiag_raw.real, point.offdiag_raw.imag],
                "factor": [point.offdiag.unit.real, point.offdiag.unit.imag],
                "arg": point.offdiag.arg,
            },
        }
        print(json.dumps(doc))
        return EXIT_OK
    t_label = "(tau)" if args.t is None else "(explicit)"
    lines = [
        f"V        = {params.V:.12g}",
        f"muB      = {params.muB:.12g}",
        f"omega    = {params.omega:.12g}",
        f"beta     = {params.beta:.12g}",
        f"steps    = {args.steps}",
        f"t_final  = {point.t_final:.12g} {t_label}",
        f"tau      = {point.tau:.12g}",
        f"Omega    = {point.omega_eff:.12g}",
        f"lambda1  = {point.lambda1:.12g}",
        f"lambda2  = {point.lambda2:.12g}",
        f"delta1   = {point.delta1:.12g}",
        f"delta2   = {point.delta2:.12g}",
        f"diagonal phase:     arg = {point.diag.arg:.12g}  factor = {_fmt_complex(point.diag.unit)}"
        f"  raw = {_fmt_complex(point.diag_raw)}",
        f"off-diagonal phase: arg = {point.offdiag.arg:.12g}  factor = {_fmt_complex(point.offdiag.unit)}"
        f"  raw = {_fmt_complex(point.offdiag_raw)}",
    ]
    print("\n".join(lines))
    return EXIT_OK


def _cmd_sweep(args, parser) -> int:
    params = _params_from(args, parser)
    try:
        spec = SweepSpec(
            axis=args.axis,
            start=args.start,
            stop=args.stop,
            points=args.points,
            fixed=params,
            steps=args.steps,
            t_final=args.t,
        )
    except ValueError as exc:
        parser.error(str(exc))
    if args.jobs < 1:
        raise ValueError("jobs must be >= 1")
    rows = run_sweep(spec)
    for row in rows:
        if row.diag_phase is None or row.offdiag_phase is None:
            print(
                f"warning: undefined phase at {args.axis} = {row.axis_value:.12g}; "
                "phase fields left empty",
                file=sys.stderr,
            )
    if args.format == "json":
        rows_doc = [{c: getattr(r, c) for c in SWEEP_COLUMNS} for r in rows]
        doc = {"axis": args.axis, "rows": rows_doc}
        print(json.dumps(doc))
        return EXIT_OK
    print("\n".join(sweep_csv_lines(args.axis, rows)))
    return EXIT_OK


def _cmd_verify(args, parser) -> int:
    params = _params_from(args, parser)
    if args.grid is not None:
        if args.grid < 1:
            parser.error("--grid must be >= 1")
        grid = random_generic_params(args.grid, seed=args.seed)
        reports = verify_grid(grid, steps=args.steps)
    else:
        reports = [verify_point(params, steps=args.steps)]
    if args.format == "json":
        if len(reports) == 1:
            print(json.dumps(report_to_dict(reports[0])))
        else:
            print(json.dumps({"reports": [report_to_dict(r) for r in reports]}))
        return EXIT_OK
    blocks = []
    for report in reports:
        head = (
            f"# V={report.params.V:.12g} muB={report.params.muB:.12g} "
            f"omega={report.params.omega:.12g} beta={report.params.beta:.12g}"
        )
        blocks.append(head + "\n" + report_table(report))
    print("\n\n".join(blocks))
    return EXIT_OK


def _matrix_lines(name: str, m) -> list[str]:
    return [
        f"{name}:",
        f"  [{_fmt_complex(m[0, 0])}  {_fmt_complex(m[0, 1])}]",
        f"  [{_fmt_complex(m[1, 0])}  {_fmt_complex(m[1, 1])}]",
    ]


def _cmd_propagate(args, parser) -> int:
    params = _params_from(args, parser)
    t = args.t if args.t is not None else period_tau(params)
    if t < 0:
        parser.error("--t must be >= 0")
    if t == 0.0:
        numeric = np.eye(2, dtype=complex)
    else:
        numeric = model_trace(params, steps=args.steps, t_final=t).U[-1]
    ode = closed_form_propagator(params, t, Convention.ODE)
    literal = closed_form_propagator(params, t, Convention.LITERAL)
    lines = [f"t = {t:.12g}", f"steps = {args.steps}"]
    lines += _matrix_lines("numeric U(t)", numeric)
    lines += _matrix_lines("closed form, ode ordering", ode)
    lines += _matrix_lines("closed form, literal ordering", literal)
    lines += [
        f"|numeric - ode|_F     = {np.linalg.norm(numeric - ode):.6e}",
        f"|numeric - literal|_F = {np.linalg.norm(numeric - literal):.6e}",
        f"|ode - literal|_F     = {np.linalg.norm(ode - literal):.6e}",
    ]
    print("\n".join(lines))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "phases": _cmd_phases,
        "sweep": _cmd_sweep,
        "verify": _cmd_verify,
        "propagate": _cmd_propagate,
    }
    try:
        return handlers[args.command](args, parser)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DegenerateFrame, DegenerateSpectrum) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except UndefinedPhase as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED_PHASE
    except InconsistentClassification as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except UnitarityLoss as exc:
        print(f"error: {exc}; increase --steps", file=sys.stderr)
        return EXIT_UNITARITY_LOSS


if __name__ == "__main__":
    sys.exit(main())
