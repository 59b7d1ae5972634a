"""Command-line front end.

Subcommands: ``phases`` (single-point report), ``sweep`` (one-axis parameter
sweep to CSV or JSON), ``verify`` (closed-form verification ledger), and
``propagate`` (propagator comparison dump).

Exit codes are a stable contract, stated once in ``EXIT_CODES`` (error type
to code): 0 success, 2 usage error, 3 degenerate frame or spectrum, 4
undefined phase, 5 inconsistent verification, 6 the integration lost
unitarity (too few steps for the final time), 7 the output could not be
written, 130 interrupted (SIGINT), 141 the reader closed standard output.
A sweep leaves a degenerate or refused point's row empty and exits 3 or 6
only when no point is left.
Number formatting is locale independent; sweep output uses 17 significant
digits with a lowercase exponent so repeated runs are byte identical.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from .errors import (
    DegenerateFrame,
    DegenerateSpectrum,
    InconsistentClassification,
    UndefinedPhase,
    UnitarityLoss,
)
from .linalg import PhaseFactor, phase_functional
from .model import Convention, ModelParams, PointFamily, closed_form_propagator
from .pipeline import DEFAULT_STEPS, SWEEP_AXES, PhaseTable, SweepSpec, model_trace, model_traces, phase_point, run_sweep
from .verify import (
    random_generic_params,
    report_table,
    report_to_dict,
    verify_grid,
    verify_point,
)

EXIT_OK = 0
#: The exit code of each error a command ends with; a subclass takes its nearest listed base.
EXIT_CODES = {
    ValueError: 2,
    DegenerateFrame: 3,
    DegenerateSpectrum: 3,
    UndefinedPhase: 4,
    InconsistentClassification: 5,
    UnitarityLoss: 6,
    OSError: 7,  # a write to standard output or error failed, e.g. on a full disk
    KeyboardInterrupt: 130,
    BrokenPipeError: 141,  # the code a shell reports for a writer killed by SIGPIPE
}

SWEEP_CSV_HEADER = (
    "axis,axis_value,lambda1,delta1,diag_arg_re,diag_arg_im,diag_phase,"
    "offdiag_arg_re,offdiag_arg_im,offdiag_phase"
)


#: Sweep row fields in output order, after the leading ``axis`` column.
SWEEP_COLUMNS = tuple(SWEEP_CSV_HEADER.split(",")[1:])


def _fnum(x: float | None) -> str:
    """Deterministic float formatting: 17 significant digits, lowercase e; None is empty."""
    return "" if x is None else format(float(x), ".17g")


def _phase_or_none(raw: complex) -> PhaseFactor | None:
    """The phase of an interference amplitude, or None where its visibility vanished."""
    try:
        return phase_functional(raw)
    except UndefinedPhase:
        return None


def sweep_rows(values, table: PhaseTable) -> list[tuple]:
    """One output row per point, its values in ``SWEEP_COLUMNS`` order.

    ``values`` are the points' axis values.  A point with an error keeps
    only its axis value; an undefined phase is None.
    """
    return [
        (value, *(None,) * (len(SWEEP_COLUMNS) - 1)) if error is not None
        else (value, lam1, d1, d.real, d.imag, getattr(_phase_or_none(d), "arg", None),
              o.real, o.imag, getattr(_phase_or_none(o), "arg", None))
        for value, error, (lam1, _), (d1, _), d, o in zip(
            values.tolist(), table.errors, table.weights.tolist(), table.delta.tolist(),
            table.diag_raw.tolist(), table.offdiag_raw.tolist(),
        )
    ]


def sweep_csv_lines(axis: str, rows) -> list[str]:
    """Header plus one CSV line per sweep row, byte-stable across runs."""
    return [SWEEP_CSV_HEADER, *(",".join((axis, *map(_fnum, row))) for row in rows)]


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
    parser.add_argument("--steps", type=int, default=DEFAULT_STEPS, help="integrator steps")


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


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        """Write the help at once, and let a failed write raise: argparse's own drops it."""
        print(self.format_help(), end="", file=file or sys.stdout, flush=True)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spinphase",
        description="Mixed-state geometric phases of a spin in a rotating field.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, handler) -> argparse.ArgumentParser:
        # The handler reports its usage errors through this parser, under its own usage line.
        command_parser = sub.add_parser(name, help=summary)
        _add_param_flags(command_parser)
        command_parser.set_defaults(parser=command_parser, handler=handler)
        return command_parser

    p_phases = command("phases", "single-point phase report", _cmd_phases)
    p_phases.add_argument("--t", type=float, help="final time (default: tau)")
    p_phases.add_argument("--format", choices=("table", "json"), default="table")

    p_sweep = command("sweep", "one-axis parameter sweep", _cmd_sweep)
    p_sweep.add_argument("--axis", choices=SWEEP_AXES, required=True)
    p_sweep.add_argument("--start", type=float, required=True)
    p_sweep.add_argument("--stop", type=float, required=True)
    p_sweep.add_argument("--points", type=int, required=True)
    p_sweep.add_argument("--t", type=float, help="final time (default: tau per point)")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--jobs", type=int, default=1, help="accepted, no effect (>= 1)")

    p_verify = command("verify", "closed-form verification ledger", _cmd_verify)
    p_verify.add_argument("--grid", type=int, help="verify N seeded random generic points")
    p_verify.add_argument("--seed", type=int, default=0, help="grid seed")
    p_verify.add_argument("--format", choices=("table", "json"), default="table")

    p_prop = command("propagate", "propagator comparison at one time", _cmd_propagate)
    p_prop.add_argument("--t", type=float, help="evaluation time (default: tau)")

    return parser


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}i"


def _cmd_phases(args, params) -> int:
    if args.t is not None and not (math.isfinite(args.t) and args.t > 0):
        args.parser.error("--t must be positive and finite")
    table = phase_point(params, steps=args.steps, t_final=args.t)
    phases = {
        "diag": ("diagonal", _phase_or_none(table.diag_raw[0])),
        "offdiag": ("off-diagonal", _phase_or_none(table.offdiag_raw[0])),
    }
    undefined = [name for name, phase in phases.values() if phase is None]
    if undefined:
        raise UndefinedPhase(f"{' and '.join(undefined)} interference visibility vanished")
    (lambda1, lambda2), (delta1, delta2) = table.weights[0].tolist(), table.delta[0].tolist()
    # The report's fields in output order, for the JSON document and the table alike.
    fields = {
        "steps": args.steps,
        "t_final": table.t_final[0].item(),
        "tau": table.tau[0].item(),
        "Omega": table.omega_eff[0].item(),
        "lambda1": lambda1,
        "lambda2": lambda2,
        "delta1": delta1,
        "delta2": delta2,
    }
    if args.format == "json":
        doc = {"params": vars(params), **fields}
        for key, (_, phase) in phases.items():
            doc[key] = {
                "raw": [phase.raw.real, phase.raw.imag],
                "factor": [phase.unit.real, phase.unit.imag],
                "arg": phase.arg,
            }
        print(json.dumps(doc))
        return EXIT_OK
    fields["t_final"] = f"{fields['t_final']:.12g} {'(tau)' if args.t is None else '(explicit)'}"
    lines = [
        f"{name:<9}= {value if isinstance(value, (int, str)) else format(value, '.12g')}"
        for name, value in {**vars(params), **fields}.items()
    ]
    lines += [
        f"{name + ' phase:':<20}arg = {phase.arg:.12g}  factor = {_fmt_complex(phase.unit)}"
        f"  raw = {_fmt_complex(phase.raw)}"
        for name, phase in phases.values()
    ]
    print("\n".join(lines))
    return EXIT_OK


def _cmd_sweep(args, params) -> int:
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
        args.parser.error(str(exc))
    if args.jobs < 1:
        args.parser.error("--jobs must be >= 1")
    if args.t is not None and not (math.isfinite(args.t) and args.t > 0):
        args.parser.error("--t must be positive and finite")
    table = run_sweep(spec)
    rows = sweep_rows(spec.grid(), table)
    for (value, *fields), error in zip(rows, table.errors):
        if error is not None:
            kind = "refused" if isinstance(error, UnitarityLoss) else "degenerate"
            print(
                f"warning: {kind} point at {args.axis} = {value:.12g} "
                f"({type(error).__name__}: {error}); fields left empty",
                file=sys.stderr,
            )
        elif None in fields:
            print(
                f"warning: undefined phase at {args.axis} = {value:.12g}; "
                "phase fields left empty",
                file=sys.stderr,
            )
    if args.format == "json":
        rows_doc = [dict(zip(SWEEP_COLUMNS, row)) for row in rows]
        doc = {"axis": args.axis, "rows": rows_doc}
        print(json.dumps(doc))
        return EXIT_OK
    print("\n".join(sweep_csv_lines(args.axis, rows)))
    return EXIT_OK


def _cmd_verify(args, params) -> int:
    if args.seed < 0:
        args.parser.error("--seed must be >= 0")
    if args.grid is not None:
        if args.grid < 1:
            args.parser.error("--grid must be >= 1")
        grid = random_generic_params(args.grid, seed=args.seed)
        reports = verify_grid(grid, steps=args.steps)
    else:
        reports = [verify_point(params, steps=args.steps)]
    if args.format == "json":  # a grid, of any size, prints a list; one point its report alone
        docs = [report_to_dict(report) for report in reports]
        print(json.dumps(docs[0] if args.grid is None else {"reports": docs}))
        return EXIT_OK
    blocks = []
    for report in reports:
        head = " ".join(f"{name}={value:.12g}" for name, value in vars(report.params).items())
        blocks.append(f"# {head}\n" + report_table(report))
    print("\n\n".join(blocks))
    return EXIT_OK


def _matrix_lines(name: str, m) -> list[str]:
    return [
        f"{name}:",
        f"  [{_fmt_complex(m[0, 0])}  {_fmt_complex(m[0, 1])}]",
        f"  [{_fmt_complex(m[1, 0])}  {_fmt_complex(m[1, 1])}]",
    ]


def _cmd_propagate(args, params) -> int:
    t = args.t
    if t is not None and not (math.isfinite(t) and t >= 0):
        args.parser.error("--t must be finite and >= 0")
    if t == 0.0:
        model_traces(PointFamily.of([]), args.steps)  # no point: the kernel checks the count alone
        numeric = np.eye(2, dtype=complex)
    else:
        numeric = model_trace(params, steps=args.steps, t_final=t).U[-1]
    if t is None:
        t = float(PointFamily.of([params]).tau[0])  # the period model_trace integrated to
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


_PARSER: argparse.ArgumentParser | None = None  # built by the first main call, not at import


def _discard_stdout() -> None:
    """Point standard output at os.devnull: the interpreter's final flush of unwritten output cannot fail again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):  # a stream without a descriptor, as under redirect_stdout
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    global _PARSER
    _PARSER = _PARSER or build_parser()
    try:
        args = _PARSER.parse_args(argv)  # help goes to standard output, which may fail too
        code = args.handler(args, _params_from(args, args.parser))
        sys.stdout.flush()  # a failed write raises here, not in the interpreter's final flush
        return code
    except tuple(EXIT_CODES) as exc:
        if isinstance(exc, OSError):
            _discard_stdout()
        if not isinstance(exc, BrokenPipeError):  # a reader that went away wants no message
            hint = "; increase --steps" if isinstance(exc, UnitarityLoss) else ""
            message = "interrupted" if isinstance(exc, KeyboardInterrupt) else f"{exc}{hint}"
            with contextlib.suppress(OSError):  # standard error may be unwritable too
                print(f"error: {message}", file=sys.stderr)
        return next(EXIT_CODES[kind] for kind in type(exc).__mro__ if kind in EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
