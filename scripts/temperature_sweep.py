#!/usr/bin/env python3
"""Temperature-sensitivity experiment.

Runs ``spinphase sweep --axis beta`` at fixed field parameters, writes its
CSV to ``--out``, and prints a contrast summary read from that CSV: the
off-diagonal phase stays quantized at 0 or pi across the whole sweep while
the diagonal phase moves continuously.  Only defined phases are summarized;
the last line counts the rows with an undefined phase and the rows refused
or degenerate.  The sweep's warnings and errors are the CLI's; a sweep that
ends in an error writes no CSV and exits with the CLI's code.  A bad
``--V``, ``--mu-B``, ``--omega``, ``--beta-max``, ``--points`` or a
non-integer ``--steps``, and a beta grid that the sweep cannot make, are
usage errors of this script (exit 2).
"""

import argparse
import contextlib
import csv
import io
import math
import pathlib
import sys

from spinphase import ModelParams, PointFamily, SweepSpec, cli
from spinphase.pipeline import DEFAULT_STEPS, model_traces


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--V", default="1.0")
    parser.add_argument("--mu-B", dest="mu_B", default="0.5")
    parser.add_argument("--omega", default="0.6")
    parser.add_argument("--beta-max", default="5.0")
    parser.add_argument("--points", default="101")
    parser.add_argument("--steps", default=str(DEFAULT_STEPS))
    parser.add_argument("--out", type=pathlib.Path, default=pathlib.Path("beta_sweep.csv"))
    args = parser.parse_args()
    # Checked here, so a bad flag is named under this script's usage line; the CLI
    # still gets the flags' own strings.
    try:
        point = ModelParams(V=float(args.V), muB=float(args.mu_B), omega=float(args.omega))
        beta_max, points = float(args.beta_max), int(args.points)
    except ValueError as exc:
        parser.error(str(exc))
    if not (math.isfinite(beta_max) and beta_max > 0.0):
        parser.error(f"--beta-max must be finite and > 0, got {args.beta_max}")
    if points < 2:
        parser.error(f"--points must be >= 2, got {args.points}")
    try:  # the spec the CLI builds from these flags, and the kernel's bound on the step count
        steps = int(args.steps)
        SweepSpec(axis="beta", start=0.0, stop=beta_max, points=points, fixed=point, steps=steps)
        model_traces(PointFamily.of([]), steps)  # no point: the kernel checks the count alone
    except ValueError as exc:
        parser.error(str(exc))

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([
            "sweep", "--axis", "beta", "--start", "0", "--stop", args.beta_max,
            "--points", args.points, "--V", args.V, "--mu-B", args.mu_B, "--omega", args.omega,
            "--steps", args.steps,
        ])
    if code != cli.EXIT_OK:
        return code
    args.out.write_text(stdout.getvalue())

    rows = list(csv.DictReader(io.StringIO(stdout.getvalue())))
    diag = [float(row["diag_phase"]) for row in rows if row["diag_phase"]]
    off = [float(row["offdiag_phase"]) for row in rows if row["offdiag_phase"]]
    failed = sum(not row["lambda1"] for row in rows)  # a refused or degenerate row keeps only beta
    undefined = sum("" in row.values() for row in rows) - failed
    print(f"wrote {args.out} ({len(rows)} rows)")
    print(f"off-diagonal phase values: {sorted({'0' if math.cos(a) > 0 else 'pi' for a in off})}")
    if diag:
        print(f"diagonal phase range: [{min(diag):.4f}, {max(diag):.4f}] rad")
        variation = sum(abs(b - a) for a, b in zip(diag, diag[1:]))
        print(f"diagonal phase total variation: {variation:.4f} rad")
    print(f"rows with an undefined phase: {undefined}; refused or degenerate rows: {failed}")
    return cli.EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
