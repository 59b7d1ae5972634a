#!/usr/bin/env python3
"""Temperature-sensitivity experiment.

Sweeps the inverse temperature at fixed field parameters, writes the sweep
rows to CSV, and prints a contrast summary: the off-diagonal phase stays
quantized at 0 or pi across the whole sweep while the diagonal phase moves
continuously.  Only defined phases are summarized; the last line counts the
rows with an undefined phase and the rows refused or degenerate.
"""

import argparse
import math
import pathlib

import numpy as np

from spinphase.cli import SWEEP_COLUMNS, sweep_csv_lines, sweep_rows
from spinphase.model import ModelParams
from spinphase.pipeline import SweepSpec, run_sweep


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--V", type=float, default=1.0)
    parser.add_argument("--mu-B", dest="mu_B", type=float, default=0.5)
    parser.add_argument("--omega", type=float, default=0.6)
    parser.add_argument("--beta-max", type=float, default=5.0)
    parser.add_argument("--points", type=int, default=101)
    parser.add_argument("--steps", type=int, default=8192)
    parser.add_argument("--out", type=pathlib.Path, default=pathlib.Path("beta_sweep.csv"))
    args = parser.parse_args()

    fixed = ModelParams(V=args.V, muB=args.mu_B, omega=args.omega, beta=0.0)
    spec = SweepSpec(
        axis="beta",
        start=0.0,
        stop=args.beta_max,
        points=args.points,
        fixed=fixed,
        steps=args.steps,
    )
    table = run_sweep(spec)
    rows = sweep_rows(spec.grid(), table)
    args.out.write_text("\n".join(sweep_csv_lines("beta", rows)) + "\n")

    columns = dict(zip(SWEEP_COLUMNS, zip(*rows)))
    diag = np.array([a for a in columns["diag_phase"] if a is not None])
    off = [a for a in columns["offdiag_phase"] if a is not None]
    refused = sum(error is not None for error in table.errors)
    undefined = sum(None in row for row in rows) - refused
    off_buckets = {
        "0" if abs(np.angle(np.exp(1j * a))) < abs(np.angle(np.exp(1j * (a - math.pi)))) else "pi"
        for a in off
    }
    print(f"wrote {args.out} ({len(rows)} rows)")
    print(f"off-diagonal phase values: {sorted(off_buckets)}")
    if diag.size:
        print(f"diagonal phase range: [{diag.min():.4f}, {diag.max():.4f}] rad")
        print(f"diagonal phase total variation: {np.abs(np.diff(diag)).sum():.4f} rad")
    print(f"rows with an undefined phase: {undefined}; refused or degenerate rows: {refused}")


if __name__ == "__main__":
    main()
