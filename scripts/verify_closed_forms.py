#!/usr/bin/env python3
"""Closed-form verification experiment.

Runs ``spinphase verify --grid`` over a seeded grid of generic parameter
points at two step counts and reports the (grid-uniform) classification of
each reference equation, plus the residual ranges.  A run the CLI ends with
an error exits with the CLI's code.
"""

import argparse
import contextlib
import io
import json
import sys
from collections import defaultdict

from spinphase import cli
from spinphase.pipeline import DEFAULT_STEPS
from spinphase.verify import EQUATION_IDS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", type=int, default=25)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    args = parser.parse_args()

    residuals = defaultdict(list)
    classifications = {}
    for steps in (args.steps, 2 * args.steps):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["verify", "--grid", str(args.grid), "--seed", str(args.seed),
                             "--steps", str(steps), "--format", "json"])
        if code != cli.EXIT_OK:
            return code
        for report in json.loads(stdout.getvalue())["reports"]:
            for item in report["items"]:
                residuals[item["equation_id"]].append(item["residual"])
                previous = classifications.setdefault(item["equation_id"], item["classification"])
                if previous != item["classification"]:
                    raise SystemExit(
                        f"classification of {item['equation_id']} changed at steps={steps}"
                    )

    print(f"{args.grid} generic points, seed {args.seed}, steps {args.steps} and {2 * args.steps}")
    print(f"{'equation_id':<26}{'classification':<16}{'residual range'}")
    for eq_id in EQUATION_IDS:
        r = residuals[eq_id]
        print(f"{eq_id:<26}{classifications[eq_id]:<16}[{min(r):.3e}, {max(r):.3e}]")
    return cli.EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
