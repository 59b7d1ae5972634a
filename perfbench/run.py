"""End-to-end and per-layer benchmark of the ``spinphase`` command line.

Run from the repository root:

    python3 perfbench/run.py --workload beta_sweep --seed 1 --seconds 30 --trace 0

One process drives ``spinphase.cli.main`` in a closed loop of sequential
calls, one client, no worker threads.  The package is imported from the
``src`` directory next to this one.  Every call's output is checked against
an independent closed-form reference (see ``reference.py``) and against the
bytes of the first call with the same arguments; a call that exits nonzero,
fails either check or raises counts as failed.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median time from
process start to an imported CLI over several fresh processes), ``solve_s``
and ``cpu_s`` (median wall and CPU time per warm call) and ``peak_rss_mib``
(this process's ``ru_maxrss``).  ``--trace 1`` alternates untraced and
traced calls and reports the per-layer split of ``tracer.py``.  Human-readable
lines come first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

#: Fresh processes timed for setup_s, after one untimed start that warms
#: the file cache and the bytecode cache.
SETUP_TRIALS = 3
#: Calls measured even when one call outlasts --seconds.
MIN_CALLS = 3
#: Traced calls made even when one call outlasts --seconds.
MIN_TRACED = 2

#: Per-layer metrics aggregated by maximum over traced calls, not median.
MAX_METRICS = ("engine.unitarity_defect_max", "engine.u_err_max", "pipeline.phase_err_max")


class BenchError(Exception):
    """The benchmark cannot run here (no sources, or the program cannot start)."""


def environment() -> dict:
    """Machine and library versions, recorded beside every result."""
    import numpy
    import scipy

    env = {"nproc": len(os.sched_getaffinity(0)), "cpu": "unknown", "caches": {}}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu"] = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(OSError):
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                env["caches"][f"L{level}"] = (index / "size").read_text().strip()
    env.update(python=platform.python_version(), numpy=numpy.__version__, scipy=scipy.__version__)
    return env


def measure_setup(trials: int = SETUP_TRIALS) -> list[float]:
    """Seconds from spawning a fresh interpreter until ``spinphase.cli`` is imported."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import spinphase.cli; print('ready', flush=True)"
    times = []
    for trial in range(trials + 1):
        started = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", code, str(SRC)],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            _, err = proc.communicate(timeout=120)
        if proc.returncode != 0 or line.strip() != b"ready":
            raise BenchError(f"fresh process could not import spinphase.cli: {err.decode()[-400:]}")
        if trial:
            times.append(elapsed)
    return times


def require_sources() -> None:
    if not (SRC / "spinphase" / "cli.py").is_file():
        raise BenchError(f"no spinphase sources under {SRC}")


def import_cli():
    sys.path.insert(0, str(SRC))
    import spinphase.cli

    if Path(spinphase.cli.__file__).resolve().parent != (SRC / "spinphase").resolve():
        raise BenchError(f"imported {spinphase.cli.__file__}, not the sources under {SRC}")
    return spinphase.cli


class Runner:
    """Makes CLI calls for one workload and checks each output."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.first: dict[int, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.phase_err_max = 0.0

    def call(self, i: int, tracer=None) -> tuple[float, float]:
        """Run call ``i`` of the workload cycle; returns (wall, cpu) seconds."""
        key = i % len(self.workload.calls)
        argv = self.workload.calls[key]
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.install()
        try:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is a failed call, not a failed benchmark
                code = "traceback: " + traceback.format_exc(limit=-3)
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.attempted += 1
        self._check(key, code, out.getvalue(), err.getvalue())
        return wall, cpu

    def _check(self, key: int, code, text: str, err: str) -> None:
        reasons = []
        if code != 0:
            reasons.append(f"exit {code}: {err[-300:]}")
        else:
            data = text.encode()
            if self.first.setdefault(key, data) != data:
                reasons.append("output bytes differ from an earlier call with the same arguments")
            result = self.workload.check(key, text)
            self.phase_err_max = max(self.phase_err_max, result.phase_err_max)
            reasons += result.errors
        if reasons:
            self.failed += 1
            self.reasons.append(f"call {self.attempted} ({' '.join(self.workload.calls[key][:3])}): "
                                + "; ".join(reasons[:3]))


def tail(values: list[float]) -> str:
    """Highest nearest-rank percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n/a (needs at least 11 calls, have {n})"
    ranked = sorted(values)
    return f"{ranked[n - 11]:.6f} s at p{100.0 * (n - 10) / n:.1f} (n={n})"


def run_plain(runner: Runner, seconds: float, setup: list[float]) -> dict:
    walls, cpus = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or len(walls) < MIN_CALLS:
        wall, cpu = runner.call(i)
        walls.append(wall)
        cpus.append(cpu)
        i += 1
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(walls)
    print(f"setup_s       {statistics.median(setup):.6f} s    median of {len(setup)} fresh processes")
    print(f"solve_s       {statistics.median(walls):.6f} s    median of {n} warm calls")
    print(f"solve_s_tail  {tail(walls)}")
    print(f"cpu_s         {statistics.median(cpus):.6f} s    median of {n} warm calls")
    print(f"peak_rss_mib  {peak:.3f} MiB  ru_maxrss of this process")
    return {
        "setup_s": statistics.median(setup),
        "solve_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mib": peak,
    }


def closed_form_ode():
    """U(t) from ``model.closed_form_propagator`` (ODE ordering), or None if renamed."""
    try:
        from spinphase.model import Convention, closed_form_propagator
    except ImportError:
        return None
    return lambda params, t: closed_form_propagator(params, t, Convention.ODE)


def run_traced(runner: Runner, seconds: float, units: dict[str, str]) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    closed_form = closed_form_ode()
    untraced, traced, records, self_totals = [], [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or len(traced) < MIN_TRACED:
        order = (False, True) if i % 2 == 0 else (True, False)
        for with_trace in order:
            if with_trace:
                tracer.reset()
                traced.append(runner.call(i, tracer)[0])
                records.append(tracer.call_metrics(runner.workload.steps, closed_form))
                self_totals.append(sum(tracer.self_s.values()))
            else:
                untraced.append(runner.call(i)[0])
        i += 1

    metrics, absent = {}, []
    for name in units:
        if name == "trace.overhead_s":
            value = statistics.median(traced) - statistics.median(untraced)
        elif name == "pipeline.phase_err_max":
            value = runner.phase_err_max
        else:
            values = [r[name] for r in records]
            if any(v is None for v in values):
                absent.append(name)
                value = 0.0
            else:
                value = max(values) if name in MAX_METRICS else statistics.median(values)
        metrics[name] = value

    for name, value in metrics.items():
        unit = units[name]
        flag = "  ABSENT" if name in absent else ""
        computed = "  (computed from array shapes)" if unit == "MiB" else ""
        print(f"{name:<30}{value:.6g} {unit}{flag}{computed}")
    self_total = statistics.median(self_totals)
    print(f"accounting: traced solve {statistics.median(traced):.6f} s (n={len(traced)}), "
          f"untraced solve {statistics.median(untraced):.6f} s (n={len(untraced)}), "
          f"sum of layer self times {self_total:.6f} s; the rest is cli argument handling, "
          "sweep row building and tracing overhead")
    if tracer.missing:
        print("missing entry points: " + ", ".join(tracer.missing))
    if absent:
        print("absent layer metrics (reported as 0): " + ", ".join(absent))
    return metrics


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        require_sources()
        setup = [] if args.trace else measure_setup()
        cli = import_cli()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    workload = WORKLOADS[args.workload](args.seed)
    print("env: " + json.dumps(environment()))
    print(f"workload {workload.name} seed {args.seed}: closed loop, 1 client, "
          f"{len(workload.calls)} distinct call(s), e.g. spinphase {' '.join(workload.calls[0])}")

    # Fill lazy imports and caches, untimed and unchecked; a broken program
    # shows up as failed calls below.
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with contextlib.suppress(Exception, SystemExit):
            cli.main(workload.warmup)
    runner = Runner(cli, workload)
    if args.trace:
        metrics = run_traced(runner, args.seconds, units)
    else:
        metrics = run_plain(runner, args.seconds, setup)
    ratio = runner.failed / runner.attempted
    print(f"fail_ratio    {ratio:.6g} ratio  {runner.failed} failed of {runner.attempted} calls")
    for reason in runner.reasons[:5]:
        print("failure: " + reason, file=sys.stderr)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
