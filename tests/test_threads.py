"""A wide chunk split across threads gives the serial run's rows, warnings and exit, byte for byte.

Most cases force the number of usable CPUs and compare the command with
the same command on one CPU, where no thread is started.  The kernel's
widths also show which points reach it at all.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from test_cli import run_strictly

import spinphase
from spinphase import pipeline

#: 513 omega values across V = 1 with no coupling: omega = 1 has no period, and
#: the points near it, whose periods are long, are refused at 64 steps.  The 512
#: other trajectories make one chunk on one CPU; on two CPUs the first chunk ends
#: at omega = 0.99609375 and the second starts at omega = 1.00390625.
RESONANCE = ["sweep", "--axis", "omega", "--start", "0", "--stop", "2", "--points", "513",
             "--V", "1", "--mu-B", "0", "--steps", "64"]
#: 257 regular omega values: on two CPUs the first 128, up to omega = 1.04, make one
#: part and the other 129, from omega = 1.05, the second.
WIDE = ["sweep", "--axis", "omega", "--start", "0.1", "--stop", "2", "--points", "257",
        "--V", "1", "--mu-B", "0.5", "--steps", "64"]


def run_on(capsys, monkeypatch, cpus, *argv):
    """The command's (exit, stdout, stderr) with ``cpus`` usable CPUs, and the kernel's widths."""
    widths = []
    integrate = pipeline.integrate_sampled_family

    def spy(h_of_t, t_final, *args, **kwargs):
        widths.append(len(t_final))
        return integrate(h_of_t, t_final, *args, **kwargs)

    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(pipeline, "integrate_sampled_family", spy)
    try:
        return run_strictly(capsys, *argv), sorted(widths)
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("cpus, widths", [(2, [256, 256]), (4, [128] * 4)])
def test_refused_and_degenerate_points_keep_their_rows(capsys, monkeypatch, cpus, widths):
    serial, serial_widths = run_on(capsys, monkeypatch, 1, *RESONANCE)
    split, split_widths = run_on(capsys, monkeypatch, cpus, *RESONANCE)
    assert (serial_widths, split_widths) == ([512], widths)
    assert split == serial
    code, _, err = split
    assert code == 0
    assert "warning: degenerate point at omega = 1 (DegenerateFrame" in err
    for omega in ("0.99609375", "1.00390625"):  # the last point of chunk 0, the first of chunk 1
        assert f"warning: refused point at omega = {omega} (UnitarityLoss" in err


def test_a_degenerate_point_at_an_explicit_time_is_not_integrated(capsys, monkeypatch):
    # At V = 1 without coupling, omega = 1 has no period, whatever the final time.
    degenerate = ["--V", "1", "--mu-B", "0", "--t", "2"]
    (code, out, err), widths = run_on(capsys, monkeypatch, 1, "phases", *degenerate,
                                      "--omega", "1", "--steps", "256")
    # The kernel is still called, with no member, to check the step count.
    assert (code, out, widths) == (3, "", [0])
    assert err == "error: effective frequency 0.000e+00 <= 1e-12; no period\n"

    sweep = ["sweep", "--axis", "omega", "--start", "0.5", "--stop", "1.5", *degenerate,
             "--steps", "64"]
    (code, out, err), widths = run_on(capsys, monkeypatch, 1, *sweep, "--points", "3")
    assert (code, widths) == (0, [2])
    assert err == ("warning: degenerate point at omega = 1 (DegenerateFrame: effective "
                   "frequency 0.000e+00 <= 1e-12; no period); fields left empty\n")
    (_, regular, _), _ = run_on(capsys, monkeypatch, 1, *sweep, "--points", "2")
    regular = regular.splitlines()
    assert out.splitlines() == [regular[0], regular[1], "omega,1" + "," * 8, regular[2]]


def test_a_worker_error_exits_2_with_the_serial_message(capsys, monkeypatch):
    hamiltonian, integrate = pipeline.hamiltonian, pipeline.integrate_sampled_family
    outcomes = []

    def poisoned(points, times):
        # Only the second part on two CPUs, from omega = 1.05, has samples that are
        # not finite, so its worker raises and the first part's returns its traces.
        samples = hamiltonian(points, times)
        samples[points.omega >= 1.05] = np.nan
        return samples

    def recorded(h_of_t, t_final, *args, **kwargs):
        try:
            traces = integrate(h_of_t, t_final, *args, **kwargs)
        except ValueError:
            outcomes.append((len(t_final), "raised"))
            raise
        outcomes.append((len(t_final), "returned"))
        return traces

    def run(cpus):
        outcomes.clear()
        monkeypatch.setattr(pipeline, "hamiltonian", poisoned)
        monkeypatch.setattr(pipeline, "integrate_sampled_family", recorded)
        return run_on(capsys, monkeypatch, cpus, *WIDE), sorted(outcomes)

    (serial, _), serial_outcomes = run(1)
    (split, widths), split_outcomes = run(2)
    assert widths == [128, 129]
    assert serial_outcomes == [(257, "raised")]
    assert split_outcomes == [(128, "returned"), (129, "raised")]
    assert split == serial == (2, "", "error: generator samples must be finite\n")


def test_a_chunk_of_fewer_than_two_waves_still_splits(capsys, monkeypatch):
    # 2000 points: four chunks of 500 trajectories on one CPU, eight of 250 on two.
    argv = [*WIDE[:8], "2000", *WIDE[9:]]
    serial, serial_widths = run_on(capsys, monkeypatch, 1, *argv)
    split, split_widths = run_on(capsys, monkeypatch, 2, *argv)
    assert (serial_widths, split_widths) == ([500] * 4, [250] * 8)
    assert split == serial
    assert serial[0] == 0


def test_no_chunk_starts_after_one_raises(capsys, monkeypatch):
    # 2000 points on two CPUs make eight chunks of 250 trajectories.  Chunks 0
    # and 1 start side by side; chunk 1 raises first, then chunk 0.  Each thread
    # records its chunk's error before it takes the next chunk, so no later
    # chunk starts, and the error is chunk 0's, as on one CPU.
    argv = [*WIDE[:8], "2000", *WIDE[9:]]

    def run(cpus):
        started, both, later = [], threading.Barrier(cpus, timeout=60), threading.Event()

        def failing(family, *args, **kwargs):
            started.append(family.omega[0])
            both.wait()
            if family.omega[0] != 0.1:
                later.set()
                raise ValueError("chunk 1 failed")
            later.wait(60 if cpus > 1 else 0)
            raise ValueError("chunk 0 failed")

        monkeypatch.setattr(pipeline, "model_traces", failing)
        return run_on(capsys, monkeypatch, cpus, *argv)[0], len(started)

    assert run(1) == ((2, "", "error: chunk 0 failed\n"), 1)
    assert run(2) == ((2, "", "error: chunk 0 failed\n"), 2)


@pytest.mark.parametrize(
    "argv, cpus",
    [
        (["sweep", "--axis", "beta", "--start", "0", "--stop", "5", "--points", "101",
          "--steps", "1024"], 8),
        (["verify", "--grid", "25", "--steps", "1024", "--format", "json"], 8),
        (RESONANCE, 1),
    ],
    ids=["beta-sweep", "verify-grid", "one-cpu"],
)
def test_narrow_chunks_and_one_cpu_start_no_thread(capsys, monkeypatch, argv, cpus):
    def refuse(thread):
        raise RuntimeError(f"thread {thread.name} started")

    expected, _ = run_on(capsys, monkeypatch, 1, *argv)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert run_on(capsys, monkeypatch, cpus, *argv)[0] == expected
    assert expected[0] == 0


def test_more_threads_than_cores_switching_often(capsys, monkeypatch):
    # 8 parts of 64 trajectories, with the interpreter switching threads every microsecond.
    argv = [*RESONANCE[:8], "512", *RESONANCE[9:]]
    expected, _ = run_on(capsys, monkeypatch, 1, *argv)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        split, widths = run_on(capsys, monkeypatch, 8, *argv)
    finally:
        sys.setswitchinterval(interval)
    assert len(widths) == 8
    assert split == expected


def test_usable_cpus_reads_the_affinity_mask(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert pipeline._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert pipeline._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert pipeline._usable_cpus() == 1


def test_threaded_sweep_is_clean_in_a_fresh_interpreter(capsys):
    # 256 distinct trajectories split on any host with at least 2 usable CPUs.
    argv = ["sweep", "--axis", "omega", "--start", "0.1", "--stop", "2", "--points", "256",
            "--V", "1", "--mu-B", "0.5", "--beta", "1", "--steps", "64"]
    src = str(Path(spinphase.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "spinphase", *argv],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert (result.returncode, result.stderr) == (0, "")
    code, out, err = run_strictly(capsys, *argv)
    assert (code, err) == (0, "")
    assert result.stdout == out
