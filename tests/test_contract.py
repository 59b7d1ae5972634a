"""The CLI contract under fuzzed input: a documented exit code, never a traceback or a NaN.

Every command runs in-process with every warning an error.  An input gets a
correct answer (exit 0, every printed number finite), a documented exit
code, or an undefined quantity reported as such; nothing else may happen.
"""

import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from test_cli import run_strictly

from spinphase.pipeline import SWEEP_AXES

EXIT_CODES = {0, 2, 3, 4, 5, 6}
#: The flag of each sweep axis, and the flags only a sweep takes.
AXIS_FLAGS = {"beta": "beta", "omega": "omega", "muB": "mu-B", "V": "V"}
SWEEP_ONLY = ("--axis=", "--points=", "--start=", "--stop=", "--format=")

#: Values at the edges of the double range: signed zeros, the least subnormal,
#: scales whose squares or products overflow or underflow, and the largest finite.
EDGES = [0.0, 5e-324, 1e-300, 1e-160, 1e-150, 1e150, 1e160, 1.7e308, 1.7976931348623157e308]

#: Edges, moderate values, and the whole double range with the odd NaN or infinity.
values = st.one_of(
    st.sampled_from(EDGES + [-x for x in EDGES]), st.floats(-10.0, 10.0), st.floats()
)
steps = st.sampled_from([2, 3, 64, 1024])


@st.composite
def non_negative(draw) -> float:
    """muB and beta must be >= 0: nine draws in ten are, the tenth may not be."""
    value = draw(values)
    return abs(value) if draw(st.integers(0, 9)) else value


def flag(name: str, value) -> list[str]:
    return [] if value is None else [f"--{name}={value!r}"]


@st.composite
def commands(draw) -> list[str]:
    command = draw(st.sampled_from(["phases", "sweep", "verify", "propagate"]))
    argv = [command]
    for name, column in (("V", values), ("mu-B", non_negative()), ("omega", values),
                         ("beta", non_negative())):
        argv += flag(name, draw(st.one_of(st.none(), column)))
    formats = st.sampled_from([[], ["--format=json"]])
    if command == "verify":
        return argv + ["--steps=1024", *draw(formats)]
    argv += flag("steps", draw(steps)) + flag("t", draw(st.one_of(st.none(), values)))
    if command == "phases":
        argv += draw(formats)
    elif command == "sweep":
        axis = draw(st.sampled_from(SWEEP_AXES))
        start, stop = sorted(draw(st.lists(values, min_size=2, max_size=2, unique=True)))
        if draw(st.integers(0, 9)) == 0:  # now and then a range that runs backwards
            start, stop = stop, start
        argv += [f"--axis={axis}", f"--points={draw(st.integers(2, 7))}"]
        argv += flag("start", start) + flag("stop", stop) + draw(formats)
    return argv


def phases_at_rows(argv: list[str], out: str) -> list[list[str]]:
    """The ``phases`` command at each point whose row in a sweep's output has values."""
    axis = next(arg.split("=", 1)[1] for arg in argv if arg.startswith("--axis="))
    if "--format=json" in argv:
        points = [row["axis_value"] for row in json.loads(out)["rows"] if row["lambda1"] is not None]
    else:
        rows = (line.split(",") for line in out.splitlines()[1:])
        points = [float(cells[1]) for cells in rows if cells[2]]
    base = ["phases", *(arg for arg in argv[1:] if not arg.startswith(SWEEP_ONLY))]
    return [base + flag(AXIS_FLAGS[axis], value) for value in points]


@settings(
    max_examples=600, derandomize=True, database=None, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(argv=commands())
# PointFamily.eigenbasis divided complex entries by a subnormal norm: NaN at exit 0.
@example(argv=["verify", "--V=1e6", "--mu-B=5e-324", "--omega=157.86", "--steps=1024"])
@example(argv=["propagate", "--V=1.7976931348623157e+308", "--mu-B=5e-324", "--omega=-0.0",
               "--steps=64", "--t=9.19687437552301"])
# reference_closed_forms squared muB and D: NaN closed forms at exit 0.
@example(argv=["verify", "--V=1e160", "--mu-B=5e159", "--omega=6e159", "--beta=1e-160",
               "--steps=1024"])
# 2 D overflowed in the closed-form delta1 before the product with muB^2/N^2 = 0.
@example(argv=["verify", "--V=-1.7e+308", "--steps=1024"])
# The stability refusal's step count overflowed in numpy.
@example(argv=["propagate", "--V=1.7e308", "--mu-B=1", "--omega=0", "--t=9", "--steps=64"])
# np.linspace overflowed inside over a span at the float maximum.
@example(argv=["sweep", "--steps=64", "--axis=V", "--start=-1.7976931348623157e+308",
               "--stop=-1e-300", "--points=7"])
# 2 pi / Omega overflows at a subnormal Omega, a frame-degenerate point.
@example(argv=["verify", "--V=1", "--mu-B=5e-324", "--omega=1"])
def test_every_input_gets_a_documented_exit_code(capsys, argv):
    code, out, _ = run_strictly(capsys, *argv)
    assert code in EXIT_CODES
    if code == 0:
        assert "nan" not in out.lower() and "inf" not in out.lower(), out
    if code == 0 and argv[0] == "sweep":  # a row with values lies at a valid point
        for point in phases_at_rows(argv, out):
            assert run_strictly(capsys, *point)[0] != 2, point
