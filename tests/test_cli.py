import json
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from support import circular_distance

import spinphase
from spinphase.cli import SWEEP_CSV_HEADER, main

FLAGSHIP_FLAGS = ["--V", "1", "--mu-B", "0.5", "--omega", "0.6", "--beta", "1"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPhases:
    def test_flagship_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "phases", *FLAGSHIP_FLAGS, "--steps", "2048"
        )
        assert code == 0
        values = {}
        for line in out.splitlines():
            if "=" in line and ":" not in line:
                key, _, rest = line.partition("=")
                values[key.strip()] = float(rest.split()[0])
        assert values["lambda1"] == pytest.approx(0.195570317493, abs=1e-9)
        assert values["lambda2"] == pytest.approx(0.804429682507, abs=1e-9)
        assert values["Omega"] == pytest.approx(1.077032961427, abs=1e-9)
        assert values["tau"] == pytest.approx(5.833791102229, abs=1e-9)
        assert values["delta1"] == pytest.approx(-3.485009468486, abs=1e-6)
        assert values["delta2"] == pytest.approx(3.485009468486, abs=1e-6)
        assert "diagonal phase:" in out
        assert "off-diagonal phase:" in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "phases", *FLAGSHIP_FLAGS, "--steps", "1024", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["params"] == {"V": 1.0, "muB": 0.5, "omega": 0.6, "beta": 1.0}
        assert circular_distance(doc["offdiag"]["arg"], math.pi) <= 1e-6
        assert doc["diag"]["arg"] == pytest.approx(1.41969554904, abs=1e-6)

    def test_zero_coupling_static_field(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "phases",
            "--V", "1", "--mu-B", "0", "--omega", "0", "--beta", "1",
            "--steps", "1024",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["offdiag"]["arg"] == pytest.approx(0.0, abs=1e-9)
        assert doc["diag"]["arg"] == pytest.approx(0.0, abs=1e-9)

    def test_infinite_temperature_diag_is_real(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "phases",
            "--V", "1", "--mu-B", "0.5", "--omega", "0.6", "--beta", "0",
            "--steps", "1024",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        raw = doc["diag"]["raw"]
        assert abs(raw[1]) / math.hypot(*raw) <= 1e-8
        assert min(abs(doc["diag"]["arg"]), abs(abs(doc["diag"]["arg"]) - math.pi)) <= 1e-6

    def test_separate_moment_and_field_flags(self, capsys):
        code_a, out_a, _ = run_cli(
            capsys, "phases", "--V", "1", "--mu", "0.25", "--B", "2", "--omega",
            "0.6", "--beta", "1", "--steps", "1024",
        )
        code_b, out_b, _ = run_cli(
            capsys, "phases", *FLAGSHIP_FLAGS, "--steps", "1024"
        )
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_exclusive_coupling_flags(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["phases", "--mu-B", "0.5", "--mu", "1"])
        assert err.value.code == 2

    def test_mu_without_field_rejected(self):
        with pytest.raises(SystemExit) as err:
            main(["phases", "--mu", "1"])
        assert err.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["phases", "--nope", "1"])
        assert err.value.code == 2

    def test_degenerate_frame_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys, "phases", "--V", "1", "--mu-B", "0", "--omega", "1", "--beta", "1"
        )
        assert code == 3
        assert "error" in err

    def test_undefined_phase_exits_4(self, capsys):
        # V = 0 with muB = (sqrt(3)/2) omega puts one full field turn at half
        # a frame period, where the diagonal visibility cancels identically.
        code, _, err = run_cli(
            capsys,
            "phases",
            "--V", "0",
            "--mu-B", "0.8660254037844386",
            "--omega", "1",
            "--beta", "1",
            "--steps", "2048",
        )
        assert code == 4
        assert "visibility" in err


class TestSweep:
    def test_csv_header_and_shape(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--axis", "beta", "--start", "0", "--stop", "1", "--points", "2",
            *FLAGSHIP_FLAGS,
            "--steps", "1024",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 3
        assert lines[1].startswith("beta,0,0.5,")

    def test_byte_identical_repeats_and_parallel(self, capsys):
        argv = [
            "sweep", "--axis", "beta", "--start", "0", "--stop", "2",
            "--points", "7", *FLAGSHIP_FLAGS, "--steps", "1024",
        ]
        outputs = set()
        for jobs in ("1", "1", "3"):
            code, out, _ = run_cli(capsys, *argv, "--jobs", jobs)
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_resonance_crossing_without_error(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--axis", "omega", "--start", "0.5", "--stop", "1.5", "--points", "5",
            *FLAGSHIP_FLAGS,
            "--steps", "1024",
        )
        assert code == 0
        assert len(out.splitlines()) == 6

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--axis", "beta", "--start", "0", "--stop", "1", "--points", "3",
            *FLAGSHIP_FLAGS,
            "--steps", "1024",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["axis"] == "beta"
        assert len(doc["rows"]) == 3
        assert set(doc["rows"][0].keys()) == {
            "axis_value", "lambda1", "delta1", "diag_arg_re", "diag_arg_im",
            "diag_phase", "offdiag_arg_re", "offdiag_arg_im", "offdiag_phase",
        }
        # JSON keys follow the CSV columns, in order.
        assert list(doc["rows"][0]) == SWEEP_CSV_HEADER.split(",")[1:]

    def test_undefined_rows_emit_empty_fields_and_warning(self, capsys):
        code, out, err = run_cli(
            capsys,
            "sweep",
            "--axis", "beta", "--start", "0.5", "--stop", "1.5", "--points", "2",
            "--V", "0", "--mu-B", "0.8660254037844386", "--omega", "1",
            "--steps", "2048",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[6] == ""  # diag_phase empty
            assert fields[9] != ""  # off-diagonal phase still defined here
        assert "undefined phase" in err

    def test_quantized_offdiag_phase_never_prints_as_minus_pi(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--axis", "omega", "--start", "0.1", "--stop", "2.0",
            "--points", "2000", "--steps", "512", "--V", "1.0", "--mu-B", "0.5", "--beta", "1.0",
        )
        assert code == 0
        column = SWEEP_CSV_HEADER.split(",").index("offdiag_phase")
        phases = [float(line.split(",")[column]) for line in out.splitlines()[1:]]
        assert len(phases) == 2000
        # Quantized to {0, pi}: a rounding residue must not flip pi to -pi.
        assert min(abs(p + math.pi) for p in phases) > 1e-14

    def test_invalid_spec_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(
                ["sweep", "--axis", "beta", "--start", "2", "--stop", "1",
                 "--points", "5"]
            )
        assert err.value.code == 2


class TestVerifyCommand:
    def test_default_point_table(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--steps", "1024")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
        assert len(lines) == 10  # header + 9 equations
        assert lines[0].startswith("equation_id")

    def test_exit_zero_with_mismatches(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--steps", "1024")
        assert code == 0
        assert "mismatch" in out

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--steps", "1024", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc.keys()) == {"params", "items", "summary"}
        assert len(doc["items"]) == 9

    def test_seeded_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--grid", "3", "--seed", "7", "--steps", "1024",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["reports"]) == 3
        classifications = [
            {it["equation_id"]: it["classification"] for it in rep["items"]}
            for rep in doc["reports"]
        ]
        assert classifications[0] == classifications[1] == classifications[2]


class TestExplicitFinalTime:
    def test_phases_at_explicit_time(self, capsys):
        code, out, _ = run_cli(
            capsys, "phases", *FLAGSHIP_FLAGS, "--t", "1.0", "--steps", "1024",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["t_final"] == 1.0
        assert doc["tau"] == pytest.approx(5.833791102229, abs=1e-9)

    def test_sweep_at_explicit_time(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--axis", "beta", "--start", "0", "--stop", "1", "--points", "2",
            *FLAGSHIP_FLAGS, "--t", "1.0", "--steps", "512",
        )
        assert code == 0
        assert len(out.splitlines()) == 3


SWEEP_FLAGS = ["sweep", "--axis", "beta", "--start", "0", "--stop", "1", "--points", "3"]


class TestInvalidSteps:
    @pytest.mark.parametrize("steps", ["0", "-4", "1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["phases", *FLAGSHIP_FLAGS],
            ["phases", *FLAGSHIP_FLAGS, "--format", "json"],
            SWEEP_FLAGS,
            [*SWEEP_FLAGS, "--format", "json"],
            ["propagate", *FLAGSHIP_FLAGS],
        ],
        ids=["phases", "phases-json", "sweep", "sweep-json", "propagate"],
    )
    def test_exits_2_without_output(self, capsys, argv, steps):
        code, out, err = run_cli(capsys, *argv, "--steps", steps)
        assert code == 2
        assert out == ""
        assert "steps must be >= 2" in err

    def test_jobs_below_one_exits_2(self, capsys):
        code, out, err = run_cli(capsys, *SWEEP_FLAGS, "--steps", "256", "--jobs", "0")
        assert code == 2
        assert out == ""
        assert err == "error: jobs must be >= 1\n"


class TestZeroTemperature:
    """Once 2 beta E1 > ~745 the upper level's weight underflows to exactly 0."""

    def test_phases_at_underflowing_beta(self, capsys):
        docs = {}
        for beta in ("520", "600"):
            flags = [*FLAGSHIP_FLAGS[:6], "--beta", beta, "--steps", "1024"]
            code, out, _ = run_cli(capsys, "phases", *flags, "--format", "json")
            assert code == 0
            docs[beta] = json.loads(out)
        assert docs["600"]["lambda1"] == 0.0
        assert docs["600"]["lambda2"] == 1.0
        for key in ("diag", "offdiag"):
            assert docs["600"][key]["raw"] == docs["520"][key]["raw"]

    def test_sweep_to_zero_temperature(self, capsys):
        code, out, err = run_cli(
            capsys,
            "sweep",
            "--axis", "beta", "--start", "0", "--stop", "1000", "--points", "3",
            *FLAGSHIP_FLAGS[:6],
            "--steps", "1024",
        )
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[-1].startswith("beta,1000,0,")


class TestUnitarityLossExit:
    @pytest.mark.parametrize(
        "argv",
        [["phases", *FLAGSHIP_FLAGS], [*SWEEP_FLAGS, *FLAGSHIP_FLAGS[:6]]],
        ids=["phases", "sweep"],
    )
    def test_undersampled_run_exits_6(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--t", "1e4", "--steps", "64")
        assert code == 6
        assert out == ""
        assert "increase --steps" in err

    @pytest.mark.parametrize(
        "argv, t_final, norm",
        [
            # Near resonance tau = pi / muB, at |H| = E1 = 1/2.
            (["phases", "--V", "1", "--mu-B", "1e-11", "--omega", "1", "--steps", "1024"],
             math.pi * 1e11, 0.5),
            (["propagate", "--t", "1e300", "--steps", "64"], 1e300, math.sqrt(0.5)),
        ],
        ids=["near-resonance", "huge-time"],
    )
    def test_step_past_stability_bound_names_a_step_count(self, capsys, argv, t_final, norm):
        code, out, err = run_cli(capsys, *argv)
        assert code == 6
        assert out == ""
        assert "nan" not in err.lower()
        needed = float(re.search(r"stability bound .*; needs at least (\S+) steps", err)[1])
        # RK4 on i dU/dt = H U is stable while dt |H| <= 2 sqrt(2).
        assert needed == pytest.approx(t_final * norm / (2 * math.sqrt(2)), rel=1e-2)

    def test_non_finite_hamiltonian_is_a_usage_error(self, capsys):
        # omega t overflows to inf, so H(t) has no finite value.
        code, out, err = run_cli(
            capsys, "propagate", "--t", "1e300", "--omega", "1e10", "--steps", "64"
        )
        assert code == 2
        assert out == ""
        assert err == "error: generator samples must be finite\n"

    def test_huge_splitting_within_the_bound_runs(self, capsys):
        # |H|_F^2 overflows at V = 1e160, but dt |H| is small over tau.
        code, out, _ = run_cli(capsys, "propagate", "--V", "1e160", "--steps", "1024")
        assert code == 0
        assert "numeric U(t)" in out


    def test_sweep_keeps_the_points_under_the_bound(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--axis", "muB", "--start", "0.1", "--stop", "100",
            "--points", "5", "--steps", "64", "--t", "10",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6
        assert "" not in lines[1].split(",")
        assert lines[2:] == [f"muB,{v}" + "," * 8 for v in
                             ("25.075000000000003", "50.050000000000004", "75.025000000000006", "100")]
        assert err.count("warning: refused point at muB = ") == 4
        assert "needs at least 354 steps" in err.splitlines()[-1]

    def test_every_point_refused_names_a_count_all_points_pass(self, capsys):
        argv = ["sweep", "--axis", "muB", "--start", "30", "--stop", "100", "--points", "3",
                "--t", "10"]
        code, out, err = run_cli(capsys, *argv, "--steps", "64")
        assert (code, out) == (6, "")
        needed = re.search(r"needs at least (\d+) steps", err)[1]
        assert needed == "354"  # the muB = 100 point's count, not the first point's 107
        code, _, err = run_cli(capsys, *argv, "--steps", needed)
        # Rerun at that count, no point is past the stability bound any more.
        # These points then fail the drift check: the bound is necessary for
        # RK4, not sufficient for a 1e-6 unitarity drift.
        assert "stability bound" not in err
        assert err.count("unitarity drift") == 1


class TestNonFiniteInput:
    """Non-finite times and bounds are usage errors, caught before numpy warns."""

    def run_strictly(self, capsys, *argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                return run_cli(capsys, *argv)
            except SystemExit as exc:
                captured = capsys.readouterr()
                return exc.code, captured.out, captured.err

    @pytest.mark.parametrize(
        "argv",
        [["phases", "--steps", "64"], [*SWEEP_FLAGS, "--steps", "64"]],
        ids=["phases", "sweep"],
    )
    @pytest.mark.parametrize("t_final", ["inf", "nan"])
    def test_final_time(self, capsys, argv, t_final):
        code, out, err = self.run_strictly(capsys, *argv, "--t", t_final)
        assert (code, out) == (2, "")
        assert err == "error: t_final must be positive and finite\n"

    @pytest.mark.parametrize("t_final", ["inf", "nan"])
    def test_propagate_time(self, capsys, t_final):
        code, out, err = self.run_strictly(capsys, "propagate", "--t", t_final)
        assert (code, out) == (2, "")
        assert err.endswith("error: --t must be finite and >= 0\n")

    @pytest.mark.parametrize("start, stop", [("0", "inf"), ("nan", "1"), ("1", "nan")])
    def test_sweep_bounds(self, capsys, start, stop):
        code, out, err = self.run_strictly(
            capsys, "sweep", "--axis", "V", "--start", start, "--stop", stop, "--points", "3"
        )
        assert (code, out) == (2, "")
        assert err.endswith("error: start and stop must be finite\n")


class TestSamePointSameNumbers:
    """A point's numbers do not depend on the command or the batch that computes them."""

    def test_phases_equals_its_sweep_row(self, capsys):
        flags = ["--V", "1", "--mu-B", "0.5", "--beta", "1", "--steps", "512"]
        _, out, _ = run_cli(capsys, "phases", *flags, "--omega", "0.6", "--format", "json")
        point = json.loads(out)
        _, out, _ = run_cli(
            capsys, "sweep", *flags, "--axis", "omega", "--start", "0.2", "--stop", "0.6",
            "--points", "3", "--format", "json",
        )
        row = json.loads(out)["rows"][-1]
        assert row["axis_value"] == 0.6
        assert row["lambda1"] == point["lambda1"]
        assert row["delta1"] == point["delta1"]
        for key in ("diag", "offdiag"):
            assert [row[f"{key}_arg_re"], row[f"{key}_arg_im"]] == point[key]["raw"]
            assert row[f"{key}_phase"] == point[key]["arg"]

    def test_phases_equals_its_verify_oracle(self, capsys):
        flags = ["--V", "1", "--mu-B", "0.5", "--omega", "0.6", "--beta", "1", "--steps", "1024"]
        _, out, _ = run_cli(capsys, "phases", *flags, "--format", "json")
        point = json.loads(out)
        _, out, _ = run_cli(capsys, "verify", *flags, "--format", "json")
        oracle = {it["equation_id"]: it["oracle_value"] for it in json.loads(out)["items"]}
        assert oracle["delta1_Eq17"] == point["delta1"]
        assert oracle["diag_Eq24"] == point["diag"]["raw"]
        assert oracle["offdiag_Eq23"] == point["offdiag"]["raw"]


class TestHugeBeta:
    """2 beta E1 past the float range is the zero-temperature limit, computed without a warning."""

    def run_strictly(self, capsys, *argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return run_cli(capsys, *argv)

    def test_phases_gives_lambda1_zero(self, capsys):
        code, out, _ = self.run_strictly(capsys, "phases", *FLAGSHIP_FLAGS[:-2], "--beta", "1e308")
        assert code == 0
        assert re.search(r"^lambda1 += 0$", out, re.MULTILINE)

    def test_sweep_runs(self, capsys):
        code, out, _ = self.run_strictly(
            capsys, "sweep", "--axis", "beta", "--start", "1e307", "--stop", "1e308",
            "--points", "3", "--steps", "64",
        )
        assert code == 0
        assert [line.split(",")[2] for line in out.splitlines()[1:]] == ["0", "0", "0"]


class TestHugeCoupling:
    # muB^2 overflows at muB = 1e199; the level shift D must not square it.
    HUGE = ["--V", "1e200", "--mu-B", "1e199", "--steps", "64"]

    def run_quietly(self, capsys, *argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_cli(capsys, *argv)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        return result

    def test_phases_at_infinite_temperature_match_a_smaller_scale(self, capsys):
        json_at_zero_beta = ["--beta", "0", "--format", "json"]
        code, out, _ = self.run_quietly(capsys, "phases", *self.HUGE, *json_at_zero_beta)
        assert code == 0
        smaller = ["--V", "1e100", "--mu-B", "1e99", "--steps", "64"]
        _, expected, _ = self.run_quietly(capsys, "phases", *smaller, *json_at_zero_beta)
        doc, ref = json.loads(out), json.loads(expected)
        for key in ("diag", "offdiag"):
            assert doc[key]["arg"] == pytest.approx(ref[key]["arg"], abs=1e-12)

    def test_default_temperature_exits_4(self, capsys):
        code, out, err = self.run_quietly(capsys, "phases", *self.HUGE)
        assert code == 4
        assert "visibility" in err

    def test_propagate_runs(self, capsys):
        code, out, _ = self.run_quietly(capsys, "propagate", *self.HUGE)
        assert code == 0
        assert float(re.search(r"\|numeric - ode\|_F += (\S+)", out)[1]) <= 1e-6


class TestDegenerateSweepPoints:
    ARGV = ["sweep", "--axis", "V", "--start", "-1", "--stop", "1", "--points", "3",
            "--mu-B", "0", "--steps", "256"]
    WARNING = "warning: degenerate point at V = 0 (DegenerateSpectrum"

    def test_csv_row_keeps_only_axis_value(self, capsys):
        code, out, err = run_cli(capsys, *self.ARGV)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[2] == "V,0" + "," * 8
        for line in (lines[1], lines[3]):
            assert "" not in line.split(",")
        assert err.count("warning") == 1
        assert err.startswith(self.WARNING)

    def test_json_row_is_null_but_axis_value(self, capsys):
        code, out, err = run_cli(capsys, *self.ARGV, "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["axis_value"] for r in rows] == [-1.0, 0.0, 1.0]
        assert all(v is None for k, v in rows[1].items() if k != "axis_value")
        assert all(v is not None for r in (rows[0], rows[2]) for v in r.values())
        assert err.startswith(self.WARNING)

    def test_other_rows_match_a_regular_sweep(self, capsys):
        _, out, _ = run_cli(capsys, *self.ARGV)
        _, alone, _ = run_cli(
            capsys, "sweep", "--axis", "V", "--start", "-1", "--stop", "1", "--points", "2",
            "--mu-B", "0", "--steps", "256",
        )
        lines, regular = out.splitlines(), alone.splitlines()
        assert [lines[1], lines[3]] == regular[1:]

    def test_every_point_degenerate_exits_3(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--axis", "V", "--start", "0", "--stop", "1e-13", "--points", "2",
            "--mu-B", "0", "--steps", "256",
        )
        assert code == 3
        assert out == ""
        assert "eigenbasis undefined" in err


class TestImport:
    def test_cli_import_leaves_scipy_unloaded(self):
        src = str(Path(spinphase.__file__).resolve().parents[1])
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import spinphase.cli; "
            "print('scipy' in sys.modules)"
        )
        result = subprocess.run(
            [sys.executable, "-c", code, src], capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"


class TestVerifySeed:
    def test_negative_seed_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--grid", "2", "--seed", "-1", "--steps", "1024"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("error: --seed must be >= 0\n")


class TestInconsistentClassificationExit:
    def test_exit_5(self, capsys, monkeypatch):
        from spinphase import cli
        from spinphase.errors import InconsistentClassification

        def boom(*args, **kwargs):
            raise InconsistentClassification("synthetic flip")

        monkeypatch.setattr(cli, "verify_grid", boom)
        code = cli.main(["verify", "--grid", "2", "--steps", "1024"])
        captured = capsys.readouterr()
        assert code == 5
        assert "synthetic flip" in captured.err


class TestPropagate:
    def test_zero_time_all_identical(self, capsys):
        code, out, _ = run_cli(capsys, "propagate", *FLAGSHIP_FLAGS, "--t", "0")
        assert code == 0
        for line in out.splitlines():
            if line.startswith("|"):
                assert float(line.split("=")[1]) == 0.0

    def test_zero_coupling_matches_numeric(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "propagate",
            "--V", "1", "--mu-B", "0", "--omega", "0.4", "--beta", "1",
            "--t", "1", "--steps", "2048",
        )
        assert code == 0
        distances = {
            line.split("=")[0].strip(): float(line.split("=")[1])
            for line in out.splitlines()
            if line.startswith("|")
        }
        assert distances["|numeric - ode|_F"] <= 1e-9

    def test_full_period_ode_agreement(self, capsys):
        code, out, _ = run_cli(capsys, "propagate", *FLAGSHIP_FLAGS, "--steps", "8192")
        assert code == 0
        distances = {
            line.split("=")[0].strip(): float(line.split("=")[1])
            for line in out.splitlines()
            if line.startswith("|")
        }
        assert distances["|numeric - ode|_F"] <= 1e-6
        assert distances["|ode - literal|_F"] > 1e-3
