import json
import math
import subprocess
import sys
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
