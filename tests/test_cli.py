import math

import pytest

from magnon_blockade.cli import (
    CSV_HEADER,
    ConfigError,
    load_config,
    main,
)
from magnon_blockade.model import ModelParams
from magnon_blockade.sweep import SweepSpec

BASE_FLAGS = [
    "--n-modes", "1",
    "--delta", "35",
    "--coupling", "35",
    "--probe-rabi", "0.003",
    "--drive-rabi", "0.001",
    "--phase", "0",
    "--decay", "0.5",
    "--fock-cutoff", "2",
]


def write_config(tmp_path, text, name="params.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadConfig:
    def test_parses_values_and_comments(self, tmp_path):
        path = write_config(
            tmp_path,
            """
            # model parameters
            n_modes = 1
            delta = 35.0   # detuning
            coupling = 35.0

            decay = 0.5
            """,
        )
        values = load_config(path)
        assert values == {
            "n_modes": 1, "delta": 35.0, "coupling": 35.0, "decay": 0.5,
        }

    def test_unknown_key(self, tmp_path):
        path = write_config(tmp_path, "volume = 11\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)

    def test_bad_value(self, tmp_path):
        path = write_config(tmp_path, "delta = large\n")
        with pytest.raises(ConfigError, match="bad value"):
            load_config(path)

    def test_missing_equals(self, tmp_path):
        path = write_config(tmp_path, "delta 35\n")
        with pytest.raises(ConfigError, match="key=value"):
            load_config(path)


class TestSteadyG2:
    def test_point_evaluation(self, capsys):
        assert main(["steady", "g2", *BASE_FLAGS]) == 0
        out = capsys.readouterr().out
        assert "g2 = " in out
        assert "classification = antibunching" in out
        assert "n_max = 2" in out

    def test_flags_override_config(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "n_modes = 1\ndelta = 35\ncoupling = 35\nprobe_rabi = 0.003\n"
            "drive_rabi = 0.001\nphase = 0.015\ndecay = 0.5\nfock_cutoff = 2\n",
        )
        assert main(["steady", "g2", "--config", path, "--phase", "0"]) == 0
        overridden = capsys.readouterr().out
        assert main(["steady", "g2", *BASE_FLAGS]) == 0
        pure_flags = capsys.readouterr().out
        assert overridden == pure_flags

    def test_missing_parameters_exit_1(self, capsys):
        assert main(["steady", "g2", "--n-modes", "1"]) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_missing_config_file_exit_1(self, capsys):
        assert main(["steady", "g2", "--config", "/nonexistent.cfg"]) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_invalid_parameter_value_exit_1(self, capsys):
        flags = [f if f != "0.5" else "-1" for f in BASE_FLAGS]
        assert main(["steady", "g2", *flags]) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_nonfinite_parameter_exit_1(self, capsys):
        flags = [f if f != "0.5" else "nan" for f in BASE_FLAGS]
        assert main(["steady", "g2", *flags]) == 1
        assert "decay must be finite" in capsys.readouterr().err

    def test_generator_cap_exit_1(self, capsys):
        args = ["steady", "g2", *BASE_FLAGS, "--n-modes", "4", "--fock-cutoff", "4"]
        assert main(args) == 1
        assert "configuration error: Hilbert dimension" in capsys.readouterr().err

    def test_converge_reports_settled_cutoff(self, capsys):
        assert main(["steady", "g2", *BASE_FLAGS, "--converge"]) == 0
        assert "n_max = 2" in capsys.readouterr().out


class TestSweepCommand:
    def sweep_args(self, output):
        return [
            "sweep", *BASE_FLAGS,
            "--axis", "theta",
            "--grid-start", "0",
            "--grid-stop", "0.01",
            "--grid-points", "5",
            "--engine", "analytic",
            "--output", output,
        ]

    def test_csv_contract(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(self.sweep_args(str(out))) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[1] == ""  # no numeric engine
        assert float(first[3]) > 0
        assert first[8] == "antibunching"

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.sweep_args(str(a))) == 0
        assert main(self.sweep_args(str(b))) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_from_config(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "n_modes = 1\ndelta = 35\ncoupling = 35\nprobe_rabi = 0.003\n"
            "drive_rabi = 0.001\nphase = 0\ndecay = 0.5\nfock_cutoff = 2\n"
            "axis = theta\ngrid_start = 0\ngrid_stop = 0.01\ngrid_points = 3\n"
            "engine = analytic\n",
        )
        assert main(["sweep", "--config", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 4

    def test_row_failure_exit_2(self, tmp_path, capsys):
        out = tmp_path / "fail.csv"
        args = [
            "sweep", *BASE_FLAGS,
            "--axis", "drive_rabi",
            "--grid-start", "0",
            "--grid-stop", "0.001",
            "--grid-points", "2",
            "--probe-tracks-drive", "3",
            "--output", str(out),
        ]
        assert main(args) == 2
        assert "UndefinedCorrelationError" in capsys.readouterr().err
        lines = out.read_text().splitlines()
        assert len(lines) == 3  # failed rows still emitted

    def test_missing_grid_exit_1(self, capsys):
        assert main(["sweep", *BASE_FLAGS, "--axis", "theta"]) == 1
        assert "grid" in capsys.readouterr().err

    def test_bad_log_grid_exit_1(self, capsys):
        args = [
            "sweep", *BASE_FLAGS,
            "--axis", "theta",
            "--grid-start", "0",
            "--grid-stop", "0.01",
            "--grid-points", "3",
            "--grid-scale", "log",
        ]
        assert main(args) == 1
        assert "positive" in capsys.readouterr().err


class TestOptimizeCommand:
    def test_phase_optimum(self, capsys):
        args = [
            "optimize", *BASE_FLAGS,
            "--axis", "theta",
            "--bracket-lo", "0.001",
            "--bracket-hi", "0.02",
            "--engine", "analytic",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        argmin = float(out.splitlines()[0].split("=")[1])
        assert math.isclose(argmin, 0.009522109, abs_tol=1e-3)
        assert "log10_min_g2 = " in out


    def test_no_interior_minimum_exit_1(self, capsys):
        args = [
            "optimize", *BASE_FLAGS,
            "--axis", "theta",
            "--bracket-lo", "0.02",
            "--bracket-hi", "0.05",
            "--engine", "analytic",
        ]
        assert main(args) == 1
        assert "configuration error: no interior minimum" in capsys.readouterr().err


class TestVerifyScalingCommand:
    def test_bad_mode_list_exit_1(self, capsys):
        assert main(["verify-scaling", "--n-list", "1,x"]) == 1
        assert "configuration error: --n-list" in capsys.readouterr().err

    def test_failed_entry_exit_2(self, capsys):
        # N = 6 at the default cutoff exceeds the generator cap.
        assert main(["verify-scaling", "--n-list", "1,6"]) == 2
        out = capsys.readouterr().out
        assert "N=1: delta/J" in out
        assert "N=6: FAILED" in out


class TestPresetCommand:
    def test_writes_labeled_csv_files(self, tmp_path, capsys, monkeypatch):
        base = ModelParams(1, 35.0, 35.0, 0.003, 0.001, 0.0, 0.5, 2)
        tiny = [
            ("tiny", SweepSpec(base, "theta", (0.0, 0.01), ("analytic",))),
        ]
        monkeypatch.setattr("magnon_blockade.cli.preset_sweeps", lambda name: tiny)
        assert main(["preset", "fig2", "--output-dir", str(tmp_path)]) == 0
        path = tmp_path / "fig2_tiny.csv"
        assert path.exists()
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 3
        assert "fig2_tiny.csv (2 rows, 0 failed)" in capsys.readouterr().out

    def test_unknown_preset_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["preset", "fig9"])
