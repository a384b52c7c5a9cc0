import argparse
import math
import os
import subprocess
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

import magnon_blockade
from magnon_blockade import steady_state, sweep
from magnon_blockade.cli import (
    CSV_HEADER,
    PARAM_KEYS,
    ConfigError,
    _collect_params,
    build_parser,
    load_config,
    main,
)
from magnon_blockade.model import ModelParams
from magnon_blockade.steady_state import N_MAX_LIMIT, N_MAX_START
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

    def test_repeated_key_exit_1(self, tmp_path, capsys):
        # Neither value may win silently: the second would run at N = 2.
        path = write_config(tmp_path, "n_modes = 1\ndelta = 35\nn_modes = 2\n")
        with pytest.raises(ConfigError, match=r"params.cfg:3: key 'n_modes' repeats line 1"):
            load_config(path)
        assert main(["steady", "g2", *BASE_FLAGS[2:], "--config", path]) == 1
        assert "key 'n_modes' repeats line 1" in capsys.readouterr().err


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

    def test_nonconvergence_exit_2(self, capsys, monkeypatch):
        # With a single cutoff to try, escalation cannot converge.
        monkeypatch.setattr(steady_state, "N_MAX_LIMIT", steady_state.N_MAX_START)
        assert main(["steady", "g2", *BASE_FLAGS, "--converge"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: g2 did not converge")
        assert captured.out == ""

    def test_singular_solve_exit_2(self, capsys, monkeypatch):
        def singular(lv):
            raise steady_state.SteadyStateError("non-unique steady state: test")

        monkeypatch.setattr("magnon_blockade.cli.solve_steady_state", singular)
        assert main(["steady", "g2", *BASE_FLAGS]) == 2
        assert capsys.readouterr().err == "error: non-unique steady state: test\n"


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

    def test_probe_tracking_off_drive_axis_exit_1(self, tmp_path, capsys):
        args = [*self.sweep_args(str(tmp_path / "sweep.csv")), "--probe-tracks-drive", "5"]
        assert main(args) == 1
        assert "probe_tracks_drive applies to the drive_rabi axis" in capsys.readouterr().err

    def test_ratio_axis_at_zero_coupling_exit_1(self, tmp_path, capsys, monkeypatch):
        sweeps = []
        monkeypatch.setattr("magnon_blockade.cli.run_sweep", lambda *a, **k: sweeps.append(a))
        args = [*self.sweep_args(str(tmp_path / "sweep.csv")), "--coupling", "0",
                "--axis", "delta_over_j"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "grid point delta_over_j = 0.0: the delta_over_j axis is a ratio to coupling" in err
        assert sweeps == []
        assert not (tmp_path / "sweep.csv").exists()

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

    def test_bad_grid_scale_exit_1(self, tmp_path, capsys):
        args = [*self.sweep_args(str(tmp_path / "sweep.csv")), "--grid-scale", "cubic"]
        assert main(args) == 1
        assert capsys.readouterr().err == (
            "configuration error: grid_scale must be lin or log, got 'cubic'\n"
        )

    def test_output_directory_exit_1(self, tmp_path, capsys, monkeypatch):
        sweeps = []
        monkeypatch.setattr("magnon_blockade.cli.run_sweep", lambda *a, **k: sweeps.append(a))
        assert main(self.sweep_args(str(tmp_path))) == 1
        assert "configuration error: [Errno 21] Is a directory" in capsys.readouterr().err
        assert sweeps == []

    def test_grid_out_of_range_exit_1_before_any_solve(self, tmp_path, capsys, monkeypatch):
        # kappa = 1, 0, -1: the second point has no steady state, so the
        # sweep must stop before it solves the first.
        solves = []
        real = sweep.converge_truncation
        monkeypatch.setattr(sweep, "converge_truncation", lambda p: solves.append(p) or real(p))
        out = tmp_path / "k.csv"
        args = [
            "sweep", *BASE_FLAGS,
            "--axis", "kappa",
            "--grid-start", "1",
            "--grid-stop", "-1",
            "--grid-points", "3",
            "--output", str(out),
        ]
        assert main(args) == 1
        assert solves == []
        assert not out.exists()
        assert "configuration error: grid point kappa = 0.0: decay must be positive" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("tracks", ["-1", "nan"])
    def test_bad_probe_tracking_names_flag_exit_1(self, tracks, capsys, monkeypatch):
        solves = []
        monkeypatch.setattr(sweep, "converge_truncation", lambda p: solves.append(p))
        args = [
            "sweep", *BASE_FLAGS,
            "--axis", "drive_rabi",
            "--grid-start", "0.001",
            "--grid-stop", "0.002",
            "--grid-points", "2",
            "--probe-tracks-drive", tracks,
        ]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert f"grid point drive_rabi = 0.001 with probe_tracks_drive = {float(tracks)}" in err
        assert solves == []


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

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--probe-rabi", "0", "--drive-rabi", "0"], "vanishing single-excitation amplitude"),
            (["--decay", "1e-300"], "singular denominator at the single-excitation resonance"),
        ],
        ids=["undriven", "resonance"],
    )
    def test_analytic_zero_division_exit_1(self, flags, message, capsys):
        args = [
            "optimize", *BASE_FLAGS, *flags,
            "--axis", "theta",
            "--bracket-lo", "0.001",
            "--bracket-hi", "0.02",
            "--engine", "analytic",
        ]
        assert main(args) == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    def test_analytic_overflow_exit_1(self, capsys):
        args = [
            "optimize", *BASE_FLAGS, "--n-modes", "2",
            "--probe-rabi", "1e300", "--drive-rabi", "1e300",
            "--axis", "theta",
            "--bracket-lo", "0.001",
            "--bracket-hi", "0.02",
            "--engine", "analytic",
        ]
        assert main(args) == 1
        assert capsys.readouterr().err == (
            "configuration error: |c_e0|^2 is not finite (inf): the ansatz overflows\n"
        )

    def test_bracket_out_of_range_exit_1_before_any_solve(self, capsys, monkeypatch):
        solves = []
        monkeypatch.setattr(sweep, "numeric_g2", lambda p: solves.append(p) or 1.0)
        args = [
            "optimize", *BASE_FLAGS,
            "--axis", "kappa",
            "--bracket-lo", "1",
            "--bracket-hi", "-1",
        ]
        assert main(args) == 1
        assert solves == []
        assert "configuration error: grid point kappa = 0.0: decay must be positive" in (
            capsys.readouterr().err
        )

    def test_zero_minimum_reported(self, capsys, monkeypatch):
        # g2_zero_delay clamps round-off moments to 0, so a minimum of
        # exactly 0 is a result, not a configuration error.
        monkeypatch.setattr("magnon_blockade.cli.find_minimum", lambda *a, **k: (0.01, 0.0))
        args = [
            "optimize", *BASE_FLAGS,
            "--axis", "theta",
            "--bracket-lo", "0.001",
            "--bracket-hi", "0.02",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "min_g2 = 0.000000e+00" in out
        assert "log10_min_g2 = -inf" in out


class TestVerifyScalingCommand:
    def test_bad_mode_list_exit_1(self, capsys):
        assert main(["verify-scaling", "--n-list", "1,x"]) == 1
        assert "configuration error: --n-list" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--n-list", "0,1"], "n_modes must be at least 1"),
            (["--n-list", "-1"], "n_modes must be at least 1"),
            (["--r", "-0.5"], "r must be positive"),
            (["--coupling", "0"], "coupling must be positive"),
            (["--r", "nan"], "r must be finite, got nan"),
            (["--r", "inf"], "r must be finite, got inf"),
            (["--coupling", "nan"], "coupling must be finite, got nan"),
            (["--coupling", "inf"], "coupling must be finite, got inf"),
            # Finite but too large: (r / sqrt(N))**2, or kappa = r J first.
            (["--r", "1e200"], "r = 1e+200 is too large: (r / sqrt(N))**2 overflows at N = 1"),
            (["--r", "1e307"],
             "r = 1e+307 is too large: kappa = r * coupling overflows at J = 20.0"),
        ],
    )
    def test_bad_input_exit_1(self, flags, message, capsys):
        assert main(["verify-scaling", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"configuration error: {message}\n"
        assert captured.out == ""

    def test_repeated_mode_count_exit_1(self, capsys, monkeypatch):
        def no_search(*_args, **_kwargs):
            raise AssertionError("verify-scaling searched a repeated mode count")

        monkeypatch.setattr("magnon_blockade.sweep.find_minimum", no_search)
        assert main(["verify-scaling", "--n-list", "2,2"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "configuration error: n_list repeats N = 2\n"
        assert captured.out == ""

    def test_failed_entry_exit_2(self, capsys):
        # N = 6 at the default cutoff exceeds the generator cap.
        assert main(["verify-scaling", "--n-list", "1,6"]) == 2
        out = capsys.readouterr().out
        assert "N=1: delta/J" in out
        assert (
            "N=6: FAILED (ValueError: Hilbert dimension 1458 of N = 6 modes at Fock cutoff 2 "
            "exceeds the generator cap 500)"
        ) in out


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

    def test_failed_row_reason_on_stderr(self, tmp_path, capsys, monkeypatch):
        # Drive 0 leaves the mode empty, so g2 is undefined on that row.
        base = ModelParams(1, 35.0, 35.0, 0.003, 0.001, 0.0, 0.5, 2)
        series = [
            ("drive", SweepSpec(base, "drive_rabi", (0.0, 0.001), probe_tracks_drive=3.0)),
        ]
        monkeypatch.setattr("magnon_blockade.cli.preset_sweeps", lambda name: series)
        assert main(["preset", "fig3", "--output-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert "fig3_drive.csv (2 rows, 1 failed)" in captured.out
        assert "row 0: UndefinedCorrelationError" in captured.err
        assert len((tmp_path / "fig3_drive.csv").read_text().splitlines()) == 3

    def test_output_dir_is_a_file_exit_1(self, tmp_path, capsys):
        path = tmp_path / "taken"
        path.write_text("")
        assert main(["preset", "fig2", "--output-dir", str(path)]) == 1
        assert "configuration error: [Errno 17] File exists" in capsys.readouterr().err

    def test_unknown_preset_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["preset", "fig9"])


def fresh_interpreter(code: str, **environ: str) -> str:
    """stdout of code run in a new interpreter that imports this package,
    with the environment variables environ set."""
    src = str(Path(magnon_blockade.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, **environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return result.stdout.strip()


class TestImportSurface:
    def test_package_import_skips_time_integration(self):
        # scipy.integrate serves only the time-evolution oracle of the tests,
        # and sweeps run in one process, so no process pool is loaded either;
        # a fresh interpreter shows what importing the package pulls in.
        code = (
            "import sys, magnon_blockade; print([name for name in ('scipy.integrate', "
            "'multiprocessing', 'concurrent.futures.process') if name in sys.modules])"
        )
        assert fresh_interpreter(code) == "[]"

    def test_dense_point_loads_no_sparse_scipy(self):
        # The sector solve runs on numpy alone at every size: a cutoff-32
        # point (4356 rows) loads no scipy module at all.
        code = (
            "import sys, magnon_blockade\n"
            "p = magnon_blockade.ModelParams(1, 35.0, 35.0, 0.003, 0.001, 0.0077, 0.5, 32)\n"
            "value = magnon_blockade.sweep.numeric_g2(p)\n"
            "print(value > 0, [name for name in sys.modules if name.split('.')[0] == 'scipy'])"
        )
        assert fresh_interpreter(code) == "True []"

    def test_dip_value_does_not_depend_on_blas_threads(self):
        # At the n3-theta-optimum point g2 ~ 1e-11 is a tiny moment that
        # pivoting across the whole system would mix with the vacuum's; the
        # per-sector LUs keep it the same at 1 and 2 BLAS threads.
        code = (
            "import math, magnon_blockade as mb\n"
            "theta = mb.optimal_conditions(3, 0.5 / 20.0).theta_general\n"
            "p = mb.ModelParams(3, math.sqrt(3) * 20.0, 20.0, 3 * math.sqrt(3) * 0.001, "
            "0.001, theta, 0.5, 2)\n"
            "print(repr(mb.sweep.numeric_g2(p)))"
        )
        one, two = (float(fresh_interpreter(code, OPENBLAS_NUM_THREADS=threads))
                    for threads in ("1", "2"))
        assert 0 < one < 1e-10
        assert two == pytest.approx(one, rel=1e-8, abs=0)

    def test_every_exported_name_resolves(self):
        missing = [name for name in magnon_blockade.__all__ if not hasattr(magnon_blockade, name)]
        assert missing == []

    def test_exported_names_are_exactly_the_public_surface(self):
        # The N-site operator helpers and the dense Hamiltonian are test
        # oracles (tests/oracles.py), not package API.
        assert sorted(magnon_blockade.__all__) == [
            "AmplitudeSet", "BlockadeMetrics", "DensityMatrix", "HilbertSpec",
            "Liouvillian", "ModelParams", "OptimalConditions", "SweepRecord",
            "SweepSpec", "amplitudes_for", "blockade_metrics", "build_dissipators",
            "build_liouvillian", "classify_statistics", "converge_truncation",
            "find_minimum", "g2_analytic", "g2_zero_delay", "optimal_conditions",
            "preset_sweeps", "run_sweep", "solve_steady_state",
            "theta_optimal_exact", "verify_scaling",
        ]
        assert all(callable(getattr(magnon_blockade, name)) for name in magnon_blockade.__all__)
        for name in ("embed", "partial_trace", "fock_annihilation", "qubit_lowering",
                     "mode_annihilation", "qubit_sigma_minus"):
            assert not hasattr(magnon_blockade.model, name)
        assert not hasattr(magnon_blockade.model, "build_effective_hamiltonian")


def _subcommand_parsers(parser, path=()):
    """(subcommand path, parser) for every subcommand, nested ones included."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _subcommand_parsers(sub, (*path, name))
    if path:
        yield " ".join(path), parser


def _surface(parser) -> list[tuple]:
    """(option strings, dest, default, type name, choices, required) per argument."""
    return [
        (tuple(a.option_strings), a.dest, a.default, getattr(a.type, "__name__", None),
         None if a.choices is None else tuple(a.choices), a.required)
        for a in parser._actions
        if not isinstance(a, (argparse._HelpAction, argparse._SubParsersAction))
    ]


_MODEL_FLAGS = [
    (("--config",), "config", None, None, None, False),
    (("--n-modes",), "n_modes", None, "int", None, False),
    (("--delta",), "delta", None, "float", None, False),
    (("--coupling",), "coupling", None, "float", None, False),
    (("--probe-rabi",), "probe_rabi", None, "float", None, False),
    (("--drive-rabi",), "drive_rabi", None, "float", None, False),
    (("--phase",), "phase", None, "float", None, False),
    (("--decay",), "decay", None, "float", None, False),
    (("--fock-cutoff",), "fock_cutoff", None, "int", None, False),
]

# The command-line surface as released; a change here is a change of the CLI.
FROZEN_SURFACE = {
    "steady": [],
    "steady g2": [*_MODEL_FLAGS, (("--converge",), "converge", False, None, None, False)],
    "sweep": [
        *_MODEL_FLAGS,
        (("--axis",), "axis", None, "str", None, False),
        (("--grid-start",), "grid_start", None, "float", None, False),
        (("--grid-stop",), "grid_stop", None, "float", None, False),
        (("--grid-points",), "grid_points", None, "int", None, False),
        (("--grid-scale",), "grid_scale", None, "str", None, False),
        (("--engine",), "engine", None, "str", None, False),
        (("--probe-tracks-drive",), "probe_tracks_drive", None, "float", None, False),
        (("--output",), "output", None, None, None, False),
    ],
    "optimize": [
        *_MODEL_FLAGS,
        (("--axis",), "axis", None, None, None, True),
        (("--bracket-lo",), "bracket_lo", None, "float", None, True),
        (("--bracket-hi",), "bracket_hi", None, "float", None, True),
        (("--engine",), "engine", "numeric", None, ("numeric", "analytic"), False),
    ],
    "verify-scaling": [
        (("--n-list",), "n_list", "1,2,3", None, None, False),
        (("--r",), "r", 0.025, "float", None, False),
        (("--coupling",), "coupling", 20.0, "float", None, False),
    ],
    "preset": [
        ((), "name", None, None, ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7"), True),
        (("--output-dir",), "output_dir", ".", None, None, False),
    ],
}


class TestParserSurface:
    def test_every_subcommand_matches_the_frozen_surface(self):
        walked = {path: _surface(sub) for path, sub in _subcommand_parsers(build_parser())}
        assert walked == FROZEN_SURFACE

    def test_param_keys_are_the_model_fields(self):
        kinds = {"int": int, "float": float}
        assert PARAM_KEYS == {f.name: kinds[f.type] for f in fields(ModelParams)}
        assert list(PARAM_KEYS) == [f.name for f in fields(ModelParams)]

    def test_required_keys_are_the_fields_without_default(self):
        required = set()
        for key in PARAM_KEYS:
            flag = "--" + key.replace("_", "-")
            i = BASE_FLAGS.index(flag)
            args = build_parser().parse_args(
                ["steady", "g2", *BASE_FLAGS[:i], *BASE_FLAGS[i + 2:]])
            try:
                p, _ = _collect_params(args)
            except ConfigError as exc:
                assert str(exc) == f"missing parameters: {key}"
                required.add(key)
            else:
                assert getattr(p, key) == getattr(ModelParams, key)
        assert required == {f.name for f in fields(ModelParams) if f.default is MISSING}
        assert required == set(PARAM_KEYS) - {"fock_cutoff"}

    def test_preset_choices_are_the_presets_that_build(self):
        parsers = dict(_subcommand_parsers(build_parser()))
        (name_arg,) = [a for a in parsers["preset"]._actions if a.dest == "name"]
        assert tuple(name_arg.choices) == sweep.PRESETS
        for name in name_arg.choices:
            specs = sweep.preset_sweeps(name)
            assert specs and all(isinstance(spec, SweepSpec) for _, spec in specs)
        for name in ("fig1", "fig8", "fig", "FIG2", ""):
            with pytest.raises(ValueError, match=f"unknown preset {name!r}"):
                sweep.preset_sweeps(name)

    def test_fock_cutoff_help_names_the_library_constants(self):
        parsers = dict(_subcommand_parsers(build_parser()))
        (flag,) = [a for a in parsers["steady g2"]._actions if a.dest == "fock_cutoff"]
        assert f"(default {ModelParams.fock_cutoff})" in flag.help
        assert f"escalate from {N_MAX_START} to {N_MAX_LIMIT}" in flag.help
