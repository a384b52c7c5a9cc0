import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnon_blockade import sweep
from magnon_blockade.analytic import (amplitudes_for, g2_analytic, optimal_conditions,
                                      theta_optimal_exact)
from magnon_blockade.model import ModelParams
from magnon_blockade.observables import classify_statistics
from magnon_blockade.steady_state import TruncationError
from magnon_blockade.sweep import (
    BracketError,
    SweepRecord,
    SweepSpec,
    apply_axis,
    find_minimum,
    golden_section,
    preset_sweeps,
    run_sweep,
    verify_scaling,
)


def fig2_params(drive=0.001, phase=0.0, fock_cutoff=2):
    return ModelParams(1, 35.0, 35.0, 3 * drive, drive, phase, 0.5, fock_cutoff)


class TestSweepSpec:
    def test_unknown_axis(self):
        with pytest.raises(ValueError, match="axis"):
            SweepSpec(fig2_params(), "frequency", (0.0, 1.0))

    def test_empty_grid(self):
        with pytest.raises(ValueError, match="grid"):
            SweepSpec(fig2_params(), "theta", ())

    def test_non_monotone_grid(self):
        with pytest.raises(ValueError, match="monotone"):
            SweepSpec(fig2_params(), "theta", (0.0, 1.0, 0.5))

    def test_decreasing_grid_allowed(self):
        spec = SweepSpec(fig2_params(), "theta", (1.0, 0.5, 0.0))
        assert spec.grid == (1.0, 0.5, 0.0)

    def test_bad_engine(self):
        with pytest.raises(ValueError, match="engines"):
            SweepSpec(fig2_params(), "theta", (0.0, 1.0), engines=("exact",))

    def test_probe_tracking_needs_drive_axis(self):
        with pytest.raises(ValueError, match="drive_rabi axis, not 'theta'"):
            SweepSpec(fig2_params(), "theta", (0.0, 1.0), probe_tracks_drive=5.0)

    def test_grid_point_out_of_range_named(self):
        with pytest.raises(ValueError, match=r"^grid point kappa = 0\.0: decay must be positive"):
            SweepSpec(fig2_params(), "kappa", (1.0, 0.0, -1.0))
        with pytest.raises(ValueError, match=r"^grid point theta = nan: phase must be finite"):
            SweepSpec(fig2_params(), "theta", (math.nan,))

    @pytest.mark.parametrize("tracks, cause", [(-3.0, "nonnegative"), (math.nan, "finite")])
    def test_bad_probe_tracking_named(self, tracks, cause):
        with pytest.raises(ValueError, match=f"with probe_tracks_drive = {tracks}: .*{cause}"):
            SweepSpec(fig2_params(), "drive_rabi", (0.01, 0.02), probe_tracks_drive=tracks)

    def test_points_are_built_state_not_arguments(self):
        params = list(inspect.signature(SweepSpec).parameters)
        assert params == ["base", "axis", "grid", "engines", "probe_tracks_drive"]
        with pytest.raises(TypeError):
            SweepSpec(fig2_params(), "theta", (0.0,), points=(fig2_params(),))
        spec = SweepSpec(fig2_params(), "theta", (0.0, 0.01))
        assert spec.points == (fig2_params(), fig2_params(phase=0.01))
        other = SweepSpec(fig2_params(), "theta", (0.0, 0.01))
        object.__setattr__(other, "points", ())
        assert other == spec and hash(other) == hash(spec)
        assert repr(other) == repr(spec) and "points" not in repr(spec)


class TestApplyAxis:
    def test_delta_over_j(self):
        p = apply_axis(fig2_params(), "delta_over_j", 1.2)
        assert p.delta == pytest.approx(1.2 * 35.0)

    def test_probe_over_drive(self):
        p = apply_axis(fig2_params(drive=0.01), "probe_over_drive", 5.0)
        assert p.probe_rabi == pytest.approx(0.05)

    def test_theta(self):
        assert apply_axis(fig2_params(), "theta", 0.01).phase == 0.01

    def test_kappa(self):
        assert apply_axis(fig2_params(), "kappa", 1.5).decay == 1.5

    def test_drive_with_tracking_probe(self):
        p = apply_axis(fig2_params(), "drive_rabi", 0.2, probe_tracks_drive=3.0)
        assert p.drive_rabi == 0.2
        assert p.probe_rabi == pytest.approx(0.6)

    def test_drive_without_tracking_keeps_probe(self):
        base = fig2_params(drive=0.001)
        p = apply_axis(base, "drive_rabi", 0.2)
        assert p.probe_rabi == base.probe_rabi


class TestRatioAxes:
    @pytest.mark.parametrize("axis, field", [("delta_over_j", "coupling"),
                                             ("probe_over_drive", "drive_rabi")])
    def test_zero_reference_rejected_before_any_solve(self, axis, field, monkeypatch):
        # At J = 0 every delta_over_j point would be delta = 0; at drive 0 every
        # probe_over_drive point would fail for a vanishing amplitude instead.
        solves = []
        for name in ("solve_steady_state", "converge_truncation", "amplitudes_for"):
            monkeypatch.setattr(sweep, name, lambda *a, **k: solves.append(a))
        base = fig2_params().with_(**{field: 0.0})
        message = rf"^grid point {axis} = -1\.0: the {axis} axis is a ratio to {field}, which is 0$"
        with pytest.raises(ValueError, match=message):
            SweepSpec(base, axis, (-1.0, 0.0, 1.0), ("numeric", "analytic"))
        for engine in ("numeric", "analytic"):
            with pytest.raises(ValueError, match=message):
                find_minimum(base, axis, (-1.0, 1.0), engine=engine)
        with pytest.raises(ValueError, match=f"ratio to {field}, which is 0"):
            apply_axis(base, axis, 1.0)
        assert solves == []


class TestRunSweep:
    def test_record_per_grid_point_in_order(self):
        grid = tuple(np.linspace(0.0, 0.02, 50))
        spec = SweepSpec(fig2_params(), "theta", grid, engines=("analytic",))
        records = run_sweep(spec)
        assert len(records) == 50
        assert [r.axis_value for r in records] == list(grid)
        assert all(r.error is None for r in records)
        assert all(r.g2_numeric is None for r in records)
        assert all(r.g2_analytic > 0 for r in records)

    def test_repeat_runs_identical(self):
        grid = (0.0, 0.005, 0.01)
        spec = SweepSpec(fig2_params(), "theta", grid)
        assert run_sweep(spec) == run_sweep(spec)

    def test_numeric_records_carry_metrics(self):
        spec = SweepSpec(fig2_params(), "theta", (0.0, 0.005))
        for rec in run_sweep(spec):
            assert rec.g2_numeric > 0
            assert rec.log10_g2_numeric == pytest.approx(
                math.log10(rec.g2_numeric)
            )
            assert 0 <= rec.p1 <= 1
            assert rec.occupation > 0
            assert rec.n_max >= 2
            assert rec.classification == "antibunching"

    def test_each_grid_point_built_once(self, monkeypatch):
        calls = []
        real = sweep.apply_axis
        monkeypatch.setattr(sweep, "apply_axis", lambda *a: calls.append(a) or real(*a))
        spec = SweepSpec(fig2_params(), "theta", (0.0, 0.005, 0.01, 0.015, 0.02), ("analytic",))
        records = run_sweep(spec)
        assert len(calls) == 5
        assert [r.axis_value for r in records] == list(spec.grid)

    def test_numeric_failure_keeps_analytic_values(self, monkeypatch):
        real = sweep.converge_truncation

        def failing_at_middle(p):
            if p.phase == 0.005:
                raise TruncationError("no convergence")
            return real(p)

        monkeypatch.setattr(sweep, "converge_truncation", failing_at_middle)
        spec = SweepSpec(fig2_params(), "theta", (0.0, 0.005, 0.01), ("numeric", "analytic"))
        first, failed, last = run_sweep(spec)
        assert failed.error == "TruncationError: no convergence"
        assert failed.g2_analytic == sweep.analytic_g2(fig2_params(phase=0.005)) > 0
        assert failed.p1 == sweep.amplitudes_for(fig2_params(phase=0.005)).p_g1
        assert failed.g2_numeric is None and failed.occupation is None
        assert failed.n_max is None and failed.classification is None
        for rec in (first, last):
            assert rec.error is None
            assert rec.g2_numeric > 0 and rec.g2_analytic > 0
            assert rec.n_max >= 2 and rec.classification == "antibunching"

    def test_row_failure_is_isolated(self):
        spec = SweepSpec(
            fig2_params(),
            "drive_rabi",
            (0.0, 0.001),
            probe_tracks_drive=3.0,
        )
        records = run_sweep(spec)
        assert "UndefinedCorrelationError" in records[0].error
        assert records[0].g2_numeric is None
        assert records[1].error is None
        assert records[1].g2_numeric > 0

    def test_non_finite_analytic_row_names_the_quantity(self):
        # Drives of 1e300 overflow the ansatz at N = 2: that row carries the
        # ValueError instead of a NaN g2, and the weak-drive row is unaffected.
        base = ModelParams(2, 20.0, 20.0, 1.0, 1.0, 0.01, 0.5)
        spec = SweepSpec(base, "drive_rabi", (1e-3, 1e300), ("analytic",),
                         probe_tracks_drive=1.0)
        ok, failed = run_sweep(spec)
        assert ok.error is None and ok.g2_analytic > 0
        assert failed.error.startswith("ValueError: |c_e0|^2 is not finite (inf): ")
        assert failed.g2_analytic is None and failed.p1 is None


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n_modes=st.integers(1, 3),
    delta=st.floats(-100.0, 100.0),
    coupling=st.floats(0.0, 50.0),
    probe=st.floats(0.0, 1.0),
    drive=st.floats(1e-3, 1.0),
    decay=st.floats(0.1, 5.0),
    grid=st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=4, unique=True).map(sorted),
)
def test_analytic_record_is_the_closed_form_chain(n_modes, delta, coupling, probe, drive,
                                                  decay, grid):
    # kappa >= 0.1 keeps both denominators off resonance, so every point has
    # a g2; the record must hold exactly amplitudes_for -> g2_analytic ->
    # classify_statistics, with nothing rounded or reordered on the way.
    base = ModelParams(n_modes, delta, coupling, probe, drive, 0.0, decay)
    expected = []
    for theta in grid:
        amps = amplitudes_for(base.with_(phase=theta))
        g2 = g2_analytic(amps)
        expected.append(SweepRecord(theta, None, g2, amps.p_g1, None, None,
                                    classify_statistics(g2)))
    assert run_sweep(SweepSpec(base, "theta", tuple(grid), ("analytic",))) == expected


def test_records_are_value_objects():
    # The per-point records are compared by value, and dataclasses.replace
    # gives an edited copy (the benchmark's corrupt mode perturbs records so).
    rec = run_sweep(SweepSpec(fig2_params(), "theta", (0.0, 0.01), ("analytic",)))[1]
    assert rec == SweepRecord(0.01, None, rec.g2_analytic, rec.p1, None, None, rec.classification)
    edited = dataclasses.replace(rec, g2_analytic=0.5 * rec.g2_analytic)
    assert edited != rec and edited.g2_analytic == 0.5 * rec.g2_analytic
    assert edited.axis_value == rec.axis_value and edited.p1 == rec.p1
    amps = amplitudes_for(fig2_params(phase=0.01))
    assert amps == amplitudes_for(fig2_params(phase=0.01))
    zeroed = dataclasses.replace(amps, c_g11=0j)
    assert zeroed != amps and zeroed.c_g11 == 0 and amps.c_g11 != 0
    assert (zeroed.c_g1, zeroed.weak_drive_certified) == (amps.c_g1, amps.weak_drive_certified)


class TestMinimumSearch:
    def test_golden_section_quadratic(self):
        x, fx = golden_section(lambda x: (x - 2.0) ** 2, 0.0, 5.0, rel_tol=1e-8)
        assert x == pytest.approx(2.0, abs=1e-6)
        assert fx == pytest.approx(0.0, abs=1e-10)

    def test_analytic_phase_minimum_matches_closed_form(self):
        argmin, minimum = find_minimum(
            fig2_params(), "theta", (0.001, 0.02), engine="analytic"
        )
        assert abs(argmin - theta_optimal_exact(1, 1 / 70)) < 1e-4
        assert minimum > 0

    def test_edge_minimum_raises(self):
        with pytest.raises(BracketError, match="interior"):
            find_minimum(
                fig2_params(), "theta", (0.02, 0.04), engine="analytic"
            )

    def test_unknown_engine(self):
        with pytest.raises(ValueError, match="engine"):
            find_minimum(fig2_params(), "theta", (0.0, 0.02), engine="magic")

    @pytest.mark.parametrize("rel_tol", [0.0, -1e-5, math.nan, math.inf])
    def test_bad_rel_tol_rejected_before_any_evaluation(self, rel_tol, monkeypatch):
        calls = []

        def counting(x):
            calls.append(x)
            raise AssertionError(f"evaluated at {x} before checking rel_tol")

        with pytest.raises(ValueError, match="rel_tol must be finite and positive"):
            golden_section(counting, 0.0, 1.0, rel_tol=rel_tol)
        monkeypatch.setattr(sweep, "analytic_g2", lambda p: counting(p.phase))
        with pytest.raises(ValueError, match="rel_tol must be finite and positive"):
            find_minimum(fig2_params(), "theta", (0.0, 1.0), engine="analytic", rel_tol=rel_tol)
        assert calls == []

    @pytest.mark.parametrize(
        "bracket, message",
        [((1.0, -1.0), r"^grid point kappa = 0\.0: decay must be positive"),
         ((0.01, 0.01), "strictly monotone")],
        ids=["kappa-through-zero", "degenerate"],
    )
    @pytest.mark.parametrize("engine", sweep.ENGINES)
    def test_scan_checked_before_any_evaluation(self, bracket, message, engine, monkeypatch):
        calls = []
        monkeypatch.setattr(sweep, "numeric_g2", lambda p: calls.append(p) or 1.0)
        monkeypatch.setattr(sweep, "analytic_g2", lambda p: calls.append(p) or 1.0)
        with pytest.raises(ValueError, match=message):
            find_minimum(fig2_params(), "kappa", bracket, engine=engine, n_scan=9)
        assert calls == []

    @pytest.mark.parametrize("n_scan", [-1, 0, 1, 2])
    def test_short_scan_rejected_before_any_evaluation(self, n_scan, monkeypatch):
        calls = []

        def counting(p):
            calls.append(p)
            raise AssertionError(f"evaluated at {p.phase} before checking n_scan")

        monkeypatch.setattr(sweep, "analytic_g2", counting)
        with pytest.raises(ValueError, match="n_scan must be at least 3"):
            find_minimum(fig2_params(), "theta", (0.0, 1.0), engine="analytic", n_scan=n_scan)
        assert calls == []


class TestVerifyScaling:
    def test_single_mode_entry(self):
        report = verify_scaling(n_list=(1,))
        assert report.r == 0.025
        (entry,) = report.entries
        assert entry.error is None
        assert entry.delta_over_j == pytest.approx(1.0, rel=0.1)
        assert entry.probe_over_drive == pytest.approx(3.0, rel=0.2)
        assert entry.min_g2 > 0
        # A single mode count cannot support a fit.
        assert report.exponents == {}

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n_list": (0, 1)}, "n_modes must be at least 1"),
            ({"n_list": (1, -1)}, "n_modes must be at least 1"),
            ({"r": -0.5}, "r must be positive"),
            ({"coupling": 0.0}, "coupling must be positive"),
            ({"r": math.nan}, "r must be finite, got nan"),
            ({"r": math.inf}, "r must be finite, got inf"),
            ({"coupling": math.nan}, "coupling must be finite, got nan"),
            ({"coupling": math.inf}, "coupling must be finite, got inf"),
            ({"n_list": (2, 2)}, "n_list repeats N = 2"),
            ({"n_list": (1, 3, 2, 3, 1)}, "n_list repeats N = 1, 3"),
            ({"n_list": (1.5,)}, "n_modes must be an integer, got 1.5"),
        ],
    )
    def test_bad_input_raises_before_any_search(self, kwargs, message, monkeypatch):
        def no_search(*_args, **_kwargs):
            raise AssertionError("verify_scaling searched before checking its input")

        monkeypatch.setattr(sweep, "find_minimum", no_search)
        with pytest.raises(ValueError, match=message):
            verify_scaling(**kwargs)

    def test_search_starts_at_the_conditions_point(self, monkeypatch):
        calls = []

        def recording_search(p, axis, bracket, **_kwargs):
            calls.append(p)
            return sum(bracket) / 2, 1.0

        monkeypatch.setattr(sweep, "find_minimum", recording_search)
        verify_scaling(n_list=(1, 2, 3), r=0.05, coupling=35.0)
        assert len(calls) == 3 * 6  # two rounds of three line searches per N
        for n, first in zip((1, 2, 3), calls[::6]):
            p, c = sweep._conditions_point(n, 35.0, 0.05 * 35.0, 0.001)
            assert first == p.with_(phase=c.theta_general, fock_cutoff=2)

    def test_generator_cap_fails_entry_without_solve(self, monkeypatch):
        solves = []

        def counting_solve(*args, **kwargs):
            solves.append(args)
            raise AssertionError("solve past the generator cap")

        monkeypatch.setattr(sweep, "solve_steady_state", counting_solve)
        (entry,) = verify_scaling(n_list=(6,)).entries
        assert solves == []
        assert entry.error == (
            "ValueError: Hilbert dimension 1458 of N = 6 modes at Fock cutoff 2 "
            "exceeds the generator cap 500"
        )


class TestPresets:
    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="preset"):
            preset_sweeps("fig1")

    def test_phase_sweep_series(self):
        series = preset_sweeps("fig2")
        labels = [label for label, _ in series]
        assert labels == ["drive0.001", "drive0.05", "drive0.1"]
        for _, spec in series:
            assert spec.axis == "theta"
            assert spec.base.n_modes == 1
            assert spec.base.coupling == 35.0
            assert spec.base.decay == 0.5
            assert spec.engines == ("numeric", "analytic")
            assert spec.grid[0] == pytest.approx(-0.01)
            assert spec.grid[-1] == pytest.approx(0.02)

    def test_drive_sweep_series_pins_optimal_phase(self):
        series = preset_sweeps("fig3")
        assert [label for label, _ in series] == [
            "kappa0.1", "kappa0.5", "kappa1", "kappa1.5",
        ]
        for (label, spec), kappa in zip(series, (0.1, 0.5, 1.0, 1.5)):
            assert spec.axis == "drive_rabi"
            assert spec.base.decay == kappa
            assert spec.base.phase == pytest.approx(
                theta_optimal_exact(1, kappa / 35.0)
            )
            assert spec.probe_tracks_drive == pytest.approx(3.0)

    def test_two_mode_presets_pin_collective_conditions(self):
        for name in ("fig4", "fig5", "fig6", "fig7"):
            for _, spec in preset_sweeps(name):
                assert spec.base.n_modes == 2
        for _, spec in preset_sweeps("fig6"):
            assert spec.base.delta == pytest.approx(math.sqrt(2) * 20.0)
            assert spec.base.probe_rabi == pytest.approx(
                3 * math.sqrt(2) * spec.base.drive_rabi
            )

    def test_presets_start_from_optimal_conditions(self):
        for name, n in (("fig2", 1), ("fig3", 1), ("fig5", 2), ("fig6", 2), ("fig7", 2)):
            for _, spec in preset_sweeps(name):
                base = spec.base
                cond = optimal_conditions(n, base.decay / base.coupling)
                assert base.n_modes == n
                assert base.delta / base.coupling == pytest.approx(cond.delta_over_j)
                assert base.probe_rabi / base.drive_rabi == pytest.approx(cond.probe_over_drive)
                if name in ("fig3", "fig7"):
                    assert base.phase == theta_optimal_exact(n, base.decay / base.coupling)
                    assert spec.probe_tracks_drive == pytest.approx(3 * math.sqrt(n))
