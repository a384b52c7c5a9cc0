import math

import numpy as np
import pytest

from magnon_blockade.analytic import (
    ResonanceError,
    amplitudes_for,
    closed_form_probabilities,
    complex_detuning,
    g2_analytic,
    intermediates,
    optimal_conditions,
    theta_optimal_exact,
)
from magnon_blockade.model import ModelParams


def random_params(rng, n_modes):
    j = rng.uniform(5.0, 40.0)
    return ModelParams(
        n_modes=n_modes,
        delta=rng.uniform(-50.0, 50.0),
        coupling=j,
        probe_rabi=rng.uniform(1e-3, 0.3),
        drive_rabi=rng.uniform(1e-3, 0.3),
        phase=rng.uniform(-0.5, 0.5),
        decay=rng.uniform(0.05, 2.0),
    )


def optimal_params(n_modes, coupling, decay, drive, theta):
    root_n = math.sqrt(n_modes)
    return ModelParams(
        n_modes=n_modes,
        delta=root_n * coupling,
        coupling=coupling,
        probe_rabi=3 * root_n * drive,
        drive_rabi=drive,
        phase=theta,
        decay=decay,
    )


def paper_general_n_amplitudes(p):
    """The paper's general-N closed forms, which drop the cross amplitude.

    Returns (c_g1, c_e0, c_g11, c_e1) written out from `intermediates`.
    """
    n = p.n_modes
    dt = complex_detuning(p)
    j, om = p.coupling, p.drive_rabi
    oq = p.probe_rabi * np.exp(-1j * p.phase)
    inter = intermediates(p)
    c_g1 = (j * oq - om * dt) / (dt**2 - n * j**2)
    c_e0 = -(n * j * c_g1 + oq) / dt
    c_g11 = (
        math.sqrt(2) * (inter.a_coeff * c_g1 - inter.b_coeff) / (4 * dt**2 - 2 * j**2)
    )
    c_e1 = -(math.sqrt(2) * j * c_g11 + oq * c_g1 + om * c_e0) / (2 * dt)
    return c_g1, c_e0, c_g11, c_e1


class TestLinearSolveVsClosedForms:
    def test_single_mode_probabilities_match(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            p = random_params(rng, 1)
            amps = amplitudes_for(p)
            p_g1, p_g11 = closed_form_probabilities(p)
            assert amps.p_g1 == pytest.approx(p_g1, rel=1e-9)
            assert amps.p_g11 == pytest.approx(p_g11, rel=1e-9)

    def test_two_mode_probabilities_match(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            p = random_params(rng, 2)
            amps = amplitudes_for(p)
            p_g1, p_g11 = closed_form_probabilities(p)
            assert amps.p_g1 == pytest.approx(p_g1, rel=1e-9)
            assert amps.p_g11 == pytest.approx(p_g11, rel=1e-9)

    def test_general_form_exact_for_single_mode(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            p = random_params(rng, 1)
            amps = amplitudes_for(p)
            c_g1, c_e0, c_g11, c_e1 = paper_general_n_amplitudes(p)
            assert amps.c_g1 == pytest.approx(c_g1, rel=1e-9)
            assert amps.c_e0 == pytest.approx(c_e0, rel=1e-9)
            assert amps.c_g11 == pytest.approx(c_g11, rel=1e-9)
            assert amps.c_e1 == pytest.approx(c_e1, rel=1e-9)

    def test_general_form_shares_single_excitation_with_two_mode(self):
        # The exact two-mode solve keeps the cross amplitude, which the
        # general form drops; only the single-excitation amplitude is shared.
        rng = np.random.default_rng(24)
        for _ in range(10):
            p = random_params(rng, 2)
            c_g1 = paper_general_n_amplitudes(p)[0]
            assert amplitudes_for(p).c_g1 == pytest.approx(c_g1, rel=1e-9)

    def test_paper_general_n_equations(self):
        # At N >= 3 the solve is the paper's general-N form itself.
        rng = np.random.default_rng(25)
        for n in (3, 4):
            for _ in range(10):
                p = random_params(rng, n)
                amps = amplitudes_for(p)
                c_g1, c_e0, c_g11, c_e1 = paper_general_n_amplitudes(p)
                assert amps.c_g1 == pytest.approx(c_g1, rel=1e-9)
                assert amps.c_e0 == pytest.approx(c_e0, rel=1e-9)
                assert amps.c_g11 == pytest.approx(c_g11, rel=1e-9)
                assert amps.c_e1 == pytest.approx(c_e1, rel=1e-9)


class TestSmallPhaseExpansion:
    def test_single_mode_within_two_percent(self):
        p = optimal_params(1, 35.0, 0.5, 0.001, theta=0.005)
        full = closed_form_probabilities(p)
        fast = closed_form_probabilities(p, small_theta=True)
        assert fast[0] == pytest.approx(full[0], rel=0.02)
        assert fast[1] == pytest.approx(full[1], rel=0.02)

    def test_two_mode_within_five_percent(self):
        p = optimal_params(2, 20.0, 0.5, 0.001, theta=0.008)
        full = closed_form_probabilities(p)
        fast = closed_form_probabilities(p, small_theta=True)
        assert fast[0] == pytest.approx(full[0], rel=0.05)
        assert fast[1] == pytest.approx(full[1], rel=0.05)


class TestG2Ratio:
    def test_weak_drive_exact_approx_agree(self):
        p = optimal_params(1, 35.0, 0.5, 0.0001, theta=0.0)
        amps = amplitudes_for(p)
        exact, approx = g2_analytic(amps)
        assert amps.weak_drive_certified
        assert exact == pytest.approx(approx, rel=1e-3)

    def test_vanishing_single_excitation_rejected(self):
        p = ModelParams(1, 5.0, 5.0, 1.0, 0.0, 0.0, 0.5)
        # probe = 5 * drive with delta = J makes c_g1 = 0 only for a tuned
        # combination; instead force it via drive_rabi = probe_rabi = 0.
        p = p.with_(probe_rabi=0.0, drive_rabi=0.0)
        with pytest.raises(ZeroDivisionError):
            g2_analytic(amplitudes_for(p))

    def test_dispatch_by_mode_count(self):
        # The cross amplitude exists only in the two-mode solve.
        rng = np.random.default_rng(25)
        assert amplitudes_for(random_params(rng, 1)).c_g12 == 0.0
        assert amplitudes_for(random_params(rng, 2)).c_g12 != 0.0
        assert amplitudes_for(random_params(rng, 3)).c_g12 == 0.0


class TestResonances:
    def test_single_excitation_resonance(self):
        for n in (1, 2, 3):
            p = ModelParams(n, math.sqrt(n) * 20.0, 20.0, 0.3, 0.1, 0.0, 1e-300)
            with pytest.raises(ResonanceError, match="single-excitation"):
                amplitudes_for(p)

    def test_two_excitation_resonance(self):
        # 2 dt^2 = J^2, or 2 J^2 at N = 2, where the cross amplitude couples in.
        for n, delta in ((1, 20.0 / math.sqrt(2)), (2, 20.0), (3, 20.0 / math.sqrt(2))):
            p = ModelParams(n, delta, 20.0, 0.3, 0.1, 0.0, 1e-300)
            with pytest.raises(ResonanceError, match="two-excitation"):
                amplitudes_for(p)

    def test_closed_form_rejects_three_modes(self):
        p = optimal_params(3, 20.0, 0.5, 0.001, theta=0.005)
        with pytest.raises(ValueError, match="one or two modes"):
            closed_form_probabilities(p)

    def test_zero_coupling_intermediates_rejected(self):
        p = ModelParams(1, 5.0, 0.0, 0.1, 0.1, 0.0, 0.5)
        with pytest.raises(ValueError, match="coupling"):
            intermediates(p)

    def test_decoupled_mode_general_form(self):
        # Zero coupling: the mode is a driven damped oscillator.
        for n in (1, 3):
            p = ModelParams(n, 3.0, 0.0, 0.1, 0.05, 0.2, 1.0)
            amps = amplitudes_for(p)
            dt = complex_detuning(p)
            assert amps.c_g1 == pytest.approx(-p.drive_rabi / dt, rel=1e-12)


class TestOptimalConditions:
    def test_exact_phase_frozen_values(self):
        assert theta_optimal_exact(1, 1 / 70) == pytest.approx(
            0.009522109, abs=1e-8
        )
        assert theta_optimal_exact(2, 0.025) == pytest.approx(
            0.011781892, abs=1e-8
        )

    def test_exact_phase_unavailable_beyond_two_modes(self):
        assert theta_optimal_exact(3, 0.01) is None

    def test_small_decay_limit(self):
        for n, scale in ((1, 2 / 3), (2, 2 / (3 * math.sqrt(2)))):
            r = 0.01
            assert theta_optimal_exact(n, r) == pytest.approx(
                scale * r, rel=0.01
            )

    def test_exact_phase_minimizes_analytic_g2(self):
        for n, coupling in ((1, 35.0), (2, 20.0)):
            r = 1 / 70 if n == 1 else 0.025
            decay = r * coupling
            theta_star = theta_optimal_exact(n, r)
            thetas = np.linspace(0.5 * theta_star, 1.5 * theta_star, 2001)
            values = [
                g2_analytic(
                    amplitudes_for(
                        optimal_params(n, coupling, decay, 0.001, theta=t)
                    )
                )[0]
                for t in thetas
            ]
            argmin = thetas[int(np.argmin(values))]
            assert abs(argmin - theta_star) < 1e-4

    def test_single_excitation_peak_at_collective_splitting(self):
        n, coupling, decay = 2, 20.0, 0.1
        deltas = np.linspace(0.8, 1.2, 101) * math.sqrt(n) * coupling
        occ = [
            amplitudes_for(
                ModelParams(n, d, coupling, 0.0, 0.001, 0.0, decay)
            ).p_g1
            for d in deltas
        ]
        argmax = deltas[int(np.argmax(occ))]
        step = deltas[1] - deltas[0]
        assert abs(argmax - math.sqrt(n) * coupling) <= step

    def test_two_excitation_coefficient_root_at_optimum(self):
        # At delta = sqrt(N) J, probe = 3 sqrt(N) drive, theta = 0 and
        # vanishing decay, the two-excitation numerator coefficient vanishes.
        for n in range(1, 6):
            p = optimal_params(n, 20.0, 1e-300, 0.01, theta=0.0)
            inter = intermediates(p)
            scale = p.coupling * p.probe_rabi
            assert abs(inter.a_coeff) < 1e-10 * scale

    def test_conditions_bundle(self):
        cond = optimal_conditions(2, 0.025)
        assert cond.delta_over_j == pytest.approx(math.sqrt(2))
        assert cond.probe_over_drive == pytest.approx(3 * math.sqrt(2))
        assert cond.theta_general == pytest.approx(2 * 0.025 / (3 * math.sqrt(2)))
        assert cond.theta_exact == pytest.approx(theta_optimal_exact(2, 0.025))

    def test_conditions_validation(self):
        with pytest.raises(ValueError):
            optimal_conditions(0, 0.1)
        with pytest.raises(ValueError):
            optimal_conditions(1, 0.0)
