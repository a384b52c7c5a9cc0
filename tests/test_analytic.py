import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magnon_blockade.analytic import (
    SINGULAR_RTOL,
    ResonanceError,
    amplitudes_for,
    complex_detuning,
    optimal_conditions,
    theta_optimal_exact,
)
from magnon_blockade.model import ModelParams
from oracles import ansatz_g2, ansatz_system, closed_form_probabilities, intermediates


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


def amplitude_vector(amps, size):
    return np.array([amps.c_e0, amps.c_g1, amps.c_e1, amps.c_g11, amps.c_g12][:size])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    n_modes=st.integers(1, 4),
    coupling=st.floats(5.0, 40.0),
    r=st.floats(0.01, 2.0),
    drive=st.floats(1e-4, 0.3),
    near_dip=st.booleans(),
    detuning_over_j=st.floats(-3.0, 3.0),
    probe_over_drive=st.floats(0.0, 10.0),
    phase=st.floats(-math.pi, math.pi),
)
@example(n_modes=1, coupling=35.0, r=1 / 70, drive=0.001, near_dip=True,
         detuning_over_j=0.0, probe_over_drive=0.0, phase=0.0)
@example(n_modes=2, coupling=20.0, r=0.025, drive=0.1, near_dip=True,
         detuning_over_j=0.0, probe_over_drive=0.0, phase=0.0)
def test_closed_form_solves_the_ansatz_system(
    n_modes, coupling, r, drive, near_dip, detuning_over_j, probe_over_drive, phase
):
    # The closed form against the linear system it eliminates: every row holds
    # to 1e-12 of that row's scale, and LAPACK's solve agrees to 1e-12.  Near
    # the dip (the paper's ratios, the phase within 5% of the optimum) c_g11
    # comes from a cancellation.
    if near_dip:
        cond = optimal_conditions(n_modes, r)
        detuning_over_j, probe_over_drive = cond.delta_over_j, cond.probe_over_drive
        phase = cond.theta_exact * (1 + phase / (20 * math.pi))
    p = ModelParams(n_modes, detuning_over_j * coupling, coupling, probe_over_drive * drive,
                    drive, phase, r * coupling)
    mat, rhs = ansatz_system(p)
    c = amplitude_vector(amplitudes_for(p), len(rhs))
    row_scale = np.abs(mat) @ np.abs(c) + np.abs(rhs)
    assert np.all(np.abs(mat @ c - rhs) <= 1e-12 * row_scale)
    solved = np.linalg.solve(mat, rhs)
    assert np.linalg.norm(c - solved) <= 1e-12 * np.linalg.norm(solved)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    n_modes=st.integers(1, 3),
    coupling=st.floats(5.0, 40.0),
    detuning_over_j=st.floats(-3.0, 3.0),
    probe=st.floats(0.0, 1.0),
    drive=st.floats(1e-4, 1.0),
    phase=st.floats(-math.pi, math.pi),
    decay=st.floats(0.05, 5.0),
)
@example(n_modes=1, coupling=35.0, detuning_over_j=1.0, probe=0.003, drive=0.001,
         phase=theta_optimal_exact(1, 1 / 70), decay=0.5)
@example(n_modes=2, coupling=20.0, detuning_over_j=math.sqrt(2), probe=3e-3 * math.sqrt(2),
         drive=0.001, phase=theta_optimal_exact(2, 0.025), decay=0.5)
def test_one_call_reads_g2_and_p1_off_its_amplitudes(
    n_modes, coupling, detuning_over_j, probe, drive, phase, decay
):
    # amplitudes_for returns P1 and g2 with the amplitudes; each must be
    # exactly the formula of the amplitudes it returns, bit for bit, and the
    # certificate exactly |c_g1| > 10 max(|c_e1|, |c_g11|, |c_g12|).
    p = ModelParams(n_modes, detuning_over_j * coupling, coupling, probe, drive, phase, decay)
    amps = amplitudes_for(p)
    m_g1 = abs(amps.c_g1)
    assert amps.p_g1 == m_g1 * m_g1
    assert amps.g2 == ansatz_g2(amps.c_g1, amps.c_e1, amps.c_g11, amps.c_g12)
    assert type(amps.p_g1) is float and type(amps.g2) is float
    assert amps.weak_drive_certified == (
        m_g1 > 10 * max(abs(amps.c_e1), abs(amps.c_g11), abs(amps.c_g12)))


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
        leading = 2 * amps.p_g11 / amps.p_g1**2
        assert amps.weak_drive_certified
        assert amps.g2 == pytest.approx(leading, rel=1e-3)

    def test_vanishing_single_excitation_rejected(self):
        p = ModelParams(1, 5.0, 5.0, 1.0, 0.0, 0.0, 0.5)
        # probe = 5 * drive with delta = J makes c_g1 = 0 only for a tuned
        # combination; instead force it via drive_rabi = probe_rabi = 0.
        p = p.with_(probe_rabi=0.0, drive_rabi=0.0)
        with pytest.raises(ZeroDivisionError, match="^vanishing single-excitation amplitude$"):
            amplitudes_for(p)

    def test_results_are_builtin_floats(self):
        # Parameters taken from numpy arrays still give builtin numbers.
        coupling, decay, drive, theta = np.array([20.0, 0.5, 0.01, 0.005])
        for n in (1, 2, 3):
            p = optimal_params(n, coupling, decay, drive, theta)
            amps = amplitudes_for(p)
            assert type(amps.p_g1) is float and type(amps.c_g1) is complex
            assert type(amps.g2) is float

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

    def test_finite_just_outside_either_resonance(self):
        # Each real denominator (kappa -> 0) set to +-2 SINGULAR_RTOL of the
        # scale max(|dt|^2, N J^2) that the resonance check compares it with.
        j, rho = 20.0, 2 * SINGULAR_RTOL
        for n in (1, 2, 3):
            pair = 2 if n == 2 else 1
            for sign in (1, -1):
                single = n * j**2 * (1 + sign * rho)
                double = (pair * j**2 + sign * rho * n * j**2) / 2
                for delta_sq in (single, double):
                    p = ModelParams(n, math.sqrt(delta_sq), j, 0.3, 0.1, 0.0, 1e-300)
                    amps = amplitudes_for(p)
                    assert all(
                        math.isfinite(abs(c))
                        for c in (amps.c_e0, amps.c_g1, amps.c_e1, amps.c_g11, amps.c_g12)
                    )
                    assert math.isfinite(amps.g2)

    def test_non_finite_amplitudes_rejected(self):
        # The drives overflow |c_e0|^2 at N = 2; the detuning and the
        # coupling overflow the single-excitation denominator dt^2 - N J^2.
        for p, quantity in (
            (ModelParams(2, 20.0, 20.0, 1e300, 1e300, 0.01, 0.5), r"\|c_e0\|\^2"),
            (ModelParams(1, 1e160, 1e160, 0.3, 0.1, 0.0, 0.5), "single-excitation denominator"),
        ):
            with pytest.raises(ValueError, match=f"^{quantity}.* is not finite"):
                amplitudes_for(p)

    def test_overflowing_hand_built_set_rejected(self):
        # Drives hand-picked as powers of two with N J om = Delta oq build a
        # set whose c_e0 and |c_g1| ~ 2^660 are finite but |c_g1|^2 overflows
        # to inf; the failure is named, not a bare OverflowError.
        p = ModelParams(1, 2.0, 1.0, 2.0**659, 2.0**660, 0.0, 2.0**-660)
        mat, rhs = ansatz_system(p)
        c_e0, c_g1 = np.linalg.solve(mat[:2, :2], rhs[:2])
        m_g1 = abs(complex(c_g1))
        assert math.isfinite(abs(complex(c_e0)) ** 2) and math.isfinite(m_g1)
        assert m_g1 * m_g1 == math.inf
        with pytest.raises(ValueError, match=r"^\|c_g1\|\^2 is not finite"):
            amplitudes_for(p)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("delta, name", [
        (1.2e154, "two-excitation"),  # dt^2 finite, 2 dt^2 is inf
        (1e160, "single-excitation"),  # dt^2 itself is inf
    ])
    def test_infinite_denominator_rejected(self, n, delta, name):
        # abs(inf) exceeds any singular tolerance: the denominator must also be
        # tested for finiteness, or the ansatz divides by inf.
        p = ModelParams(n, delta, 1.0, 0.3, 0.1, 0.0, 0.5)
        with pytest.raises(ValueError, match=f"^{name} denominator is not finite "):
            amplitudes_for(p)

    def test_overflowing_norm_rejected(self):
        # Every |c|^2 is finite (about 1e273 at most), but the squared norm of
        # the ansatz is not; the |c|^2 checks run first, so only this one fires.
        p = ModelParams(1, 35.0, 35.0, 1e70, 1e70, 0.0, 0.5)
        mat, rhs = ansatz_system(p)
        assert np.all(np.isfinite(np.abs(np.linalg.solve(mat, rhs)) ** 2))
        with pytest.raises(ValueError, match="^squared norm of the ansatz is not finite"):
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

    def test_exact_phase_follows_bright_mode_map(self):
        # N modes act as one bright mode with r scaled by 1 / sqrt(N).
        for n in (2, 3, 5):
            for r in (0.01, 0.025, 0.3, 0.5, 1.0):
                assert theta_optimal_exact(n, r) == theta_optimal_exact(1, r / math.sqrt(n))

    def test_exact_phase_matches_one_and_two_mode_closed_forms(self):
        for r in (1 / 70, 0.025, 0.3, 0.5, 1.0):
            one = r * (8 + r**2) / (12 * (1 + r**2))
            two = r * (16 + r**2) / (12 * math.sqrt(2) * (2 + r**2))
            assert theta_optimal_exact(1, r) == one
            assert abs(theta_optimal_exact(2, r) - two) <= math.ulp(two)

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
                amplitudes_for(optimal_params(n, coupling, decay, 0.001, theta=t)).g2
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
        for n, r, message in (
            (0, 0.1, "n_modes must be at least 1"),
            (2.5, 0.1, "n_modes must be an integer, got 2.5"),
            (2.0, 0.1, "n_modes must be an integer, got 2.0"),
            (True, 0.1, "n_modes must be an integer, got True"),
            (1, 0.0, "r must be positive"),
            (3, -0.5, "r must be positive"),
            (3, math.nan, "r must be finite, got nan"),
            (3, math.inf, "r must be finite, got inf"),
        ):
            for func in (optimal_conditions, theta_optimal_exact):
                with pytest.raises(ValueError, match=message):
                    func(n, r)
        # N is checked as HilbertSpec checks it: NumPy integers pass.
        assert optimal_conditions(np.int64(2), 0.1) == optimal_conditions(2, 0.1)
