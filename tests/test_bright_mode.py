"""The N-mode engine held to the bright-mode map of `oracles.bright_mode`.

The map is exact, but the two truncations differ: a per-mode cutoff c
holds up to N c quanta in total, so the bright mode is solved at cutoff
N c.  The gap between them stays below the bars over these draws; it does
not everywhere in range: at J = 5, kappa = 0.1, Omega_m = 0.1, Omega_q =
10 Omega_m and Delta = sqrt(2) J, N = 2 at cutoff 4 is 1e-4 decades off.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnon_blockade.analytic import optimal_conditions
from magnon_blockade.model import ModelParams
from magnon_blockade.observables import (
    OCCUPATION_FLOOR,
    UndefinedCorrelationError,
    g2_zero_delay,
)
from magnon_blockade.steady_state import build_liouvillian, solve_steady_state
from magnon_blockade.sweep import find_minimum
from oracles import bright_mode, partial_trace, thinned


def fock_populations(rho) -> np.ndarray:
    return np.real(np.diagonal(partial_trace(rho, 1)))


def assert_matches_bright_mode(p: ModelParams, log_g2_tol: float, rtol: float):
    n = p.n_modes
    rho = solve_steady_state(build_liouvillian(p))
    rho_b = solve_steady_state(build_liouvillian(bright_mode(p, n * p.fock_cutoff)))
    populations, bright = fock_populations(rho), fock_populations(rho_b)
    occupation = np.arange(populations.size) @ populations
    occupation_b = np.arange(bright.size) @ bright
    assert occupation == pytest.approx(occupation_b / n, rel=rtol)
    assert populations[1] == pytest.approx(thinned(bright, 1 / n)[1], rel=rtol)
    if occupation_b / n < OCCUPATION_FLOOR:
        # The map puts the mode below the floor at which g2 is formed.
        with pytest.raises(UndefinedCorrelationError, match="below floor"):
            g2_zero_delay(rho)
        return
    log_g2, log_g2_b = math.log10(g2_zero_delay(rho)), math.log10(g2_zero_delay(rho_b))
    assert abs(log_g2 - log_g2_b) <= log_g2_tol


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(
    coupling=st.floats(5.0, 35.0),
    decay=st.floats(0.1, 2.0),
    drive=st.floats(1e-3, 0.1),
    detuning_over_j=st.floats(-2.0, 2.0),
    probe_over_drive=st.floats(0.0, 10.0),
    phase=st.floats(-math.pi, math.pi),
)
def test_two_modes_match_bright_mode(
    coupling, decay, drive, detuning_over_j, probe_over_drive, phase
):
    p = ModelParams(2, detuning_over_j * coupling, coupling, probe_over_drive * drive,
                    drive, phase, decay, fock_cutoff=4)
    assert_matches_bright_mode(p, log_g2_tol=1e-5, rtol=1e-8)


@pytest.mark.parametrize(
    "drive, phase",
    [(0.05, optimal_conditions(3, 1 / 20).theta_general), (0.01, -1.0)],
    ids=["on-conditions", "off-conditions"],
)
def test_three_modes_match_bright_mode(drive, phase):
    # The paper's conditions at N = 3, J = 20, kappa = 1, and a point off them.
    c = optimal_conditions(3, 1 / 20)
    p = ModelParams(3, c.delta_over_j * 20.0, 20.0, c.probe_over_drive * drive, drive,
                    phase, 1.0, fock_cutoff=3)
    assert_matches_bright_mode(p, log_g2_tol=1e-6, rtol=1e-8)


def test_three_mode_phase_argmin_is_bright_mode_argmin():
    # At r = 0.5 the numeric argmin sits well off theta_exact (0.179497); the
    # N = 3 engine and the mapped one-mode model must still find the same one.
    coupling, drive, r = 20.0, 0.001, 0.5
    c = optimal_conditions(3, r)
    p = ModelParams(3, c.delta_over_j * coupling, coupling, c.probe_over_drive * drive,
                    drive, 0.0, r * coupling, fock_cutoff=2)
    bracket = (0.8 * c.theta_exact, 1.3 * c.theta_exact)
    full, _ = find_minimum(p, "theta", bracket, n_scan=9, rel_tol=1e-7)
    bright, _ = find_minimum(bright_mode(p, 6), "theta", bracket, n_scan=9, rel_tol=1e-7)
    assert bright == pytest.approx(full, rel=1e-6)
