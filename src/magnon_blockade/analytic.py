"""Few-excitation pure-state model and closed-form optimal conditions.

The model truncates the driven system at two excitations and evolves it
with the non-Hermitian Hamiltonian (effective Hamiltonian minus
i kappa/2 times the excitation number), which is accurate in the
weak-drive regime.  Amplitudes are normalized so that the vacuum
amplitude is 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .model import ModelParams, check_integer

#: Relative size below which a resonance denominator is treated as singular.
SINGULAR_RTOL = 1e-12
SQRT2 = math.sqrt(2)


class ResonanceError(ZeroDivisionError):
    """A closed-form denominator vanished at a resonance condition."""


@dataclass(slots=True)
class AmplitudeSet:
    """Steady amplitudes of the two-excitation ansatz, vacuum-normalized,
    and the observables that :func:`amplitudes_for` reads off them.

    c_g1 is the single excitation of mode 1; c_g11 holds two quanta in
    mode 1; c_g12 holds one quantum each in modes 1 and 2 (zero for N = 1,
    and dropped by the general-N weak-drive approximation); c_e1 is the
    qubit excited with one quantum in mode 1.  p_g1 = |c_g1|^2 is P1;
    g2 = 2 |c_g11|^2 / norm^2, with the full two-excitation norm
    |c_g1|^2 + |c_e1|^2 + |c_g12|^2 + 2 |c_g11|^2; weak_drive_certified
    records whether the hierarchy |c_g1| > 10 max(|c_e1|, |c_g11|, |c_g12|) holds.
    """

    c_e0: complex
    c_g1: complex
    c_e1: complex
    c_g11: complex
    c_g12: complex
    p_g1: float
    g2: float
    weak_drive_certified: bool

    @property
    def p_g11(self) -> float:
        return abs(self.c_g11) * abs(self.c_g11)


def complex_detuning(p: ModelParams) -> complex:
    return complex(p.delta, -0.5 * p.decay)


def _check_denominator(value: complex, scale: float, name: str):
    _check_finite(f"{name} denominator", value)
    if abs(value) <= SINGULAR_RTOL * max(scale, 1e-300):
        raise ResonanceError(f"singular denominator at the {name} resonance")


def _check_finite(name: str, value: complex):
    if not cmath.isfinite(value):
        raise ValueError(f"{name} is not finite ({value}): the ansatz overflows")


def amplitudes_for(p: ModelParams) -> AmplitudeSet:
    """Steady amplitudes of the symmetric two-excitation ansatz for N modes,
    with P1 = |c_g1|^2 and g2 read off them: the analytic engine's one call.

    Solves the truncated non-Hermitian steady equations, in which N enters
    only through the couplings N J (vacuum to single excitation) and
    (N - 1) J (qubit excitation to the cross state).  The cross amplitude
    c_g12 is kept at N = 2, where the ansatz is then exact; at N >= 3 it is
    dropped, which is the paper's general-N weak-drive form.

    The block lower-triangular equations are eliminated in closed form: with
    dt = Delta - i kappa / 2 and x = 1 at N = 2 (else 0), only
    s = dt^2 - N J^2 and p = 2 dt^2 - (1 + x) J^2 divide (the determinant
    is 4 dt s p, or 2 s p without c_g12).  Raises, in this order:
    ResonanceError when s or p vanishes relative to max(|dt|^2, N J^2);
    ValueError naming a denominator or |c|^2 that is not finite;
    ZeroDivisionError when c_g1 vanishes, so g2 is undefined; and
    ValueError when the squared norm of the ansatz is not finite.
    """
    n = p.n_modes
    j, om = float(p.coupling), float(p.drive_rabi)
    dt = complex_detuning(p)
    oq = cmath.rect(p.probe_rabi, -p.phase)
    # Keeping c_g12 at N >= 3 would change the N >= 3 outputs that
    # perfbench/reference.json pins, so the general-N form stays there.
    cross = n == 2
    jj, dt2 = j * j, dt * dt
    s = dt2 - n * jj
    pair = 2 * dt2 - (2 * jj if cross else jj)
    scale = max(abs(dt) * abs(dt), n * jj)
    # _check_denominator's rule for both at once, so that its messages are
    # formatted only on failure; abs(inf) > tol, so isfinite is needed too.
    tol = SINGULAR_RTOL * max(scale, 1e-300)
    if not (cmath.isfinite(s) and cmath.isfinite(pair) and abs(s) > tol and abs(pair) > tol):
        _check_denominator(s, scale, "single-excitation")
        _check_denominator(pair, scale, "two-excitation")
    c_e0 = (n * j * om - dt * oq) / s
    c_g1 = (j * oq - dt * om) / s
    source = om * c_e0 + oq * c_g1
    c_e1 = ((2 * j if cross else j) * om * c_g1 - dt * source) / pair
    u = (2 * dt * om * c_g1 - j * source) / pair  # (om c_g1 + j c_e1) / dt
    c_g11 = -u / SQRT2
    c_g12 = -u if cross else 0j
    m_e0, m_g1, m_e1, m_g11, m_g12 = abs(c_e0), abs(c_g1), abs(c_e1), abs(c_g11), abs(c_g12)
    p_e0, p_g1, p_e1, p_g11, p_g12 = (
        m_e0 * m_e0, m_g1 * m_g1, m_e1 * m_e1, m_g11 * m_g11, m_g12 * m_g12)
    numerator = 2 * p_g11
    norm = p_g1 + p_e1 + p_g12 + numerator
    norm_sq = norm * norm
    # One guard for the checks below, so that their messages are formatted
    # only on failure: p_e0 + norm_sq is finite only if every |c|^2 is.
    if not (math.isfinite(p_e0 + norm_sq) and p_g1):
        for name, square in zip(("c_e0", "c_g1", "c_e1", "c_g11", "c_g12"),
                                (p_e0, p_g1, p_e1, p_g11, p_g12)):
            _check_finite(f"|{name}|^2", square)
        if p_g1 == 0:
            raise ZeroDivisionError("vanishing single-excitation amplitude")
        _check_finite("squared norm of the ansatz", norm_sq)
    certified = m_g1 > 10 * m_e1 and m_g1 > 10 * m_g11 and m_g1 > 10 * m_g12
    return AmplitudeSet(c_e0, c_g1, c_e1, c_g11, c_g12, p_g1, numerator / norm_sq, certified)


@dataclass(frozen=True)
class OptimalConditions:
    """Blockade-optimizing parameter ratios for N modes at a given r = kappa/J.

    N modes sharing J, Omega_m, Delta and kappa act as one bright mode with
    J and Omega_m times sqrt(N), so r becomes r / sqrt(N): Delta = sqrt(N) J,
    Omega_q = 3 sqrt(N) Omega_m and theta_exact = theta_1(r / sqrt(N)),
    theta_1(s) = s (8 + s^2) / (12 (1 + s^2)), a stationary phase of the
    one-mode ansatz, not the argmin of g2 (0.179497 against 0.187187 at
    r = 0.5, N = 3); theta_general = 2 r / (3 sqrt(N)) is their small-r limit.
    The N >= 3 analytic engine drops the cross amplitude: its g2 reads 0.25
    to 0.44 decades low, at the same argmin.  A mode's Fock populations are
    the bright mode's thinned with eta = 1 / N, so P1 halves from N = 1 to 2.
    """

    delta_over_j: float
    probe_over_drive: float
    theta_general: float
    theta_exact: float


def theta_optimal_exact(n_modes: int, r: float) -> float:
    """theta*(N, r) = theta_1(r / sqrt(N)): a stationary phase, not the argmin
    of g2; see :class:`OptimalConditions`.  Raises ValueError for N that is not
    an integer >= 1, and for r not finite and positive or whose (r / sqrt(N))**2 overflows."""
    return optimal_conditions(n_modes, r).theta_exact


def optimal_conditions(n_modes: int, r: float) -> OptimalConditions:
    check_integer("n_modes", n_modes, 1)
    if not math.isfinite(r):
        raise ValueError(f"r must be finite, got {r}")
    if r <= 0:
        raise ValueError("r must be positive")
    root_n = math.sqrt(n_modes)
    s = r / root_n
    if not math.isfinite(s * s):
        raise ValueError(f"r = {r} is too large: (r / sqrt(N))**2 overflows at N = {n_modes}")
    return OptimalConditions(
        delta_over_j=root_n,
        probe_over_drive=3 * root_n,
        theta_general=2 * r / (3 * root_n),
        theta_exact=s * (8 + s**2) / (12 * (1 + s**2)),
    )
