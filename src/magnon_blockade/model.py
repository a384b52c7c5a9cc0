"""Physical parameters and Hamiltonian / dissipator assembly.

All rates and frequencies are expressed in units of the reference rate
gamma (gamma / 2 pi = 1 MHz); angles are in radians.  Everything lives in
the frame rotating at the common drive frequency, so only the detuning
enters the numerics.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .operators import HilbertSpec, mode_annihilation, qubit_sigma_minus

#: Minimum |detuning| / coupling ratio for the dispersive elimination to be trusted.
DISPERSIVE_RATIO_MIN = 5.0


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the driven qubit + N-mode model.

    decay is the common rate of the qubit and every mode; the dissipator
    convention carries a kappa/2 prefactor in front of the two-sided
    Lindblad form, so a lone excited qubit population decays at rate kappa.
    """

    n_modes: int
    delta: float
    coupling: float
    probe_rabi: float
    drive_rabi: float
    phase: float
    decay: float
    fock_cutoff: int = 4

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("n_modes must be at least 1")
        for name in ("delta", "coupling", "probe_rabi", "drive_rabi", "phase", "decay"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.decay <= 0:
            raise ValueError("decay must be positive (no steady state otherwise)")
        if self.coupling < 0 or self.probe_rabi < 0 or self.drive_rabi < 0:
            raise ValueError("coupling and drive amplitudes must be nonnegative")
        if self.fock_cutoff < 1:
            raise ValueError("fock_cutoff must be at least 1")

    def hilbert_spec(self) -> HilbertSpec:
        return HilbertSpec(self.n_modes, self.fock_cutoff)

    def with_(self, **kwargs) -> "ModelParams":
        return replace(self, **kwargs)


def hamiltonian_parts(spec: HilbertSpec) -> list[np.ndarray]:
    """Parameter-free Hermitian terms of the Hamiltonian, in the order of
    :func:`hamiltonian_coefficients`: the total excitation number,
    sum_j (m_j sigma_+ + m_j^dag sigma_-), sigma_+ + sigma_-,
    -i sigma_+ + i sigma_- and sum_j (m_j + m_j^dag)."""
    sm = qubit_sigma_minus(spec)
    sp = sm.conj().T
    number, exchange, mode_drive = sp @ sm, np.zeros_like(sm), np.zeros_like(sm)
    for j in range(1, spec.n_modes + 1):
        m = mode_annihilation(j, spec)
        number = number + m.conj().T @ m
        exchange = exchange + (m @ sp + m.conj().T @ sm)
        mode_drive = mode_drive + (m.conj().T + m)
    return [number, exchange, sp + sm, -1j * sp + 1j * sm, mode_drive]


def hamiltonian_coefficients(p: ModelParams) -> tuple[float, ...]:
    """Real weights of :func:`hamiltonian_parts`: (Delta, J, Omega_q cos theta,
    Omega_q sin theta, Omega_m)."""
    q = p.probe_rabi
    return (p.delta, p.coupling, q * math.cos(p.phase), q * math.sin(p.phase), p.drive_rabi)


def build_effective_hamiltonian(p: ModelParams) -> np.ndarray:
    """Rotating-frame Hamiltonian of the driven qubit + N-mode system."""
    parts = hamiltonian_parts(p.hilbert_spec())
    return sum(c * h for c, h in zip(hamiltonian_coefficients(p), parts))


def build_dissipators(spec: HilbertSpec) -> list[np.ndarray]:
    """Collapse operators [sigma_minus, m_1, ..., m_N]; each decays at rate kappa."""
    return [qubit_sigma_minus(spec)] + [
        mode_annihilation(j, spec) for j in range(1, spec.n_modes + 1)
    ]


@dataclass(frozen=True)
class CavityMediatedParams:
    """Couplings and detunings of the two-arm cavity realization.

    Each arm j holds one mode coupled to its cavity with strength
    magnon_cavity_couplings[j]; the qubit couples to cavity j with
    qubit_cavity_couplings[j].  qubit_magnon_detunings[j] is the
    qubit-mode detuning entering the effective exchange coupling;
    qubit_cavity_detunings[j] enters the qubit frequency shift.  (The
    source model is ambiguous about which detuning the qubit shift uses;
    both are exposed and the identification is documented here.)
    """

    qubit_cavity_couplings: tuple[float, ...]
    magnon_cavity_couplings: tuple[float, ...]
    qubit_magnon_detunings: tuple[float, ...]
    qubit_cavity_detunings: tuple[float, ...]

    def __post_init__(self):
        n = len(self.qubit_cavity_couplings)
        for name in (
            "magnon_cavity_couplings",
            "qubit_magnon_detunings",
            "qubit_cavity_detunings",
        ):
            if len(getattr(self, name)) != n:
                raise ValueError("all per-arm parameter lists must have equal length")


@dataclass(frozen=True)
class EffectiveCoupling:
    """Result of the adiabatic elimination of the cavity arms."""

    couplings: tuple[float, ...]
    qubit_shift: float
    mode_shifts: tuple[float, ...]
    dispersive_ok: bool


def derive_effective_params(c: CavityMediatedParams) -> EffectiveCoupling:
    """Effective exchange couplings J_j = g_q g_m / Delta_m and dispersive shifts.

    Emits a warning (and flags the result) when any |Delta_m| / max(g_q, g_m)
    ratio falls below DISPERSIVE_RATIO_MIN.
    """
    couplings = []
    mode_shifts = []
    ok = True
    for g_q, g_m, d_m in zip(
        c.qubit_cavity_couplings,
        c.magnon_cavity_couplings,
        c.qubit_magnon_detunings,
    ):
        if d_m == 0:
            raise ZeroDivisionError(
                "qubit-magnon detuning is zero: adiabatic elimination is singular"
            )
        g_scale = max(abs(g_q), abs(g_m))
        if g_scale > 0 and abs(d_m) / g_scale < DISPERSIVE_RATIO_MIN:
            ok = False
        couplings.append(g_q * g_m / d_m)
        mode_shifts.append(g_m**2 / d_m)
    qubit_shift = 0.0
    for g_q, d_c in zip(c.qubit_cavity_couplings, c.qubit_cavity_detunings):
        if d_c == 0:
            raise ZeroDivisionError(
                "qubit-cavity detuning is zero: adiabatic elimination is singular"
            )
        qubit_shift += g_q**2 / d_c
    if not ok:
        warnings.warn(
            "dispersive validity ratio below "
            f"{DISPERSIVE_RATIO_MIN}: effective couplings are unreliable",
            stacklevel=2,
        )
    return EffectiveCoupling(
        couplings=tuple(couplings),
        qubit_shift=qubit_shift,
        mode_shifts=tuple(mode_shifts),
        dispersive_ok=ok,
    )


def params_from_cavity_mediated(
    c: CavityMediatedParams,
    *,
    delta: float,
    probe_rabi: float,
    drive_rabi: float,
    phase: float,
    decay: float,
    fock_cutoff: int = 4,
) -> ModelParams:
    """Map the eliminated two-arm model onto ModelParams with a common J.

    The per-arm couplings are averaged (the symmetric realization assumes
    they are equal); the dispersive shifts are taken as already absorbed
    into the common detuning supplied by the caller.
    """
    eff = derive_effective_params(c)
    j = float(np.mean(eff.couplings))
    return ModelParams(
        n_modes=len(eff.couplings),
        delta=delta,
        coupling=j,
        probe_rabi=probe_rabi,
        drive_rabi=drive_rabi,
        phase=phase,
        decay=decay,
        fock_cutoff=fock_cutoff,
    )


def single_excitation_energies(p: ModelParams) -> np.ndarray:
    """Eigenvalues of the undriven Hamiltonian in the one-excitation sector.

    The N degenerate modes hybridize with the qubit into one bright pair at
    delta +- sqrt(N) J and N - 1 dark states at delta.
    """
    q = p.with_(probe_rabi=0.0, drive_rabi=0.0, fock_cutoff=1)
    h = build_effective_hamiltonian(q)
    one = np.isclose(np.diag(hamiltonian_parts(q.hilbert_spec())[0]).real, 1.0)
    block = h[np.ix_(one, one)]
    return np.linalg.eigvalsh(block)
