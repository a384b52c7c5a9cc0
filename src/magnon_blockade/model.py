"""Physical parameters and Hamiltonian / dissipator assembly.

All rates and frequencies are expressed in units of the reference rate
gamma (gamma / 2 pi = 1 MHz); angles are in radians.  Everything lives in
the frame rotating at the common drive frequency, so only the detuning
enters the numerics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .operators import HilbertSpec, ladder_operators


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
        self.hilbert_spec()  # rejects a Fock cutoff below 1

    def hilbert_spec(self) -> HilbertSpec:
        return HilbertSpec(self.n_modes, self.fock_cutoff)

    def with_(self, **kwargs) -> "ModelParams":
        return replace(self, **kwargs)


def hamiltonian_parts(spec: HilbertSpec) -> list[np.ndarray]:
    """Parameter-free Hermitian terms of the Hamiltonian, in the order of
    :func:`hamiltonian_coefficients`: the total excitation number,
    sum_j (m_j sigma_+ + m_j^dag sigma_-), sigma_+ + sigma_-,
    -i sigma_+ + i sigma_- and sum_j (m_j + m_j^dag)."""
    sm, modes = ladder_operators(spec)
    sp = sm.conj().T
    number, exchange, mode_drive = sp @ sm, np.zeros_like(sm), np.zeros_like(sm)
    for m in modes:
        number = number + m.conj().T @ m
        exchange = exchange + (m @ sp + m.conj().T @ sm)
        mode_drive = mode_drive + (m.conj().T + m)
    return [number, exchange, sp + sm, -1j * sp + 1j * sm, mode_drive]


def hamiltonian_coefficients(p: ModelParams) -> tuple[float, ...]:
    """Real weights of :func:`hamiltonian_parts`: (Delta, J, Omega_q cos theta,
    Omega_q sin theta, Omega_m)."""
    q = p.probe_rabi
    return (p.delta, p.coupling, q * math.cos(p.phase), q * math.sin(p.phase), p.drive_rabi)


def build_dissipators(spec: HilbertSpec) -> list[np.ndarray]:
    """Collapse operators [sigma_minus, m_1, ..., m_N]; each decays at rate kappa."""
    sm, modes = ladder_operators(spec)
    return [sm] + modes
