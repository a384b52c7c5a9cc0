"""The driven qubit + N-mode model: its truncated space, parameters,
Hamiltonian parts and collapse operators.

Basis order is qubit first, then modes 1..N; the qubit basis is (g, e) and
each mode uses the ascending Fock basis |0>, ..., |n_max>.  Rates and
frequencies are in units of gamma (gamma / 2 pi = 1 MHz), angles in radians,
in the frame rotating at the common drive frequency, so only the detuning
enters the numerics.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np


def check_integer(name: str, value, minimum: int):
    """Raise ValueError naming name unless value is an integer of at least
    minimum.  NumPy integers pass; a bool does not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}")


@dataclass(frozen=True)
class HilbertSpec:
    """Dimensions of the composite qubit + N-mode space.  Both fields must be
    integers (:func:`check_integer`); a Fock cutoff below 1 leaves no mode an
    excitation sector and is rejected."""

    n_modes: int
    fock_cutoff: int

    def __post_init__(self):
        check_integer("n_modes", self.n_modes, 0)
        check_integer("fock_cutoff", self.fock_cutoff, 1)

    @property
    def local_dim(self) -> int:
        return self.fock_cutoff + 1

    @property
    def dims(self) -> tuple[int, ...]:
        return (2,) + (self.local_dim,) * self.n_modes

    @property
    def dim(self) -> int:
        return 2 * self.local_dim**self.n_modes


@dataclass(frozen=True)
class DensityMatrix:
    """State of the full composite space.  Construction checks only the shape,
    not Hermiticity, unit trace or positivity, so intermediate states pass."""

    matrix: np.ndarray
    spec: HilbertSpec

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.spec.dim, self.spec.dim):
            raise ValueError("density matrix shape does not match space dimension")
        object.__setattr__(self, "matrix", m)


def ladder_operators(spec: HilbertSpec) -> list[np.ndarray]:
    """Full-space lowering operators [sigma_minus, m_1, ..., m_N], which are
    also the collapse operators; each decays at rate kappa.

    Each site's operator is the ladder sqrt(n) |n-1><n| on its own factor
    (on the qubit that is |g><e|), in a Kronecker product with identities
    on every other site: sqrt(digit) on the diagonal that raises its digit.
    """
    digits, stride, ops = np.indices(spec.dims).reshape(len(spec.dims), -1), spec.dim, []
    for d, site in zip(spec.dims, digits):
        stride //= d  # the basis index moves by stride when this site's digit does
        ops.append(np.diag(np.sqrt(site[stride:]).astype(complex), k=stride))
    return ops


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
        check_integer("n_modes", self.n_modes, 1)
        for name in ("delta", "coupling", "probe_rabi", "drive_rabi", "phase", "decay"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.decay <= 0:
            raise ValueError("decay must be positive (no steady state otherwise)")
        if self.coupling < 0 or self.probe_rabi < 0 or self.drive_rabi < 0:
            raise ValueError("coupling and drive amplitudes must be nonnegative")
        self.hilbert_spec()  # rejects a Fock cutoff below 1 or not an integer

    def hilbert_spec(self) -> HilbertSpec:
        return HilbertSpec(self.n_modes, self.fock_cutoff)

    def with_(self, **kwargs) -> "ModelParams":
        return replace(self, **kwargs)


def hamiltonian_parts(ops: list[np.ndarray]) -> list[np.ndarray]:
    """Parameter-free Hermitian terms of the Hamiltonian, in the order of
    :func:`hamiltonian_coefficients`, from the ladders [sigma_minus, m_1,
    ..., m_N] of :func:`ladder_operators`: the total excitation number,
    sum_j (m_j sigma_+ + m_j^dag sigma_-), sigma_+ + sigma_-,
    -i sigma_+ + i sigma_- and sum_j (m_j + m_j^dag)."""
    sm, *modes = ops
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
