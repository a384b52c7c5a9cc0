"""Operators on the truncated Hilbert space of one qubit and N bosonic modes.

Basis order is qubit first, then modes 1..N; the qubit basis is (g, e) and
each mode uses the ascending Fock basis |0>, ..., |n_max>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class HilbertSpec:
    """Dimensions of the composite qubit + N-mode space."""

    n_modes: int
    fock_cutoff: int

    def __post_init__(self):
        if self.n_modes < 0:
            raise ValueError("n_modes must be nonnegative")
        if self.fock_cutoff < 0:
            raise ValueError("fock_cutoff must be nonnegative")

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
    """State of the full composite space.

    Construction checks only the shape, not Hermiticity, unit trace or
    positivity, so that intermediate numerical states can be carried around.
    """

    matrix: np.ndarray
    spec: HilbertSpec

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.spec.dim, self.spec.dim):
            raise ValueError("density matrix shape does not match space dimension")
        object.__setattr__(self, "matrix", m)


def fock_annihilation(n_max: int) -> np.ndarray:
    """Single-mode bosonic annihilation operator on a Fock space cut at n_max.

    Entry (n-1, n) equals sqrt(n); the matrix has dimension n_max + 1.
    """
    if n_max < 1:
        raise ValueError("no excitation sector: fock cutoff must be at least 1")
    return np.diag(np.sqrt(np.arange(1, n_max + 1)), k=1).astype(complex)


def qubit_lowering() -> np.ndarray:
    """Qubit lowering operator in the (g, e) basis: |g><e|."""
    return np.array([[0, 1], [0, 0]], dtype=complex)


def embed(op: np.ndarray, site: int, spec: HilbertSpec) -> np.ndarray:
    """Embed a single-subsystem operator into the full space.

    Site 0 is the qubit, sites 1..N are the modes.
    """
    dims = spec.dims
    if not 0 <= site < len(dims):
        raise ValueError(f"site {site} out of range for {spec.n_modes} modes")
    op = np.asarray(op, dtype=complex)
    if op.shape != (dims[site], dims[site]):
        raise ValueError(
            f"operator of dimension {op.shape[0]} cannot act on subsystem "
            f"{site} of local dimension {dims[site]}"
        )
    full = np.eye(1, dtype=complex)
    for k, d in enumerate(dims):
        full = np.kron(full, op if k == site else np.eye(d, dtype=complex))
    return full


def partial_trace(rho: DensityMatrix, keep: int) -> np.ndarray:
    """Reduced density matrix of one subsystem (0 = qubit, 1..N = modes)."""
    dims = rho.spec.dims
    if not 0 <= keep < len(dims):
        raise ValueError(f"subsystem {keep} out of range for {rho.spec.n_modes} modes")
    n_sub = len(dims)
    tensor = rho.matrix.reshape(dims + dims)
    # Contract the row/column indices of every traced subsystem.
    row = list(range(n_sub))
    col = [k if k != keep else n_sub for k in range(n_sub)]
    reduced = np.einsum(tensor, row + col, [keep, n_sub])
    return np.ascontiguousarray(reduced)


def mode_annihilation(mode: int, spec: HilbertSpec) -> np.ndarray:
    """Full-space annihilation operator of one mode (1-based mode index)."""
    if not 1 <= mode <= spec.n_modes:
        raise ValueError(f"mode {mode} out of range for {spec.n_modes} modes")
    return embed(fock_annihilation(spec.fock_cutoff), mode, spec)


def qubit_sigma_minus(spec: HilbertSpec) -> np.ndarray:
    """Full-space qubit lowering operator."""
    return embed(qubit_lowering(), 0, spec)
