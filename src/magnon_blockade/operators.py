"""The truncated Hilbert space of one qubit and N bosonic modes, and its
lowering operators.

Basis order is qubit first, then modes 1..N; the qubit basis is (g, e) and
each mode uses the ascending Fock basis |0>, ..., |n_max>.  The engine needs
only sigma_minus and the mode lowering operators on the full space, which
:func:`ladder_operators` builds together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class HilbertSpec:
    """Dimensions of the composite qubit + N-mode space.  A Fock cutoff
    below 1 leaves no mode an excitation sector and is rejected."""

    n_modes: int
    fock_cutoff: int

    def __post_init__(self):
        if self.n_modes < 0:
            raise ValueError("n_modes must be nonnegative")
        if self.fock_cutoff < 1:
            raise ValueError("fock_cutoff must be at least 1: cutoff 0 has no excitation sector")

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


def ladder_operators(spec: HilbertSpec) -> tuple[np.ndarray, list[np.ndarray]]:
    """Full-space lowering operators: sigma_minus and [m_1, ..., m_N].

    Each site's operator is the ladder sqrt(n) |n-1><n| on its own factor
    (on the qubit that is |g><e|), in a Kronecker product with identities
    on every other site: sqrt(digit) on the diagonal that raises its digit.
    """
    digits, stride, ops = np.indices(spec.dims).reshape(len(spec.dims), -1), spec.dim, []
    for d, site in zip(spec.dims, digits):
        stride //= d  # the basis index moves by stride when this site's digit does
        ops.append(np.diag(np.sqrt(site[stride:]).astype(complex), k=stride))
    return ops[0], ops[1:]
