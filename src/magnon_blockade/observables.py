"""Blockade metrics evaluated on a steady-state density matrix."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import DensityMatrix, mode_annihilation, partial_trace

#: Smallest mode occupation for which the correlation ratio is formed.
OCCUPATION_FLOOR = 1e-14

#: Half-width of the Poissonian band around g2 = 1.
POISSONIAN_BAND = 1e-6

BUNCHING = "bunching"
POISSONIAN = "poissonian"
ANTIBUNCHING = "antibunching"


class UndefinedCorrelationError(ValueError):
    """Raised when the mode occupation is too small to normalize g2."""


def mode_occupation(rho: DensityMatrix, mode: int = 1) -> float:
    m = mode_annihilation(mode, rho.spec)
    return float(np.real(np.trace(m.conj().T @ m @ rho.matrix)))


def g2_zero_delay(rho: DensityMatrix, mode: int = 1) -> float:
    """Equal-time second-order correlation of one mode.

    Ratio of the normally ordered two-excitation moment to the squared
    occupation, evaluated on the full state.
    """
    m = mode_annihilation(mode, rho.spec)
    md = m.conj().T
    occupation = np.real(np.trace(md @ m @ rho.matrix))
    if occupation < OCCUPATION_FLOOR:
        raise UndefinedCorrelationError(
            f"mode occupation {occupation:.3e} below floor {OCCUPATION_FLOOR:.1e}: "
            "correlation function undefined"
        )
    pairs = np.real(np.trace(md @ md @ m @ m @ rho.matrix))
    return float(max(pairs, 0.0) / occupation**2)


def single_excitation_probability(rho: DensityMatrix, mode: int = 1) -> float:
    """Population of the one-excitation Fock level of the reduced mode state."""
    reduced = partial_trace(rho, mode)
    return float(np.real(reduced[1, 1]))


def classify_statistics(g2: float) -> str:
    if g2 < 0:
        raise ValueError(f"g2 must be nonnegative, got {g2}")
    if g2 > 1.0 + POISSONIAN_BAND:
        return BUNCHING
    if g2 >= 1.0 - POISSONIAN_BAND:
        return POISSONIAN
    return ANTIBUNCHING


@dataclass(frozen=True)
class BlockadeMetrics:
    """Metrics of one mode, tagged with the Fock cutoff they were computed at."""

    g2_zero: float
    p1: float
    occupation: float
    classification: str
    n_max: int

    def __post_init__(self):
        if self.g2_zero < 0:
            raise ValueError("g2_zero must be nonnegative")
        if not 0.0 <= self.p1 <= 1.0 + 1e-12:
            raise ValueError(f"p1 = {self.p1} is not a probability")


def blockade_metrics(rho: DensityMatrix, mode: int = 1) -> BlockadeMetrics:
    g2 = g2_zero_delay(rho, mode)
    return BlockadeMetrics(
        g2_zero=g2,
        p1=single_excitation_probability(rho, mode),
        occupation=mode_occupation(rho, mode),
        classification=classify_statistics(g2),
        n_max=rho.spec.fock_cutoff,
    )
