"""Blockade metrics evaluated on a steady-state density matrix."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import DensityMatrix, partial_trace

#: Smallest mode occupation for which the correlation ratio is formed.
OCCUPATION_FLOOR = 1e-14

#: Negative two-excitation moment, relative to the squared occupation,
#: still read as round-off.
NEGATIVE_MOMENT_RTOL = 1e-12

#: Half-width of the Poissonian band around g2 = 1.
POISSONIAN_BAND = 1e-6

BUNCHING = "bunching"
POISSONIAN = "poissonian"
ANTIBUNCHING = "antibunching"


class UndefinedCorrelationError(ValueError):
    """Raised when g2 cannot be formed: the mode occupation is below the
    floor, or the two-excitation moment is negative beyond round-off."""


def _fock_moments(rho: DensityMatrix, mode: int) -> tuple[float, float, float]:
    """Occupation <n>, pair moment <n (n - 1)> and P1 of one mode.

    All three come from the diagonal of the mode's reduced state, the Fock
    populations P_n.
    """
    if not 1 <= mode <= rho.spec.n_modes:
        raise ValueError(f"mode {mode} out of range for {rho.spec.n_modes} modes")
    if rho.spec.fock_cutoff < 1:
        raise ValueError("no excitation sector: fock cutoff must be at least 1")
    populations = np.real(np.diagonal(partial_trace(rho, mode)))
    n = np.arange(populations.size)
    return (
        float(n @ populations),
        float(n * (n - 1) @ populations),
        float(populations[1]),
    )


def _g2_ratio(occupation: float, pairs: float) -> float:
    if occupation < OCCUPATION_FLOOR:
        raise UndefinedCorrelationError(
            f"mode occupation {occupation:.3e} below floor {OCCUPATION_FLOOR:.1e}: "
            "correlation function undefined"
        )
    if pairs < -NEGATIVE_MOMENT_RTOL * occupation**2:
        raise UndefinedCorrelationError(
            f"two-excitation moment {pairs:.3e} is negative at occupation "
            f"{occupation:.3e}: the state is not positive"
        )
    return max(pairs, 0.0) / occupation**2


def mode_occupation(rho: DensityMatrix, mode: int = 1) -> float:
    return _fock_moments(rho, mode)[0]


def g2_zero_delay(rho: DensityMatrix, mode: int = 1) -> float:
    """Equal-time second-order correlation of one mode.

    Ratio of the normally ordered two-excitation moment to the squared
    occupation.  A moment below -NEGATIVE_MOMENT_RTOL * occupation^2 means
    the state lost positivity and raises UndefinedCorrelationError; smaller
    negative round-off reads as zero.
    """
    occupation, pairs, _ = _fock_moments(rho, mode)
    return _g2_ratio(occupation, pairs)


def single_excitation_probability(rho: DensityMatrix, mode: int = 1) -> float:
    """Population of the one-excitation Fock level of the reduced mode state."""
    return _fock_moments(rho, mode)[2]


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
    occupation, pairs, p1 = _fock_moments(rho, mode)
    g2 = _g2_ratio(occupation, pairs)
    return BlockadeMetrics(
        g2_zero=g2,
        p1=p1,
        occupation=occupation,
        classification=classify_statistics(g2),
        n_max=rho.spec.fock_cutoff,
    )
