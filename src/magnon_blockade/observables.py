"""Blockade metrics evaluated on a steady-state density matrix.

The solve is mode-symmetric by construction, so mode 1 stands for every
mode: g2 and P1 are the paper's values "for each magnon".  All of them
come from mode 1's Fock populations, read off the diagonal of the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DensityMatrix

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
    """Raised when g2 cannot be formed: a moment is not finite, the occupation
    is below the floor, or the pair moment is negative beyond round-off."""


def _fock_moments(rho: DensityMatrix) -> tuple[float, float, float]:
    """Occupation <n>, pair moment <n (n - 1)> and P1 of mode 1.

    All three come from the mode's Fock populations P_n: the diagonal of rho,
    reshaped to one axis per subsystem and summed over every axis but mode 1's.
    """
    diagonal = np.real(np.diagonal(rho.matrix)).reshape(rho.spec.dims)
    populations = diagonal.sum(axis=(0, *range(2, diagonal.ndim)))
    n = np.arange(populations.size)
    return (
        float(n @ populations),
        float(n * (n - 1) @ populations),
        float(populations[1]),
    )


def _g2_ratio(occupation: float, pairs: float) -> float:
    if not np.isfinite([occupation, pairs]).all():
        raise UndefinedCorrelationError(
            f"mode occupation {occupation:.3e} or pair moment {pairs:.3e} is not finite"
        )
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


def g2_zero_delay(rho: DensityMatrix) -> float:
    """Equal-time second-order correlation of mode 1.

    Ratio of the normally ordered two-excitation moment to the squared
    occupation.  A moment below -NEGATIVE_MOMENT_RTOL * occupation^2 means
    the state lost positivity and raises UndefinedCorrelationError; smaller
    negative round-off reads as zero.
    """
    occupation, pairs, _ = _fock_moments(rho)
    return _g2_ratio(occupation, pairs)


def classify_statistics(g2: float) -> str:
    if not 0 <= g2 < math.inf:  # also rejects nan
        raise ValueError(f"g2 must be finite and nonnegative, got {g2}")
    if g2 > 1.0 + POISSONIAN_BAND:
        return BUNCHING
    if g2 >= 1.0 - POISSONIAN_BAND:
        return POISSONIAN
    return ANTIBUNCHING


@dataclass(frozen=True)
class BlockadeMetrics:
    """Metrics of mode 1, tagged with the Fock cutoff they were computed at;
    construction rejects a bad g2, p1 or occupation, or a mismatched classification."""

    g2_zero: float
    p1: float
    occupation: float
    classification: str
    n_max: int

    def __post_init__(self):
        if not 0 <= self.g2_zero < math.inf:  # also rejects nan
            raise ValueError(f"g2_zero must be finite and nonnegative, got {self.g2_zero}")
        if not 0.0 <= self.p1 <= 1.0 + 1e-12:
            raise ValueError(f"p1 = {self.p1} is not a probability")
        if not 0 <= self.occupation < math.inf:
            raise ValueError(f"occupation must be finite and nonnegative, got {self.occupation}")
        expected = classify_statistics(self.g2_zero)
        if self.classification != expected:
            raise ValueError(f"classification {self.classification!r} does not match "
                             f"g2_zero = {self.g2_zero}, which is {expected!r}")


def blockade_metrics(rho: DensityMatrix) -> BlockadeMetrics:
    occupation, pairs, p1 = _fock_moments(rho)
    g2 = _g2_ratio(occupation, pairs)
    return BlockadeMetrics(
        g2_zero=g2,
        p1=p1,
        occupation=occupation,
        classification=classify_statistics(g2),
        n_max=rho.spec.fock_cutoff,
    )
