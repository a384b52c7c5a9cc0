import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnon_blockade.model import DensityMatrix, HilbertSpec
from magnon_blockade.observables import (
    ANTIBUNCHING,
    BUNCHING,
    POISSONIAN,
    BlockadeMetrics,
    UndefinedCorrelationError,
    blockade_metrics,
    classify_statistics,
    g2_zero_delay,
)
from oracles import partial_trace


def mode_state(diag_mode, fock_cutoff, qubit_excited=0.0):
    """Product state (diagonal qubit) x (diagonal mode)."""
    spec = HilbertSpec(n_modes=1, fock_cutoff=fock_cutoff)
    rho_q = np.diag([1.0 - qubit_excited, qubit_excited]).astype(complex)
    rho_m = np.diag(diag_mode).astype(complex)
    return DensityMatrix(np.kron(rho_q, rho_m), spec)


def coherent_state(alpha, fock_cutoff):
    n = np.arange(fock_cutoff + 1)
    amps = alpha**n / np.sqrt(
        np.array([math.factorial(int(k)) for k in n], dtype=float)
    )
    amps = amps * np.exp(-0.5 * abs(alpha) ** 2)
    psi = np.concatenate([amps, np.zeros_like(amps)])  # qubit ground
    spec = HilbertSpec(n_modes=1, fock_cutoff=fock_cutoff)
    rho = np.outer(
        np.kron([1.0, 0.0], amps), np.kron([1.0, 0.0], amps).conj()
    )
    rho = rho / np.trace(rho)
    assert psi.shape[0] == spec.dim
    return DensityMatrix(rho.astype(complex), spec)


class TestOccupationAndG2:
    def test_single_fock_level_blocks_pairs(self):
        rho = mode_state([0.0, 1.0, 0.0], fock_cutoff=2)
        assert blockade_metrics(rho).occupation == pytest.approx(1.0)
        assert g2_zero_delay(rho) == 0.0

    def test_two_quanta_fock_level(self):
        rho = mode_state([0.0, 0.0, 1.0], fock_cutoff=2)
        # <n> = 2, <a+ a+ a a> = 2, so g2 = 2 / 4.
        assert g2_zero_delay(rho) == pytest.approx(0.5)

    def test_support_on_zero_and_one_gives_exact_zero(self):
        rho = mode_state([0.7, 0.3, 0.0, 0.0], fock_cutoff=3)
        assert g2_zero_delay(rho) == 0.0

    def test_coherent_state_is_poissonian(self):
        rho = coherent_state(0.1, fock_cutoff=10)
        assert blockade_metrics(rho).occupation == pytest.approx(0.01, rel=1e-10)
        assert g2_zero_delay(rho) == pytest.approx(1.0, abs=1e-8)

    def test_negative_pair_moment_raises(self):
        # P2 < 0: a non-positive state must not read as perfect blockade.
        rho = mode_state([0.5, 0.6, -0.1], fock_cutoff=2)
        with pytest.raises(UndefinedCorrelationError, match="negative"):
            g2_zero_delay(rho)
        with pytest.raises(UndefinedCorrelationError, match="negative"):
            blockade_metrics(rho)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("level", [1, 2])
    def test_non_finite_state_raises(self, bad, level):
        # A non-finite population must not read as a number: NaN would give
        # g2 = NaN, which classifies as antibunching, and inf at P1 g2 = 0.
        diag = [0.9, 0.1, 0.0]
        diag[level] = bad
        with np.errstate(invalid="ignore"):  # kron's inf * 0 for the excited qubit
            rho = mode_state(diag, fock_cutoff=2)
        with pytest.raises(UndefinedCorrelationError, match="not finite"):
            g2_zero_delay(rho)
        with pytest.raises(UndefinedCorrelationError, match="not finite"):
            blockade_metrics(rho)

    def test_vacuum_correlation_undefined(self):
        rho = mode_state([1.0, 0.0, 0.0], fock_cutoff=2)
        with pytest.raises(UndefinedCorrelationError, match="floor"):
            g2_zero_delay(rho)

    def test_full_state_equals_reduced_state_evaluation(self):
        rng = np.random.default_rng(11)
        spec = HilbertSpec(n_modes=1, fock_cutoff=3)
        x = rng.normal(size=(spec.dim, spec.dim)) + 1j * rng.normal(
            size=(spec.dim, spec.dim)
        )
        rho = x @ x.conj().T
        rho = DensityMatrix(rho / np.trace(rho), spec)
        reduced = partial_trace(rho, 1)
        a = np.diag(np.sqrt([1.0, 2.0, 3.0]), k=1)
        occ = np.real(np.trace(a.conj().T @ a @ reduced))
        pairs = np.real(np.trace(a.conj().T @ a.conj().T @ a @ a @ reduced))
        assert g2_zero_delay(rho) == pytest.approx(pairs / occ**2, rel=1e-12)


class TestSingleExcitationProbability:
    def test_product_state(self):
        rho = mode_state([0.6, 0.3, 0.1], fock_cutoff=2, qubit_excited=0.2)
        assert blockade_metrics(rho).p1 == pytest.approx(0.3)

    def test_sums_over_qubit_sectors(self):
        spec = HilbertSpec(n_modes=1, fock_cutoff=1)
        # |g1><g1| weight 0.25, |e1><e1| weight 0.25, rest in |g0>.
        rho = np.diag([0.5, 0.25, 0.0, 0.25]).astype(complex)
        assert blockade_metrics(DensityMatrix(rho, spec)).p1 == pytest.approx(0.5)


class TestClassification:
    def test_bands(self):
        assert classify_statistics(2.0) == BUNCHING
        assert classify_statistics(1.0 + 2e-6) == BUNCHING
        assert classify_statistics(1.0) == POISSONIAN
        assert classify_statistics(1.0 - 5e-7) == POISSONIAN
        assert classify_statistics(1.0 - 2e-6) == ANTIBUNCHING
        assert classify_statistics(0.0) == ANTIBUNCHING

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            classify_statistics(-0.1)

    @pytest.mark.parametrize("g2", [math.nan, math.inf])
    def test_non_finite_rejected(self, g2):
        with pytest.raises(ValueError, match="finite"):
            classify_statistics(g2)


class TestBlockadeMetrics:
    def test_fields(self):
        rho = mode_state([0.9, 0.1, 0.0], fock_cutoff=2)
        m = blockade_metrics(rho)
        assert m.g2_zero == 0.0
        assert m.p1 == pytest.approx(0.1)
        assert m.occupation == pytest.approx(0.1)
        assert m.classification == ANTIBUNCHING
        assert m.n_max == 2

    def test_rejects_negative_g2(self):
        with pytest.raises(ValueError, match="nonnegative"):
            BlockadeMetrics(-1.0, 0.1, 0.1, ANTIBUNCHING, 2)

    @pytest.mark.parametrize("g2", [math.nan, math.inf])
    def test_rejects_non_finite_g2(self, g2):
        with pytest.raises(ValueError, match="finite"):
            BlockadeMetrics(g2, 0.1, 0.1, ANTIBUNCHING, 2)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="probability"):
            BlockadeMetrics(0.5, 1.5, 0.1, ANTIBUNCHING, 2)

    @pytest.mark.parametrize("occupation", [math.nan, math.inf, -0.1])
    def test_rejects_bad_occupation(self, occupation):
        with pytest.raises(ValueError, match="occupation must be finite and nonnegative"):
            BlockadeMetrics(0.5, 0.1, occupation, ANTIBUNCHING, 2)

    @pytest.mark.parametrize("g2, classification", [
        (0.5, BUNCHING), (0.5, POISSONIAN), (2.0, ANTIBUNCHING), (1.0, "blockade"),
    ])
    def test_rejects_classification_that_g2_does_not_give(self, g2, classification):
        with pytest.raises(ValueError, match=f"classification '{classification}' does not match"):
            BlockadeMetrics(g2, 0.1, 0.1, classification, 2)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n_modes=st.integers(1, 3),
    cutoff=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_diagonal_read_matches_reduced_state_of_mode_one(n_modes, cutoff, seed):
    # A random state that is not mode-symmetric: the metrics must be mode 1's,
    # as read from its reduced state, and not any other mode's.
    spec = HilbertSpec(n_modes=n_modes, fock_cutoff=cutoff)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(spec.dim, spec.dim)) + 1j * rng.normal(size=(spec.dim, spec.dim))
    rho = DensityMatrix(x @ x.conj().T / np.linalg.norm(x) ** 2, spec)
    populations = np.real(np.diagonal(partial_trace(rho, 1)))
    n = np.arange(cutoff + 1)
    occupation, pairs = n @ populations, n * (n - 1) @ populations
    if n_modes > 1:
        other = np.real(np.diagonal(partial_trace(rho, n_modes)))
        assert not np.allclose(other, populations, rtol=1e-6, atol=0)
    m = blockade_metrics(rho)
    assert m.occupation == pytest.approx(occupation, rel=1e-13, abs=0)
    assert m.g2_zero * m.occupation**2 == pytest.approx(pairs, rel=1e-13, abs=0)
    assert m.p1 == pytest.approx(populations[1], rel=1e-13, abs=0)
