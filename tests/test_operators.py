import numpy as np
import pytest

from magnon_blockade.operators import (
    DensityMatrix,
    HilbertSpec,
    embed,
    fock_annihilation,
    mode_annihilation,
    partial_trace,
    qubit_lowering,
    qubit_sigma_minus,
)
from oracles import validate


class TestLadderOperators:
    def test_entries_nmax2(self):
        a = fock_annihilation(2)
        expected = np.zeros((3, 3), complex)
        expected[0, 1] = 1.0
        expected[1, 2] = np.sqrt(2)
        assert np.array_equal(a, expected)

    def test_entries_nmax1(self):
        a = fock_annihilation(1)
        assert np.array_equal(a, np.array([[0, 1], [0, 0]], complex))

    def test_number_operator_diagonal(self):
        a = fock_annihilation(5)
        n_op = a.conj().T @ a
        assert np.allclose(n_op, np.diag(np.arange(6)))

    def test_zero_cutoff_rejected(self):
        with pytest.raises(ValueError, match="no excitation sector"):
            fock_annihilation(0)

    def test_truncated_commutator_identity(self):
        # [a, a^dag] = I - (n_max+1) |n_max><n_max| to machine precision
        # (sqrt(n)^2 rounds at the last bit for non-square n).
        for n_max in (1, 2, 4, 7):
            a = fock_annihilation(n_max)
            comm = a @ a.conj().T - a.conj().T @ a
            expected = np.eye(n_max + 1, dtype=complex)
            expected[n_max, n_max] = -n_max
            assert np.allclose(comm, expected, rtol=0, atol=1e-13)


class TestQubitOperators:
    def test_lowering_matrix(self):
        sm = qubit_lowering()
        assert np.array_equal(sm, np.array([[0, 1], [0, 0]], complex))

    def test_population_projector(self):
        sm = qubit_lowering()
        assert np.allclose(sm.conj().T @ sm, np.diag([0, 1]))

    def test_action_on_basis(self):
        sm = qubit_lowering()
        g = np.array([1, 0], complex)
        e = np.array([0, 1], complex)
        assert np.array_equal(sm @ e, g)
        assert np.array_equal(sm @ g, np.zeros(2))

    def test_nilpotent(self):
        sm = qubit_lowering()
        assert np.array_equal(sm @ sm, np.zeros((2, 2)))


class TestEmbed:
    def test_qubit_lowering_structure(self):
        spec = HilbertSpec(n_modes=1, fock_cutoff=2)
        full = embed(qubit_lowering(), 0, spec)
        assert full.shape == (6, 6)
        # Only |e,n> -> |g,n> transitions: rows 0..2 (g block), cols 3..5 (e block).
        expected = np.kron(qubit_lowering(), np.eye(3))
        assert np.array_equal(full, expected)

    def test_distinct_sites_commute(self):
        spec = HilbertSpec(n_modes=2, fock_cutoff=2)
        m1 = mode_annihilation(1, spec)
        m2 = mode_annihilation(2, spec)
        assert np.array_equal(m1 @ m2, m2 @ m1)

    def test_trace_scaling(self):
        spec = HilbertSpec(n_modes=2, fock_cutoff=3)
        op = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        full = embed(op, 1, spec)
        other_dims = spec.dim // op.shape[0]
        assert np.isclose(np.trace(full), np.trace(op) * other_dims)

    def test_norm_preserved(self):
        spec = HilbertSpec(n_modes=1, fock_cutoff=3)
        op = fock_annihilation(3)
        full = embed(op, 1, spec)
        assert np.isclose(
            np.linalg.norm(full, 2), np.linalg.norm(op, 2)
        )

    def test_dimension_mismatch(self):
        spec = HilbertSpec(n_modes=1, fock_cutoff=2)
        with pytest.raises(ValueError, match="local dimension"):
            embed(np.eye(2, dtype=complex), 1, spec)

    def test_bad_site(self):
        spec = HilbertSpec(n_modes=1, fock_cutoff=2)
        with pytest.raises(ValueError, match="out of range"):
            embed(np.eye(3, dtype=complex), 2, spec)


def _product_state(rho_q, rho_m, spec):
    return DensityMatrix(np.kron(rho_q, rho_m), spec)


class TestPartialTrace:
    def test_product_state_factorizes(self):
        spec = HilbertSpec(n_modes=1, fock_cutoff=2)
        rho_q = np.array([[0.7, 0.2j], [-0.2j, 0.3]], complex)
        diag = np.array([0.5, 0.3, 0.2])
        rho_m = np.diag(diag).astype(complex)
        rho = _product_state(rho_q, rho_m, spec)
        assert np.allclose(partial_trace(rho, 0), rho_q)
        assert np.allclose(partial_trace(rho, 1), rho_m)

    def test_vacuum(self):
        spec = HilbertSpec(n_modes=1, fock_cutoff=2)
        rho = np.zeros((6, 6), complex)
        rho[0, 0] = 1.0
        reduced = partial_trace(DensityMatrix(rho, spec), 1)
        expected = np.zeros((3, 3), complex)
        expected[0, 0] = 1.0
        assert np.allclose(reduced, expected)

    def test_trace_preserved(self):
        spec = HilbertSpec(n_modes=2, fock_cutoff=2)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(spec.dim, spec.dim)) + 1j * rng.normal(
            size=(spec.dim, spec.dim)
        )
        rho = x @ x.conj().T
        rho /= np.trace(rho)
        for keep in range(3):
            reduced = partial_trace(DensityMatrix(rho, spec), keep)
            assert np.isclose(np.trace(reduced), 1.0)
            w = np.linalg.eigvalsh(reduced)
            assert w.min() > -1e-12

    def test_bad_index(self):
        spec = HilbertSpec(n_modes=1, fock_cutoff=2)
        rho = np.eye(6, dtype=complex) / 6
        with pytest.raises(ValueError, match="out of range"):
            partial_trace(DensityMatrix(rho, spec), 5)


class TestDensityMatrixValidation:
    def test_valid_state_passes(self):
        spec = HilbertSpec(n_modes=1, fock_cutoff=1)
        rho = np.diag([0.5, 0.25, 0.15, 0.1]).astype(complex)
        validate(DensityMatrix(rho, spec))

    def test_non_hermitian_rejected(self):
        spec = HilbertSpec(n_modes=1, fock_cutoff=1)
        rho = np.diag([1.0, 0, 0, 0]).astype(complex)
        rho[0, 1] = 1e-5
        with pytest.raises(ValueError, match="Hermitian"):
            validate(DensityMatrix(rho, spec))

    def test_wrong_trace_rejected(self):
        spec = HilbertSpec(n_modes=1, fock_cutoff=1)
        rho = np.diag([0.5, 0.5, 0.5, 0]).astype(complex)
        with pytest.raises(ValueError, match="trace"):
            validate(DensityMatrix(rho, spec))

    def test_negative_state_rejected(self):
        spec = HilbertSpec(n_modes=1, fock_cutoff=1)
        rho = np.diag([1.1, 0, 0, -0.1]).astype(complex)
        with pytest.raises(ValueError, match="positive"):
            validate(DensityMatrix(rho, spec))


def test_sigma_minus_helper_matches_embed():
    spec = HilbertSpec(n_modes=2, fock_cutoff=2)
    assert np.array_equal(
        qubit_sigma_minus(spec), embed(qubit_lowering(), 0, spec)
    )
