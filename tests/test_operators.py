import numpy as np
import pytest

from magnon_blockade.model import DensityMatrix, HilbertSpec, ladder_operators
from oracles import partial_trace, validate

SIGMA_MINUS = np.array([[0, 1], [0, 0]], complex)


def mode_ladder(n_max: int) -> np.ndarray:
    """Mode 1's lowering operator at cutoff n_max, from a one-mode space."""
    return ladder_operators(HilbertSpec(n_modes=1, fock_cutoff=n_max))[1]


class TestLadderOperators:
    # The mode operator of a one-mode space is I_2 (x) a, with a the
    # truncated annihilation operator: entry (n-1, n) equals sqrt(n).
    def test_entries_nmax2(self):
        a = np.zeros((3, 3), complex)
        a[0, 1] = 1.0
        a[1, 2] = np.sqrt(2)
        assert np.array_equal(mode_ladder(2), np.kron(np.eye(2), a))

    def test_entries_nmax1(self):
        assert np.array_equal(mode_ladder(1), np.kron(np.eye(2), SIGMA_MINUS))

    def test_number_operator_diagonal(self):
        m = mode_ladder(5)
        assert np.allclose(m.conj().T @ m, np.kron(np.eye(2), np.diag(np.arange(6))))

    def test_zero_cutoff_rejected(self):
        # The space itself refuses cutoff 0, so no operator is ever built on it.
        with pytest.raises(ValueError, match="^fock_cutoff must be at least 1$"):
            HilbertSpec(n_modes=1, fock_cutoff=0)

    def test_truncated_commutator_identity(self):
        # [a, a^dag] = I - (n_max+1) |n_max><n_max| to machine precision
        # (sqrt(n)^2 rounds at the last bit for non-square n).
        for n_max in (1, 2, 4, 7):
            m = mode_ladder(n_max)
            comm = m @ m.conj().T - m.conj().T @ m
            local = np.eye(n_max + 1, dtype=complex)
            local[n_max, n_max] = -n_max
            assert np.allclose(comm, np.kron(np.eye(2), local), rtol=0, atol=1e-13)


class TestQubitOperators:
    # sigma_minus on the qubit-only space, where it is the 2 x 2 |g><e|.
    spec = HilbertSpec(n_modes=0, fock_cutoff=1)

    def test_lowering_matrix(self):
        sm, *modes = ladder_operators(self.spec)
        assert np.array_equal(sm, SIGMA_MINUS)
        assert modes == []

    def test_population_projector(self):
        (sm,) = ladder_operators(self.spec)
        assert np.allclose(sm.conj().T @ sm, np.diag([0, 1]))

    def test_action_on_basis(self):
        (sm,) = ladder_operators(self.spec)
        g = np.array([1, 0], complex)
        e = np.array([0, 1], complex)
        assert np.array_equal(sm @ e, g)
        assert np.array_equal(sm @ g, np.zeros(2))

    def test_nilpotent(self):
        (sm,) = ladder_operators(self.spec)
        assert np.array_equal(sm @ sm, np.zeros((2, 2)))


class TestEmbed:
    """Each operator of ladder_operators is its site's ladder embedded in the
    full space by Kronecker products with identities on the other sites."""

    def test_qubit_lowering_structure(self):
        spec = HilbertSpec(n_modes=1, fock_cutoff=2)
        sm, _ = ladder_operators(spec)
        assert sm.shape == (6, 6)
        # Only |e,n> -> |g,n> transitions: rows 0..2 (g block), cols 3..5 (e block).
        assert np.array_equal(sm, np.kron(SIGMA_MINUS, np.eye(3)))

    def test_distinct_sites_commute(self):
        spec = HilbertSpec(n_modes=3, fock_cutoff=2)
        ops = ladder_operators(spec)
        for i, a in enumerate(ops):
            for b in ops[i + 1:]:
                assert np.array_equal(a @ b, b @ a)
                assert np.array_equal(a @ b.conj().T, b.conj().T @ a)

    def test_trace_scaling(self):
        # tr(m_j^dag m_j) = (0 + 1 + 2 + 3) times the dimension of the other sites.
        spec = HilbertSpec(n_modes=2, fock_cutoff=3)
        _, *modes = ladder_operators(spec)
        for m in modes:
            assert np.isclose(np.trace(m.conj().T @ m), 6 * spec.dim // 4)

    def test_norm_preserved(self):
        spec = HilbertSpec(n_modes=2, fock_cutoff=3)
        sm, *modes = ladder_operators(spec)
        assert np.isclose(np.linalg.norm(sm, 2), 1.0)
        for m in modes:
            assert np.isclose(np.linalg.norm(m, 2), np.sqrt(3))


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


def test_ladder_operators_match_kron_chain():
    # sigma_minus (x) I (x) I and I_2 (x) a (x) I, I_2 (x) I (x) a, bit for bit.
    spec = HilbertSpec(n_modes=2, fock_cutoff=2)
    sm, m1, m2 = ladder_operators(spec)
    a, eye = np.diag(np.sqrt([1.0, 2.0]), k=1), np.eye(3)
    assert sm.dtype == m1.dtype == m2.dtype == complex
    assert np.array_equal(sm, np.kron(np.kron(SIGMA_MINUS, eye), eye))
    assert np.array_equal(m1, np.kron(np.kron(np.eye(2), a), eye))
    assert np.array_equal(m2, np.kron(np.kron(np.eye(2), eye), a))
