import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magnon_blockade.model import (
    DensityMatrix,
    HilbertSpec,
    ModelParams,
    hamiltonian_parts,
    ladder_operators,
)
from magnon_blockade import model, steady_state
from magnon_blockade.observables import blockade_metrics, g2_zero_delay
from magnon_blockade.steady_state import (
    MAX_HILBERT_DIM,
    N_MAX_START,
    TRUNCATION_RTOL,
    Liouvillian,
    SteadyStateError,
    TruncationError,
    build_liouvillian,
    converge_truncation,
    generator_parts,
    hermitian_coordinates,
    orbit_labels,
    solve_steady_state,
    unvectorize,
)
from oracles import (
    coordinate_matrices,
    evolve_to_steady_state,
    mode_occupation,
    reduced_system,
    sparse_generator,
    sparse_liouvillian,
    trace_distance,
    trace_residual,
    validate,
    vectorize,
)


def fig2_params(drive=0.05, phase=0.0, fock_cutoff=2):
    return ModelParams(1, 35.0, 35.0, 3 * drive, drive, phase, 0.5, fock_cutoff)


def explicit_generator(p: ModelParams) -> sp.csr_matrix:
    """p's generator from H written out term by term plus explicit channels,
    assembled by the scipy oracle."""
    sm, *modes = ladder_operators(p.hilbert_spec())
    sp_ = sm.conj().T
    h = p.delta * (sp_ @ sm) + p.probe_rabi * (
        np.exp(-1j * p.phase) * sp_ + np.exp(1j * p.phase) * sm
    )
    channels = [(sm, p.decay)]
    for m in modes:
        h = h + p.delta * (m.conj().T @ m) + p.coupling * (m @ sp_ + m.conj().T @ sm)
        h = h + p.drive_rabi * (m.conj().T + m)
        channels.append((m, p.decay))
    return sparse_liouvillian(h, channels)


#: Largest generator full_space_solve factors densely; larger ones take sparse LU.
FULL_DENSE_MAX_ROWS = 4096


def full_space_solve(lv: Liouvillian) -> DensityMatrix:
    """Reference solve on the whole generator: row 0 of L traded for trace = 1.

    A dense LU up to FULL_DENSE_MAX_ROWS rows, above that a sparse LU and one
    refinement step, over all D^2 rows and with no use of the
    mode-permutation symmetry or the excitation sectors.
    """
    d = lv.dim
    n = d * d
    trace_row = sp.csr_matrix(vectorize(np.eye(d, dtype=complex)))
    mat = sp.vstack([trace_row, sparse_generator(lv)[1:]], format="csc")
    rhs = np.zeros(n, dtype=complex)
    rhs[0] = 1.0
    if n <= FULL_DENSE_MAX_ROWS:
        v = np.linalg.solve(mat.toarray(), rhs)
    else:
        lu = spla.splu(mat)
        v = lu.solve(rhs)
        v += lu.solve(rhs - mat @ v)
    rho = unvectorize(v, d)
    return DensityMatrix(rho / np.trace(rho), lv.spec)


class TestVectorization:
    def test_column_stacking_order(self):
        m = np.array([[1, 2], [3, 4]], dtype=complex)
        assert np.array_equal(vectorize(m), np.array([1, 3, 2, 4], dtype=complex))

    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        assert np.array_equal(unvectorize(vectorize(m), 5), m)


class TestLiouvillianMatrix:
    def test_free_evolution_is_zero(self):
        lv = sparse_liouvillian(np.zeros((4, 4)), [])
        assert lv.nnz == 0

    def test_qubit_decay_action(self):
        # kappa/2 two-sided convention: an excited population decays at kappa.
        sm = np.array([[0, 1], [0, 0]], dtype=complex)
        kappa = 0.7
        lv = sparse_liouvillian(np.zeros((2, 2)), [(sm, kappa)])
        rho_e = np.diag([0.0, 1.0]).astype(complex)
        drho = unvectorize(lv @ vectorize(rho_e), 2)
        expected = kappa * (np.diag([1.0, -1.0]).astype(complex))
        assert np.allclose(drho, expected)

    def test_coherence_decays_at_half_rate(self):
        sm = np.array([[0, 1], [0, 0]], dtype=complex)
        kappa = 0.7
        lv = sparse_liouvillian(np.zeros((2, 2)), [(sm, kappa)])
        coherence = np.array([[0, 1], [0, 0]], dtype=complex)
        drho = unvectorize(lv @ vectorize(coherence), 2)
        assert np.allclose(drho, -0.5 * kappa * coherence)

    def test_trace_preserving(self):
        lv = build_liouvillian(fig2_params(fock_cutoff=3))
        assert trace_residual(lv) < 1e-12

    def test_hamiltonian_part_matches_commutator(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=(4, 4))
        h = (h + h.T).astype(complex)
        rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        lv = sparse_liouvillian(h, [])
        drho = unvectorize(lv @ vectorize(rho), 4)
        assert np.allclose(drho, -1j * (h @ rho - rho @ h))


class TestBuildLiouvillian:
    def test_dimension_cap(self):
        p = ModelParams(3, 1.0, 1.0, 0.1, 0.1, 0.0, 1.0, fock_cutoff=6)
        with pytest.raises(ValueError, match="cap"):
            build_liouvillian(p)

    def test_shape(self):
        p = fig2_params(fock_cutoff=2)
        lv = build_liouvillian(p)
        assert sparse_generator(lv).shape == (36, 36)
        assert lv.dim == 6

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        n_modes=st.integers(1, 3),
        cutoff=st.integers(1, 3),
        delta=st.floats(-60.0, 60.0),
        coupling=st.floats(0.0, 40.0),
        probe=st.floats(0.0, 2.0),
        drive=st.floats(0.0, 2.0),
        phase=st.floats(-math.pi, math.pi),
        decay=st.floats(0.05, 3.0),
    )
    @example(n_modes=2, cutoff=2, delta=3.0, coupling=0.0, probe=0.0, drive=0.0,
             phase=0.5, decay=1.0)
    @example(n_modes=3, cutoff=1, delta=0.0, coupling=20.0, probe=0.3, drive=0.1,
             phase=-math.pi, decay=0.5)
    def test_matches_explicit_operator_formula(
        self, n_modes, cutoff, delta, coupling, probe, drive, phase, decay
    ):
        # The cached parts weighted by one point's parameters give the
        # generator of H written out term by term plus explicit channels.
        p = ModelParams(n_modes, delta, coupling, probe, drive, phase, decay, cutoff)
        expected = explicit_generator(p)
        got = sparse_generator(build_liouvillian(p))
        assert abs(got - expected).max() <= 1e-14 * abs(expected).max()

    def test_cache_holds_no_point(self):
        # A build after another point of the same space equals a build from
        # an empty cache, bit for bit.
        p = ModelParams(2, 28.0, 20.0, 0.2, 0.05, 0.01, 0.5, 2)
        q = p.with_(delta=31.0, coupling=17.0, probe_rabi=0.4, phase=-1.2, decay=0.9)
        build_liouvillian(p)
        after_p = build_liouvillian(q)
        generator_parts.cache_clear()
        fresh = build_liouvillian(q)
        assert np.array_equal(after_p.weights, fresh.weights)
        for got, want in zip(after_p.parts, fresh.parts):
            assert np.array_equal(got, want)

    def test_editing_a_result_leaves_the_cache_alone(self):
        p = ModelParams(2, 28.0, 20.0, 0.2, 0.05, 0.01, 0.5, 2)
        first = build_liouvillian(p)
        want = first.weights.copy()
        first.weights[...] = 0.0
        again = build_liouvillian(p)
        assert np.array_equal(again.weights, want)
        assert again.parts is first.parts

    @pytest.mark.parametrize(
        "weights", [[0.0, 1.0, 0.2, 0.05j, 0.1, 0.5], [0.0, 1.0, 0.2, 0.1, 0.5]]
    )
    def test_rejects_weights_that_are_not_one_real_per_part(self, weights):
        # A complex weight (here on Omega_q sin theta) would make a generator
        # that breaks Hermiticity, which the reduced residual cannot see.
        spec = HilbertSpec(1, 2)
        with pytest.raises(ValueError, match="weights"):
            Liouvillian(spec, generator_parts(spec), np.array(weights))

    def test_cached_parts_stay_small(self):
        # Only the reduced parts are cached: 4.1 MB here, against 40.7 MB
        # with the D^2 x D^2 generator's entries kept as well.
        parts = generator_parts(HilbertSpec(3, 3))
        assert sum(arr.nbytes for arr in parts) < 10e6

    def test_cached_parts_are_read_only(self):
        # Every generator of a space shares its parts, so none may edit them.
        parts = build_liouvillian(ModelParams(2, 28.0, 20.0, 0.2, 0.05, 0.01, 0.5, 2)).parts
        assert parts is generator_parts(HilbertSpec(2, 2))
        for arr in parts:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0

    @pytest.mark.parametrize("n_modes, cutoff", [(1, 3), (2, 2), (3, 1)])
    def test_build_makes_the_ladder_operators_once(self, n_modes, cutoff, monkeypatch):
        # The Hamiltonian parts and the dissipator share one ladder_operators
        # call per build, and the parts are bitwise those built when the
        # Hamiltonian parts get ladders of their own.
        spec, calls = HilbertSpec(n_modes, cutoff), []

        def counted(s):
            calls.append(s)
            return ladder_operators(s)

        monkeypatch.setattr(model, "ladder_operators", counted)
        monkeypatch.setattr(steady_state, "ladder_operators", counted)
        once = generator_parts.__wrapped__(spec)
        assert calls == [spec]
        monkeypatch.setattr(steady_state, "hamiltonian_parts",
                            lambda ops: hamiltonian_parts(counted(spec)))
        separate = generator_parts.__wrapped__(spec)
        assert len(calls) == 3
        for name, got, want in zip(once._fields, once, separate):
            assert got.dtype == want.dtype and np.array_equal(got, want), name


class TestSolveSteadyState:
    def test_undriven_system_relaxes_to_vacuum(self):
        p = ModelParams(1, 5.0, 5.0, 0.0, 0.0, 0.0, 1.0, fock_cutoff=2)
        rho = solve_steady_state(build_liouvillian(p))
        expected = np.zeros((6, 6), dtype=complex)
        expected[0, 0] = 1.0
        assert np.allclose(rho.matrix, expected, atol=1e-12)

    def test_driven_damped_oscillator_oracle(self):
        # Decoupled mode under a resonant drive: coherent steady state with
        # occupation 4 Omega^2 / kappa^2 and Poissonian statistics.
        omega, kappa = 0.005, 1.0
        p = ModelParams(1, 0.0, 0.0, 0.0, omega, 0.0, kappa, fock_cutoff=6)
        rho = solve_steady_state(build_liouvillian(p))
        validate(rho)
        occupation = blockade_metrics(rho).occupation
        assert occupation == pytest.approx(4 * omega**2 / kappa**2, rel=1e-6)
        assert g2_zero_delay(rho) == pytest.approx(1.0, abs=1e-6)

    def test_state_is_valid(self):
        rho = solve_steady_state(build_liouvillian(fig2_params(fock_cutoff=3)))
        validate(rho)

    def test_agrees_with_time_evolution(self):
        p = fig2_params(fock_cutoff=2)
        direct = solve_steady_state(build_liouvillian(p))
        spec = p.hilbert_spec()
        vac = np.zeros((spec.dim, spec.dim), dtype=complex)
        vac[0, 0] = 1.0
        evolved = evolve_to_steady_state(p, DensityMatrix(vac, spec))
        assert trace_distance(direct.matrix, evolved.matrix) < 1e-7

    def test_unique_regardless_of_initial_state(self):
        p = fig2_params(fock_cutoff=2)
        direct = solve_steady_state(build_liouvillian(p))
        spec = p.hilbert_spec()
        mixed = np.eye(spec.dim, dtype=complex) / spec.dim
        evolved = evolve_to_steady_state(p, DensityMatrix(mixed, spec))
        assert trace_distance(direct.matrix, evolved.matrix) < 1e-7

    @pytest.mark.parametrize("other", [{"n_modes": 2}, {"fock_cutoff": 3}])
    def test_evolution_rejects_state_from_another_space(self, other):
        p = fig2_params(fock_cutoff=2)
        spec = p.with_(**other).hilbert_spec()
        vac = np.zeros((spec.dim, spec.dim), dtype=complex)
        vac[0, 0] = 1.0
        with pytest.raises(ValueError, match="initial state lives in"):
            evolve_to_steady_state(p, DensityMatrix(vac, spec))

    def test_two_mode_symmetry(self):
        # The symmetric-sector solve is mode-symmetric by construction, so
        # the check runs on the full-generator solve, where a generator that
        # breaks mode exchange would show.
        for n_modes in (2, 3):
            root_n = np.sqrt(n_modes)
            p = ModelParams(
                n_modes, root_n * 20.0, 20.0, 3 * root_n * 0.05, 0.05, 0.0, 0.5,
                fock_cutoff=2,
            )
            rho = full_space_solve(build_liouvillian(p))
            for j in range(2, n_modes + 1):
                assert abs(mode_occupation(rho, 1) - mode_occupation(rho, j)) < 1e-10

    def test_large_sector_solve_resolves_blockade_dip(self):
        # Cutoff 32 gives 66^2 = 4356 rows in 67 excitation sectors.  Near
        # the optimal phase the two-excitation moment is ~1e-19; a solve that
        # lets it meet the vacuum's round-off returns it negative, which
        # clips g2 to exactly 0.
        p = ModelParams(1, 35.0, 35.0, 0.003, 0.001, 0.0077, 0.5, fock_cutoff=32)
        large = g2_zero_delay(solve_steady_state(build_liouvillian(p)))
        small = g2_zero_delay(
            solve_steady_state(build_liouvillian(p.with_(fock_cutoff=4)))
        )
        assert large > 0
        assert abs(np.log10(large) - np.log10(small)) < 1e-3

    @pytest.mark.parametrize("spec", [HilbertSpec(0, 1), HilbertSpec(1, 32)])
    def test_non_unique_steady_state_raises(self, spec):
        # Without dissipation every diagonal state is stationary; the top
        # sector's block is singular both for the qubit alone (4 rows) and
        # at cutoff 32 (4356 rows in 67 sectors).
        lv = Liouvillian(spec, generator_parts(spec), np.zeros(6))
        with pytest.raises(SteadyStateError, match="non-unique steady state"):
            solve_steady_state(lv)


class TestPermutationOrbits:
    @pytest.mark.parametrize(
        "n_modes, cutoff, count",
        [(1, 4, 100), (2, 2, 180), (2, 4, 1300), (3, 2, 660), (4, 2, 1980)],
    )
    def test_orbit_count(self, n_modes, cutoff, count):
        # 4 qubit (row, column) pairs times the multisets of N mode pairs.
        local = (cutoff + 1) ** 2
        assert count == 4 * math.comb(local + n_modes - 1, n_modes)
        spec = HilbertSpec(n_modes, cutoff)
        labels, _ = orbit_labels(spec)
        # One label per vec index, and every orbit 0 .. count - 1 is used.
        assert labels.shape == (spec.dim**2,)
        assert np.array_equal(np.unique(labels), np.arange(count))
        # Orbit 0 is the ground-state projector alone.
        assert np.flatnonzero(labels == 0).tolist() == [0]

    @pytest.mark.parametrize("n_modes, cutoff", [(0, 1), (1, 4), (2, 2), (3, 2)])
    def test_orbits_are_numbered_by_sector(self, n_modes, cutoff):
        # Sectors s = k_bra + k_ket, counted here from the basis digits,
        # never decrease with the orbit number, and starts bounds each one.
        spec = HilbertSpec(n_modes, cutoff)
        labels, starts = orbit_labels(spec)
        exc = np.indices(spec.dims).reshape(len(spec.dims), spec.dim).sum(axis=0)
        sector = np.add.outer(exc, exc).ravel()  # symmetric, so either vec order
        by_orbit = np.empty(starts[-1], dtype=np.intp)
        by_orbit[labels] = sector
        assert np.array_equal(by_orbit[labels], sector)  # one sector per orbit
        assert np.all(np.diff(by_orbit) >= 0)
        assert np.array_equal(starts, np.searchsorted(by_orbit, np.arange(sector.max() + 2)))
        # Orbit 0 is the vacuum projector alone; without a second mode to
        # swap, the labels are a permutation of the vec indices.
        assert np.flatnonzero(labels == 0).tolist() == [0]
        if n_modes <= 1:
            assert np.array_equal(np.sort(labels), np.arange(spec.dim**2))

    def test_orbits_are_mode_swaps(self):
        # N = 2, cutoff 1: |g,1,0><g,0,1| and |g,0,1><g,1,0| swap modes and
        # share an orbit; |g,1,0><g,1,0| and |g,1,0><g,0,1| do not.
        spec = HilbertSpec(2, 1)
        labels, _ = orbit_labels(spec)

        def orbit(i, j):
            return labels[i + j * spec.dim]

        g10, g01 = 2, 1
        assert orbit(g10, g01) == orbit(g01, g10)
        assert orbit(g10, g10) == orbit(g01, g01)
        assert orbit(g10, g10) != orbit(g10, g01)


def transpose_partners(spec: HilbertSpec) -> np.ndarray:
    """t(o): the orbit of the transposed entries of orbit o."""
    (labels, _), d = orbit_labels(spec), spec.dim
    k = np.arange(d * d)
    partner = np.empty(labels.max() + 1, dtype=np.intp)
    partner[labels] = labels[(k % d) * d + k // d]
    return partner


def map_matrices(spec: HilbertSpec) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """W and E assembled from the per-orbit index maps of hermitian_coordinates,
    expanded to every vec index through the orbit labels."""
    labels, _, *maps, trace = hermitian_coordinates(spec)
    w_cols, w_coefs, e_rows, e_coefs = (arr[:, labels] for arr in maps)
    n, m = labels.size, trace.size
    k = np.tile(np.arange(n), 2)
    w = sp.csr_matrix((w_coefs.ravel(), (k, w_cols.ravel())), shape=(n, m))
    e = sp.csr_matrix((e_coefs.ravel(), (e_rows.ravel(), k)), shape=(m, n))
    for mat in (w, e):
        mat.eliminate_zeros()
    return w, e


class TestHermitianCoordinates:
    @pytest.mark.parametrize("n_modes, cutoff", [(1, 2), (2, 2), (3, 1), (2, 4)])
    def test_one_real_unknown_per_orbit(self, n_modes, cutoff):
        spec = HilbertSpec(n_modes, cutoff)
        w, e = map_matrices(spec)
        m = orbit_labels(spec)[1][-1]
        assert w.shape == (spec.dim**2, m)
        assert e.shape == (m, spec.dim**2)
        partner = transpose_partners(spec)
        self_conjugate = np.count_nonzero(partner == np.arange(m))
        pairs = np.count_nonzero(partner > np.arange(m))
        assert self_conjugate + 2 * pairs == m
        # W^H W is diagonal and positive: W has full column rank.
        gram = (w.conj().T @ w).toarray()
        assert np.array_equal(gram, np.diag(np.diag(gram)))
        assert np.all(np.diag(gram).real > 0)

    @pytest.mark.parametrize("n_modes, cutoff", [(0, 1), (1, 2), (2, 2), (3, 1), (2, 3)])
    def test_index_maps_match_sparse_construction(self, n_modes, cutoff):
        # The maps give W and E entry for entry as the sparse products of the
        # oracle, and their trace row is Re(vec(I)^T W).
        spec = HilbertSpec(n_modes, cutoff)
        for got, want in zip(map_matrices(spec), coordinate_matrices(spec)):
            assert got.shape == want.shape
            assert abs(got - want).max() == 0
        trace = hermitian_coordinates(spec)[-1]
        w, _ = coordinate_matrices(spec)
        assert np.array_equal(trace, (vectorize(np.eye(spec.dim)) @ w).real)

    @pytest.mark.parametrize("n_modes, cutoff", [(1, 3), (2, 2), (3, 1)])
    def test_states_are_hermitian_and_mode_symmetric(self, n_modes, cutoff):
        spec = HilbertSpec(n_modes, cutoff)
        w, _ = map_matrices(spec)
        y = np.random.default_rng(n_modes).normal(size=w.shape[1])
        rho = unvectorize(w @ y, spec.dim)
        assert np.array_equal(rho, rho.conj().T)
        if n_modes > 1:
            assert np.array_equal(permute_modes(rho, spec, (1, 0, *range(2, n_modes))), rho)

    def test_equations_are_real_and_imaginary_orbit_sums(self):
        # Row o of Re(E X) is the real part of the orbit-o sum of X for
        # o <= t(o), and its imaginary part on row t(o) for o < t(o).
        spec = HilbertSpec(2, 1)
        _, e = map_matrices(spec)
        rng = np.random.default_rng(5)
        x = rng.normal(size=spec.dim**2) + 1j * rng.normal(size=spec.dim**2)
        labels, _ = orbit_labels(spec)
        sums = np.zeros(labels.max() + 1, dtype=complex)
        np.add.at(sums, labels, x)
        got = (e @ x).real
        for o, t in enumerate(transpose_partners(spec)):
            want = sums[o].real if o <= t else sums[t].imag
            assert got[o] == pytest.approx(want, abs=1e-14)

    def test_cache_survives_an_edit_of_a_result(self):
        # The solve reads the maps from the cached parts, which every
        # generator of the space shares.
        spec = HilbertSpec(2, 2)
        labels, _, w_cols, w_coefs, _, _, trace = hermitian_coordinates(spec)
        want = (labels, w_cols, w_coefs, trace)
        maps = generator_parts(spec)[-4:]
        for arr, ref in zip(maps, want):
            assert np.array_equal(arr, ref)
            with pytest.raises(ValueError, match="read-only"):
                arr *= 2
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
        generator_parts.cache_clear()
        for got, ref in zip(generator_parts(spec)[-4:], want):
            assert np.array_equal(got, ref)


#: (N, cutoff) of every space whose parts the preset sweeps and the benchmark
#: workloads build, at either seed.
BUILT_SPACES = [(1, 2), (1, 3), (1, 4), (1, 5), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2)]


class TestReducedParts:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        n_modes=st.integers(1, 3),
        cutoff=st.integers(1, 2),
        delta=st.floats(-60.0, 60.0),
        coupling=st.floats(0.0, 40.0),
        probe=st.floats(0.0, 2.0),
        drive=st.floats(0.0, 2.0),
        phase=st.floats(-math.pi, math.pi),
        decay=st.floats(0.05, 3.0),
    )
    @example(n_modes=3, cutoff=2, delta=34.6, coupling=20.0, probe=0.0104, drive=0.001,
             phase=0.0096, decay=0.5)
    def test_weighted_parts_match_sparse_reduction(
        self, n_modes, cutoff, delta, coupling, probe, drive, phase, decay
    ):
        # The reduced parts weighted by p equal Re(E L W) of the generator
        # written out term by term, with E and W from the orbit labels.
        p = ModelParams(n_modes, delta, coupling, probe, drive, phase, decay, cutoff)
        want = reduced_system(explicit_generator(p), p.hilbert_spec()).ravel()
        lv = build_liouvillian(p)
        got = np.zeros_like(want)
        got[lv.parts.positions] = lv.weights @ lv.parts.reduced
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    @pytest.mark.parametrize("cutoff", [1, 2, 3])
    def test_each_part_matches_its_sparse_reduction(self, n_modes, cutoff):
        # Part by part, not only weighted: reduced[k] is Re(E L_k W) of the
        # scipy-built part k, and gram[k, l] is Re tr(L_k^dag L_l) of the
        # scipy-built parts k and l, each to round-off.
        spec = HilbertSpec(n_modes, cutoff)
        parts, oracle = generator_parts(spec), model_parts(spec)
        for k, part in enumerate(oracle):
            want = reduced_system(part, spec).ravel()
            got = np.zeros_like(want)
            got[parts.positions] = parts.reduced[k]
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        want = np.array([[a.conj().multiply(b).sum().real for b in oracle] for a in oracle])
        bound = 1e-13 * np.sqrt(np.outer(np.diag(want), np.diag(want)))
        assert np.all(np.abs(parts.gram - want) <= bound)

    @pytest.mark.parametrize("n_modes, cutoff", BUILT_SPACES)
    def test_entries_lie_in_their_row_sectors_band(self, n_modes, cutoff):
        # Row sector s's entries, bounds[s] .. bounds[s + 1], lie in column
        # sectors s - 1 .. s + 2; read through their slots as the solve reads
        # the four blocks, they give that row sector's band entry for entry.
        parts = generator_parts(HilbertSpec(n_modes, cutoff))
        starts, bounds = parts.starts, parts.bounds
        top, m = starts.size - 2, starts[-1]
        sector = np.repeat(np.arange(top + 1), np.diff(starts))
        i, j = np.divmod(parts.positions, m)
        assert np.all((sector[j] >= sector[i] - 1) & (sector[j] <= sector[i] + 2))
        assert bounds[0] == 0 and bounds[-1] == parts.positions.size
        for s in range(top + 1):
            run = np.arange(bounds[s], bounds[s + 1])
            assert np.all(sector[i[run]] == s)
            n = starts[s + 1] - starts[s]
            lo, hi = starts[max(s - 1, 0)], starts[min(s + 3, top + 1)]
            dense = np.zeros((n, hi - lo))
            dense[i[run] - starts[s], j[run] - lo] = run + 1
            band = np.zeros(n * (hi - lo))
            band[parts.slots[run]] = run + 1
            blocks = [band[n * (starts[t] - lo) : n * (starts[t + 1] - lo)].reshape(n, -1)
                      for t in range(max(s - 1, 0), min(s + 3, top + 1))]
            assert np.array_equal(np.hstack(blocks), dense)


def traced_peak(fn) -> int:
    """Peak bytes fn allocates on top of what was allocated before it (tracemalloc)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


class TestMemory:
    # N = 3, cutoff 3 (D = 128, m = 3264 coordinates).
    spec = HilbertSpec(3, 3)

    def test_build_stays_at_reduced_size(self):
        # Each part is summed over orbit pairs on its own (21 MB traced, the
        # orbit maps included); summing all six parts on their D^2 x D^2
        # entries first took 125 MB.
        assert traced_peak(lambda: generator_parts.__wrapped__(self.spec)) < 40e6

    def test_solve_fills_one_row_sector_at_a_time(self):
        # A row sector's four blocks take at most 5.5 MB (17 MB traced);
        # filling the whole band (31 MB, 1.6% nonzero) at once took 41 MB.
        p = ModelParams(3, 20 * math.sqrt(3), 20.0, 0.03 * math.sqrt(3), 0.01, 0.01, 0.5, 3)
        lv = build_liouvillian(p)
        solve_steady_state(lv)
        assert traced_peak(lambda: solve_steady_state(lv)) < 25e6


# (N, cutoff) of the full-space oracle runs: N = 2 and 3 take a dense LU
# over up to 2500 and 2916 rows per example; N = 1 at cutoff 32 takes
# full_space_solve's sparse LU.
ORACLE_SPACES = [(1, 2), (1, 4), (1, 32), (2, 2), (2, 3), (2, 4), (3, 2)]


class TestSymmetricSectorOracle:
    @pytest.mark.parametrize("n_modes, cutoff", ORACLE_SPACES)
    @settings(max_examples=4, deadline=None, derandomize=True, database=None)
    @given(
        drive=st.floats(1e-3, 0.3),
        phase_scale=st.floats(-2.0, 3.0),
        detuning_scale=st.floats(0.5, 1.5),
        decay=st.floats(0.1, 1.5),
    )
    @example(drive=0.01, phase_scale=1.0, detuning_scale=1.0, decay=0.5)
    def test_matches_full_space_solve(
        self, n_modes, cutoff, drive, phase_scale, detuning_scale, decay
    ):
        # The phase is drawn in units of the leading-order blockade phase
        # 2 kappa / (3 sqrt(N) J), so the draws reach into the dip.
        coupling = 20.0
        root_n = math.sqrt(n_modes)
        p = ModelParams(
            n_modes=n_modes,
            delta=detuning_scale * root_n * coupling,
            coupling=coupling,
            probe_rabi=3 * root_n * drive,
            drive_rabi=drive,
            phase=phase_scale * 2 * decay / (3 * root_n * coupling),
            decay=decay,
            fock_cutoff=cutoff,
        )
        lv = build_liouvillian(p)
        reduced = solve_steady_state(lv)
        full = full_space_solve(lv)
        assert np.array_equal(reduced.matrix, reduced.matrix.conj().T)
        # At N = 1 every orbit is one entry, so the two solves differ only
        # by the real LU on Hermitian coordinates against the complex one.
        distance, decades, rel = (1e-14, 1e-8, 1e-12) if n_modes == 1 else (1e-12, 1e-3, 1e-9)
        assert trace_distance(reduced.matrix, full.matrix) <= distance
        got, want = blockade_metrics(reduced), blockade_metrics(full)
        assert abs(math.log10(got.g2_zero) - math.log10(want.g2_zero)) <= decades
        assert got.p1 == pytest.approx(want.p1, rel=rel)
        assert got.occupation == pytest.approx(want.occupation, rel=rel)

    def test_out_of_band_generator_fails_clearly(self, monkeypatch):
        # eps (sigma_+ m_1^dag + sigma_- m_1) moves the total excitation by
        # two, so the parts couple sectors s and s - 2, outside the band the
        # solve eliminates; the build rejects them before any point is solved.
        def with_pair_term(ops):
            sm, m1 = ops[:2]
            number, *rest = hamiltonian_parts(ops)
            return [number + 1e-3 * (sm.conj().T @ m1.conj().T + sm @ m1), *rest]

        monkeypatch.setattr(steady_state, "hamiltonian_parts", with_pair_term)
        with pytest.raises(SteadyStateError, match="excitation-sector band"):
            generator_parts.__wrapped__(fig2_params().hilbert_spec())


def permute_modes(rho: np.ndarray, spec: HilbertSpec, perm: tuple[int, ...]) -> np.ndarray:
    """rho with mode j moved to mode perm[j] (modes counted from 0)."""
    axes = list(range(2 * len(spec.dims)))
    for offset in (0, len(spec.dims)):
        for j, k in enumerate(perm):
            axes[offset + 1 + k] = offset + 1 + j
    return rho.reshape(spec.dims * 2).transpose(axes).reshape(rho.shape)


def model_parts(spec: HilbertSpec) -> list[sp.csr_matrix]:
    """The six generator parts of spec's space, assembled by the scipy oracle."""
    zero = np.zeros((spec.dim, spec.dim))
    ops = ladder_operators(spec)
    return [sparse_liouvillian(h, []) for h in hamiltonian_parts(ops)] + [
        sparse_liouvillian(zero, [(o, 1.0) for o in ops])
    ]


class TestReducedResidual:
    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(n_modes=st.integers(1, 3), cutoff=st.integers(1, 2), seed=st.integers(0, 2**16))
    def test_parts_keep_mode_exchange_and_hermiticity(self, n_modes, cutoff, seed):
        # The reduced residual is exact only because every part maps X^dag
        # to L(X)^dag and a mode permutation of X to that of L(X).
        spec = HilbertSpec(n_modes, cutoff)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(spec.dim,) * 2) + 1j * rng.normal(size=(spec.dim,) * 2)
        perms = [(1, 0, *range(2, n_modes)), (*range(1, n_modes), 0)] if n_modes > 1 else []
        for part in model_parts(spec):
            scale = abs(part).max()

            def apply(rho):
                return unvectorize(part @ vectorize(rho), spec.dim)

            lx = apply(x)
            assert np.abs(apply(x.conj().T) - lx.conj().T).max() <= 1e-14 * scale
            for q in perms:
                defect = apply(permute_modes(x, spec, q)) - permute_modes(lx, spec, q)
                assert np.abs(defect).max() <= 1e-14 * scale

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(
        n_modes=st.integers(1, 3),
        cutoff=st.integers(1, 3),
        delta=st.floats(-60.0, 60.0),
        coupling=st.floats(0.0, 40.0),
        probe=st.floats(0.0, 2.0),
        drive=st.floats(0.0, 2.0),
        phase=st.floats(-math.pi, math.pi),
        decay=st.floats(0.05, 3.0),
        seed=st.integers(0, 2**16),
    )
    def test_reduced_residual_is_the_full_residual(
        self, n_modes, cutoff, delta, coupling, probe, drive, phase, decay, seed
    ):
        # sum_q scale[q] (Re(E L W) y)_q^2 = ||L W y||^2 at any real y, and
        # w^T gram w = ||L||_F^2, with L and W from the scipy oracles.
        p = ModelParams(n_modes, delta, coupling, probe, drive, phase, decay, cutoff)
        lv = build_liouvillian(p)
        mat, (w, _) = sparse_generator(lv), coordinate_matrices(p.hilbert_spec())
        y = np.random.default_rng(seed).normal(size=w.shape[1])
        rows, cols = np.divmod(lv.parts.positions, y.size)
        ly = np.bincount(rows, (lv.weights @ lv.parts.reduced) * y[cols], y.size)
        want = np.linalg.norm(mat @ (w @ y))
        assert np.sqrt(lv.parts.scale @ ly**2) == pytest.approx(want, rel=1e-12)
        norm = np.sqrt(lv.weights @ lv.parts.gram @ lv.weights)
        assert norm == pytest.approx(spla.norm(mat), rel=1e-12)

    def test_residual_gate_names_the_bound(self, monkeypatch):
        # No generator the package builds trips the gate, so a zero bound
        # stands in for a solve whose residual has grown.
        monkeypatch.setattr(steady_state, "RESIDUAL_RTOL", 0.0)
        with pytest.raises(SteadyStateError, match=r"residual .* exceeds 0\.0e\+00 \* \|\|L\|\|"):
            solve_steady_state(build_liouvillian(fig2_params()))


def rates_times(p: ModelParams, c: float) -> ModelParams:
    """p with every rate and frequency multiplied by c (the phase kept)."""
    return p.with_(delta=c * p.delta, coupling=c * p.coupling, probe_rabi=c * p.probe_rabi,
                   drive_rabi=c * p.drive_rabi, decay=c * p.decay)


class TestScaleFreeGate:
    # In units where the rates sit near 2^520 (2^-600), ||L||_F^2 and the
    # squared residual overflow (underflow): formed in those units, the gate
    # residual <= RESIDUAL_RTOL * ||L|| would hold for any solution.
    p = fig2_params(drive=0.001)
    scales = [pytest.param(2.0**520, id="2^520"), pytest.param(2.0**-600, id="2^-600")]

    @pytest.mark.parametrize("c", scales)
    def test_clean_solve_matches_unit_scale_bit_for_bit(self, c):
        want = solve_steady_state(build_liouvillian(self.p)).matrix
        assert np.array_equal(solve_steady_state(build_liouvillian(rates_times(self.p, c))).matrix,
                              want)

    @pytest.mark.parametrize("c", [pytest.param(1.0, id="1"), *scales])
    def test_corrupted_solve_raises_at_every_scale(self, c, monkeypatch):
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) * (1 + 1e-3))
        with pytest.raises(SteadyStateError, match="residual") as caught:
            solve_steady_state(build_liouvillian(rates_times(self.p, c)))
        # The residual and the bound are reported in the caller's units.
        l_norm = spla.norm(sparse_generator(build_liouvillian(self.p)))
        residual, bound = map(float, re.findall(r"(\S+) exceeds .* = (\S+)$", str(caught.value))[0])
        assert bound / c == pytest.approx(1e-10 * l_norm, rel=1e-3)
        assert residual > bound


class TestTraceDistance:
    def test_orthogonal_pure_states(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert trace_distance(a, b) == pytest.approx(1.0)

    def test_identical_states(self):
        a = np.diag([0.3, 0.7]).astype(complex)
        assert trace_distance(a, a) == 0.0


class TestConvergeTruncation:
    def test_weak_drive_converges_at_smallest_cutoff(self):
        p = fig2_params(drive=0.001)
        rho = converge_truncation(p)
        assert rho.spec.fock_cutoff == 2
        direct = g2_zero_delay(
            solve_steady_state(build_liouvillian(p.with_(fock_cutoff=2)))
        )
        assert g2_zero_delay(rho) == pytest.approx(direct, rel=1e-3)

    def test_reported_cutoff_reproduces_value(self):
        # The returned cutoff is converged: one more Fock level moves g2 by
        # less than the tolerance.
        p = fig2_params(drive=0.1)
        rho = converge_truncation(p)
        value = g2_zero_delay(rho)
        one_more = g2_zero_delay(
            solve_steady_state(
                build_liouvillian(p.with_(fock_cutoff=rho.spec.fock_cutoff + 1))
            )
        )
        assert abs(value - one_more) / max(value, one_more) < TRUNCATION_RTOL

    def test_nonconverging_observable_raises(self, monkeypatch):
        # With a single cutoff to try, nothing can confirm it.
        monkeypatch.setattr(steady_state, "N_MAX_LIMIT", N_MAX_START)
        with pytest.raises(TruncationError, match="trend"):
            converge_truncation(fig2_params(drive=0.001))

    def test_generator_cap_stops_escalation_before_solving(self, monkeypatch):
        # At N = 4 cutoff 2 fits the cap (D = 162) but cutoff 3 does not
        # (D = 512), so no cutoff can be confirmed and nothing is solved.
        def no_solve(lv):
            raise AssertionError("converge_truncation solved a point")

        monkeypatch.setattr(steady_state, "solve_steady_state", no_solve)
        p = ModelParams(4, 40.0, 20.0, 0.6, 0.1, 0.0, 0.5)
        assert p.with_(fock_cutoff=3).hilbert_spec().dim > MAX_HILBERT_DIM
        with pytest.raises(TruncationError) as info:
            converge_truncation(p)
        message = str(info.value)
        for part in ("N = 4", "cutoff 3", "dimension 512", f"cap {MAX_HILBERT_DIM}", "trend: []"):
            assert part in message
