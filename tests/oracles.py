"""Independent reference implementations that the tests check the engines against.

None of these runs in a command or a sweep: density-matrix validity, the
generator as a scipy sparse matrix (built from the operators, given
outright or at a :class:`Liouvillian`'s weights), the sparse W and E of
the Hermitian orbit coordinates and the reduced system Re(E L W), the
generator's trace preservation, time evolution as the check of the direct
solve, the two-excitation ansatz as a linear system and the paper's
closed-form probabilities as the checks of the closed-form amplitudes, the
one-excitation spectrum, the reduced state of one subsystem and
a per-mode occupation for states that need not be mode-symmetric, the
dense Hamiltonian of one point, and the bright-mode map that reduces N
modes to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.special import binom

from magnon_blockade.analytic import ResonanceError, _check_denominator, complex_detuning
from magnon_blockade.model import (
    DensityMatrix,
    HilbertSpec,
    ModelParams,
    build_dissipators,
    hamiltonian_coefficients,
    hamiltonian_parts,
    ladder_operators,
)
from magnon_blockade.steady_state import (
    Liouvillian,
    SteadyStateError,
    build_liouvillian,
    orbit_labels,
    unvectorize,
)

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-8


def validate(rho: DensityMatrix) -> DensityMatrix:
    """Check Hermiticity, unit trace and positivity; raise ValueError otherwise."""
    herm = np.max(np.abs(rho.matrix - rho.matrix.conj().T))
    if herm > HERMITICITY_TOL:
        raise ValueError(f"density matrix not Hermitian: max deviation {herm:.3e}")
    tr = np.trace(rho.matrix)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace {tr} differs from 1")
    w = np.linalg.eigvalsh(0.5 * (rho.matrix + rho.matrix.conj().T))
    if w.min() < -POSITIVITY_TOL:
        raise ValueError(f"density matrix not positive: min eigenvalue {w.min():.3e}")
    return rho


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


def build_effective_hamiltonian(p: ModelParams) -> np.ndarray:
    """Rotating-frame Hamiltonian of the driven qubit + N-mode system, as one
    dense matrix: the parts of `hamiltonian_parts` at p's weights."""
    parts = hamiltonian_parts(*ladder_operators(p.hilbert_spec()))
    return sum(c * h for c, h in zip(hamiltonian_coefficients(p), parts))


def mode_occupation(rho: DensityMatrix, mode: int) -> float:
    """<n> of one mode, from the diagonal of its reduced state.

    The package reads mode 1 only, which stands for every mode of the
    symmetric solve; states from the full-space solve or time evolution
    can differ between modes.
    """
    populations = np.real(np.diagonal(partial_trace(rho, mode)))
    return float(np.arange(populations.size) @ populations)


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-stack a matrix: the inverse of the package's ``unvectorize``."""
    return rho.reshape(-1, order="F")


def sparse_generator(lv: Liouvillian) -> sp.csr_matrix:
    """lv's full D^2 x D^2 generator, assembled by :func:`sparse_liouvillian`
    from the model's operators at lv's weights; lv's cached parts are not read."""
    *coefficients, decay = lv.weights
    sm, *modes = ops = build_dissipators(lv.spec)
    h = sum(c * part for c, part in zip(coefficients, hamiltonian_parts(sm, modes)))
    return sparse_liouvillian(h, [(o, decay) for o in ops])


def sparse_liouvillian(
    h: np.ndarray, dissipators: list[tuple[np.ndarray, float]]
) -> sp.csr_matrix:
    """Generator from a Hamiltonian and (collapse operator, rate) pairs,
    assembled from scipy sparse Kronecker products."""
    d = h.shape[0]
    ident = sp.identity(d, dtype=complex, format="csr")
    h_s = sp.csr_matrix(h)
    lv = -1j * (sp.kron(ident, h_s) - sp.kron(h_s.T, ident))
    for op, rate in dissipators:
        o = sp.csr_matrix(op)
        odo = (o.conj().T @ o).tocsr()
        lv = lv + 0.5 * rate * (
            2.0 * sp.kron(o.conj(), o) - sp.kron(ident, odo) - sp.kron(odo.T, ident)
        )
    return lv.tocsr()


def coordinate_matrices(spec: HilbertSpec) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """(W, E) of the Hermitian orbit coordinates as sparse matrices, built
    from the orbit labels alone: vec index k takes row labels[k] of an
    m x m map c into W and column labels[k] of a map f into E."""
    d, (labels, _) = spec.dim, orbit_labels(spec)
    m = int(labels.max()) + 1
    k, o = np.arange(d * d), np.arange(m)
    t = np.empty(m, dtype=np.intp)
    t[labels] = labels[(k % d) * d + k // d]
    lo, hi = np.minimum(o, t), np.maximum(o, t)
    c = sp.csr_matrix(
        (np.r_[np.ones(m), 1j * np.sign(t - o)], (np.r_[o, o], np.r_[lo, hi])), shape=(m, m)
    )
    f = sp.csr_matrix((np.where(o <= t, 1, -1j), (o, lo)), shape=(m, m))
    return c[labels], f.tocsc()[:, labels].tocsr()


def reduced_system(mat: sp.spmatrix, spec: HilbertSpec) -> np.ndarray:
    """Re(E L W) of a full generator L, dense, from :func:`coordinate_matrices`."""
    w, e = coordinate_matrices(spec)
    return (e @ mat @ w).real.toarray()


def trace_residual(lv: Liouvillian) -> float:
    """Max entry of vec(I)^T L; zero for a trace-preserving generator."""
    ident = vectorize(np.eye(lv.dim, dtype=complex))
    return float(np.max(np.abs(ident @ sparse_generator(lv))))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    w = np.linalg.eigvalsh(0.5 * ((a - b) + (a - b).conj().T))
    return 0.5 * float(np.sum(np.abs(w)))


def evolve_to_steady_state(p: ModelParams, rho0: DensityMatrix) -> DensityMatrix:
    """Integrate the master equation from rho0 until the state settles.

    Independent oracle for :func:`solve_steady_state`.  Runs an adaptive
    explicit Runge-Kutta scheme in checkpoints of 5 / kappa; integration
    runs at least 20 / kappa and until the trace distance between
    successive checkpoints drops below 1e-9, and fails past 400 / kappa,
    naming whether that distance had stopped decreasing.  Raises ValueError
    when rho0 does not live in p's space.
    """
    spec = p.hilbert_spec()
    if rho0.spec != spec:
        raise ValueError(f"initial state lives in {rho0.spec}, but the parameters fix {spec}")
    t_min, t_max, chunk, settle_tol = 20.0 / p.decay, 400.0 / p.decay, 5.0 / p.decay, 1e-9
    mat = sparse_generator(build_liouvillian(p))

    def rhs(_t, v):
        return mat @ v

    v = vectorize(rho0.matrix)
    prev = unvectorize(v, spec.dim)
    t = 0.0
    last_dist = np.inf
    while True:
        sol = solve_ivp(
            rhs,
            (t, t + chunk),
            v,
            method="RK45",
            rtol=1e-9,
            atol=1e-12,
            dense_output=False,
        )
        if not sol.success:
            raise SteadyStateError(f"integrator failed: {sol.message}")
        v = sol.y[:, -1]
        t += chunk
        cur = unvectorize(v, spec.dim)
        dist = trace_distance(cur, prev)
        if t >= t_min and dist < settle_tol:
            break
        if t > t_max:
            if dist >= last_dist:
                raise SteadyStateError(
                    "time evolution is not converging to a steady state "
                    f"(checkpoint distance {dist:.3e})"
                )
            raise SteadyStateError(
                f"time evolution did not settle below {settle_tol:.1e} "
                f"within t = 400/kappa (distance {dist:.3e})"
            )
        prev = cur
        last_dist = dist
    rho = unvectorize(v, spec.dim)
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho)
    return DensityMatrix(rho, spec)


def ansatz_system(p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """The steady equations of the symmetric two-excitation ansatz as
    (matrix, rhs) in the unknowns (c_e0, c_g1, c_e1, c_g11, c_g12).

    5 x 5 at N = 2; 4 x 4 without the cross amplitude otherwise, as in
    :func:`magnon_blockade.analytic.amplitudes_for`.
    """
    n, j, om = p.n_modes, p.coupling, p.drive_rabi
    dt = complex_detuning(p)
    oq = p.probe_rabi * np.exp(-1j * p.phase)
    s2 = math.sqrt(2)
    size = 5 if n == 2 else 4
    mat = np.array(
        [
            dt, n * j, 0, 0, 0,
            j, dt, 0, 0, 0,
            om, oq, 2 * dt, s2 * j, (n - 1) * j,
            0, s2 * om, s2 * j, 2 * dt, 0,
            0, 2 * om, 2 * j, 0, 2 * dt,
        ],
        dtype=complex,
    ).reshape(5, 5)[:size, :size]
    rhs = np.array([-oq, -om, 0, 0, 0][:size], dtype=complex)
    return mat, rhs


@dataclass(frozen=True)
class AnalyticIntermediates:
    """Coefficients of the paper's general-N two-excitation amplitude.

    c_g11 = sqrt(2) (a_coeff c_g1 - b_coeff) / (4 dt^2 - 2 J^2), with dt the
    complex detuning.
    """

    a_coeff: complex
    b_coeff: complex


def intermediates(p: ModelParams) -> AnalyticIntermediates:
    if p.coupling <= 0:
        raise ValueError("intermediates require a positive coupling")
    dt = complex_detuning(p)
    if abs(dt) == 0:
        raise ResonanceError("zero complex detuning")
    phase = np.exp(-1j * p.phase)
    a_coeff = p.coupling * p.probe_rabi * phase - (
        2 * dt + p.n_modes * p.coupling**2 / dt
    ) * p.drive_rabi
    b_coeff = p.coupling * p.drive_rabi * p.probe_rabi * phase / dt
    return AnalyticIntermediates(a_coeff=a_coeff, b_coeff=b_coeff)


def closed_form_probabilities(
    p: ModelParams, small_theta: bool = False
) -> tuple[float, float]:
    """|c_g1|^2 and |c_g11|^2 from the closed forms, for N = 1 or 2 modes.

    The small_theta fast path additionally assumes the optimal ratios
    delta = sqrt(N) J and probe = 3 sqrt(N) drive, and expands to leading
    order in the phase.
    """
    n = p.n_modes
    if n not in (1, 2):
        raise ValueError(f"closed forms exist for one or two modes, not {n}")
    j, k, om, oq, d, th = (
        p.coupling,
        p.decay,
        p.drive_rabi,
        p.probe_rabi,
        p.delta,
        p.phase,
    )
    if small_theta:
        r = k / j
        root_n = math.sqrt(n)
        p_g1 = (
            (64 * n + 4 * (6 * root_n * th - r) ** 2) * om**2 / k**2 / (r**2 + 16 * n)
        )
        p_g11 = (
            4
            * n
            * ((12 * root_n * r * th - r**2) ** 2 + (12 * n * th - 8 * root_n * r) ** 2)
            * om**4
            / j**4
            / (((r**2 - 2 * n) ** 2 + 16 * n * r**2) * (r**4 + 16 * n * r**2))
        )
        return p_g1, p_g11
    dt = complex_detuning(p)
    denom1 = 4 * abs(n * j**2 - dt**2) ** 2
    _check_denominator(denom1, max(j, abs(dt)) ** 4, "single-excitation")
    p_g1 = (
        4 * (d * om - j * oq * math.cos(th)) ** 2
        + (2 * j * oq * math.sin(th) - k * om) ** 2
    ) / denom1
    # Real quadratic coefficients of the two-excitation amplitude.
    a = (
        (2 * j**2 + 4 * d**2 - k**2) * om**2
        + 2 * j**2 * oq**2 * math.cos(2 * th)
        - 8 * d * j * om * oq * math.cos(th)
        + 4 * j * k * om * oq * math.sin(th)
    )
    b = (
        -2 * j**2 * oq**2 * math.sin(2 * th)
        + 8 * d * j * om * oq * math.sin(th)
        + 4 * j * k * om * oq * math.cos(th)
        - 4 * d * k * om**2
    )
    # 8 |(N J^2 - dt^2)(N J^2 - 2 dt^2)|^2, with the factor N pulled out.
    denom2 = 8 * n**2 * abs((n * j**2 - dt**2) * (j**2 - 2 * dt**2 / n)) ** 2
    _check_denominator(denom2, max(j, abs(dt)) ** 8, "two-excitation")
    p_g11 = ((a + 2 * (n - 1) * j**2 * om**2) ** 2 + b**2) / denom2
    return p_g1, p_g11


def single_excitation_energies(p: ModelParams) -> np.ndarray:
    """Eigenvalues of the undriven Hamiltonian in the one-excitation sector.

    The N degenerate modes hybridize with the qubit into one bright pair at
    delta +- sqrt(N) J and N - 1 dark states at delta.
    """
    q = p.with_(probe_rabi=0.0, drive_rabi=0.0, fock_cutoff=1)
    h = build_effective_hamiltonian(q)
    one = np.isclose(np.diag(hamiltonian_parts(*ladder_operators(q.hilbert_spec()))[0]).real, 1.0)
    block = h[np.ix_(one, one)]
    return np.linalg.eigvalsh(block)


def bright_mode(p: ModelParams, cutoff: int) -> ModelParams:
    """The one-mode model that carries all of p's coupling and drive.

    The modes share J, Omega_m, Delta and kappa, so only the bright mode
    b = sum_j m_j / sqrt(N) couples to the qubit and the drive; the N - 1
    dark modes stay in vacuum, since the dissipator is unchanged by the mode
    rotation.  The N-mode model is the one-mode model with J -> sqrt(N) J and
    Omega_m -> sqrt(N) Omega_m.  Each mode then has b's g2, the occupation
    <b^dag b> / N and b's Fock populations thinned with eta = 1 / N.  cutoff
    counts bright-mode quanta: a per-mode cutoff c holds up to N c of them.
    """
    root_n = math.sqrt(p.n_modes)
    return p.with_(
        n_modes=1,
        coupling=root_n * p.coupling,
        drive_rabi=root_n * p.drive_rabi,
        fock_cutoff=cutoff,
    )


def thinned(populations: np.ndarray, eta: float) -> np.ndarray:
    """Fock populations after each quantum is kept with probability eta.

    P'_k = sum_n C(n, k) eta^k (1 - eta)^(n - k) P_n: the state of one port
    of a beam splitter of transmission eta with vacuum at the other.
    """
    n = np.arange(populations.size)
    k = n[:, None]
    keep = binom(n, k) * eta**k * (1 - eta) ** np.maximum(n - k, 0)
    return keep @ populations
