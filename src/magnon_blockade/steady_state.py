"""Liouvillian construction and steady-state solvers.

Vectorization uses column stacking: vec(A X B) = (B^T kron A) vec(X).
With that convention the generator reads

    L = -i (I kron H - H^T kron I)
        + sum_o (kappa_o / 2) [2 conj(o) kron o - I kron o^dag o - (o^dag o)^T kron I]

which reproduces d rho / dt = -i [H, rho] + sum_o (kappa_o/2) (2 o rho o^dag
- o^dag o rho - rho o^dag o).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .model import ModelParams, build_dissipators, hamiltonian_coefficients, hamiltonian_parts
from .observables import g2_zero_delay
from .operators import DensityMatrix, HilbertSpec

#: Largest Hilbert dimension D for which a D^2 x D^2 generator is built.
MAX_HILBERT_DIM = 500

#: Residual bound for the direct solve, relative to the generator norm.
RESIDUAL_RTOL = 1e-10

#: Largest real system solve_steady_state factors densely; larger ones take sparse LU.
DENSE_SOLVE_MAX_ROWS = 4096


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-stack a matrix."""
    return rho.reshape(-1, order="F")


def unvectorize(v: np.ndarray, dim: int) -> np.ndarray:
    return v.reshape((dim, dim), order="F")


@dataclass(frozen=True)
class Liouvillian:
    """Sparse generator acting on column-stacked density matrices."""

    matrix: sp.csr_matrix
    spec: HilbertSpec

    @property
    def dim(self) -> int:
        return self.spec.dim


def liouvillian_matrix(
    h: np.ndarray, dissipators: list[tuple[np.ndarray, float]]
) -> sp.csr_matrix:
    """Generator from a Hamiltonian and (collapse operator, rate) pairs."""
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


@functools.lru_cache(maxsize=32)
def generator_parts(spec: HilbertSpec) -> tuple[np.ndarray, np.ndarray, sp.csr_matrix]:
    """(indptr, indices, values): the generator's parameter-free parts.

    Part k is -i[H_k, .] for each H_k of :func:`hamiltonian_parts`, then the
    dissipator of the collapse operators of :func:`build_dissipators` at
    unit rate.  Row k of the complex sparse 6 x nnz matrix values is part k
    on the CSR pattern (indptr, indices); weighted by the coefficients of
    :func:`hamiltonian_coefficients` and kappa, the rows sum to L.  The
    cached arrays are shared by every caller: do not modify them.
    """
    n = spec.dim**2
    parts = [liouvillian_matrix(h, []).tocoo() for h in hamiltonian_parts(spec)]
    unit_rate = [(o, 1.0) for o in build_dissipators(spec)]
    parts.append(liouvillian_matrix(np.zeros((spec.dim, spec.dim)), unit_rate).tocoo())
    data = np.concatenate([p.data for p in parts])
    rows, cols = np.concatenate([p.row for p in parts]), np.concatenate([p.col for p in parts])
    pattern = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    keys = np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(pattern.indptr)) + pattern.indices
    position = np.searchsorted(keys, rows.astype(np.int64) * n + cols)
    sizes = np.cumsum([0] + [part.nnz for part in parts])
    values = sp.csr_matrix((data, position, sizes), shape=(len(parts), keys.size))
    return pattern.indptr, pattern.indices, values


def build_liouvillian(p: ModelParams) -> Liouvillian:
    """Generator at p: the cached parts of p's space, weighted by p."""
    spec = p.hilbert_spec()
    if spec.dim > MAX_HILBERT_DIM:
        raise ValueError(
            f"Hilbert dimension {spec.dim} of N = {spec.n_modes} modes at Fock cutoff "
            f"{spec.fock_cutoff} exceeds the generator cap {MAX_HILBERT_DIM}"
        )
    indptr, indices, values = generator_parts(spec)
    weights = np.array([*hamiltonian_coefficients(p), p.decay])
    n = spec.dim**2
    matrix = sp.csr_matrix((values.T @ weights, indices.copy(), indptr.copy()), shape=(n, n))
    return Liouvillian(matrix, spec)


class SteadyStateError(RuntimeError):
    pass


def orbit_labels(spec: HilbertSpec) -> np.ndarray:
    """Mode-permutation orbit of each vec index |i><j|, as D^2 integer labels.

    Two vec indices share an orbit when their qubit rows and columns agree
    and their per-mode pairs (a_k, b_k) agree as multisets.  Orbits are
    numbered by their first vec index, so orbit 0 is the ground-state
    projector alone and at N = 1 the labels are 0 .. D^2 - 1.  The
    transposes |j><i| of orbit o form one orbit t(o), which
    :func:`hermitian_coordinates` pairs with o.
    """
    d = spec.dim
    digits = np.indices(spec.dims).reshape(len(spec.dims), d)
    rows = digits[:, np.tile(np.arange(d), d)]
    cols = digits[:, np.repeat(np.arange(d), d)]
    pairs = np.sort(rows[1:] * spec.local_dim + cols[1:], axis=0)
    keys = np.vstack([rows[:1], cols[:1], pairs])
    _, first, label = np.unique(keys, axis=1, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.intp)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[label.reshape(-1)]


@functools.lru_cache(maxsize=32)
def hermitian_coordinates(spec: HilbertSpec) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """(W, E): m real coordinates y of the Hermitian permutation-invariant states.

    Orbits o and t(o) hold conjugate values, so x_o = y_o when o = t(o), and
    x_o = y_o + i y_t(o) and x_t(o) = y_o - i y_t(o) when o < t(o); v = W y.
    Row o of E sums over orbit o for o <= t(o), and row t(o) is that sum
    times -i for o < t(o), so Re(E L W) y = 0 holds the real and imaginary
    parts of the orbit equations.  Vec index k takes row labels[k] of the
    m x m map c into W and column labels[k] of f into E.  The cached
    matrices are shared and read-only.
    """
    d, labels = spec.dim, orbit_labels(spec)
    m = int(labels.max()) + 1
    k, o = np.arange(d * d), np.arange(m)
    t = np.empty(m, dtype=np.intp)
    t[labels] = labels[(k % d) * d + k // d]
    lo, hi = np.minimum(o, t), np.maximum(o, t)
    c = sp.csr_matrix(
        (np.r_[np.ones(m), 1j * np.sign(t - o)], (np.r_[o, o], np.r_[lo, hi])), shape=(m, m)
    )
    f = sp.csr_matrix((np.where(o <= t, 1, -1j), (o, lo)), shape=(m, m))
    w, e = c[labels], f.tocsc()[:, labels].tocsr()
    for mat in (w, e):
        mat.sort_indices()
        for arr in (mat.data, mat.indices, mat.indptr):
            arr.flags.writeable = False
    return w, e


def solve_steady_state(lv: Liouvillian) -> DensityMatrix:
    """Unique steady state via L vec(rho) = 0 with one row traded for trace = 1.

    The modes share every parameter and L preserves Hermiticity, so the
    unique steady state is a permutation-invariant Hermitian matrix.  The
    solve runs on its m real coordinates y of v = W y, from
    :func:`hermitian_coordinates`: the real m x m system Re(E L W) y = 0,
    its orbit-0 row traded for the trace condition Re(vec(I)^T W) y = 1.
    The unknowns stay in orbit order: grouping real and imaginary parts
    apart gives the same entries, but partial pivoting then loses the tiny
    multi-excitation moments of a blockade dip.  Up to DENSE_SOLVE_MAX_ROWS
    rows take a dense LU solve; larger systems a sparse LU factorization
    followed by one step of iterative refinement, which keeps those moments
    from drowning in round-off.  Raises SteadyStateError when the row-replaced
    system is singular (the steady state is not unique) or the residual of
    v on the full generator exceeds RESIDUAL_RTOL * ||L||, as it does for a
    generator that breaks mode exchange or Hermiticity.
    """
    d = lv.dim
    w, e = hermitian_coordinates(lv.spec)
    n = w.shape[1]
    reduced = (e @ lv.matrix @ w).real
    trace = (vectorize(np.eye(d)) @ w).real
    rhs = np.zeros(n)
    rhs[0] = 1.0

    try:
        if n <= DENSE_SOLVE_MAX_ROWS:
            mat = reduced.toarray()
            mat[0] = trace
            y = np.linalg.solve(mat, rhs)
        else:
            mat = sp.vstack([sp.csr_matrix(trace), reduced.tocsr()[1:]], format="csc")
            lu = spla.splu(mat)
            y = lu.solve(rhs)
            y += lu.solve(rhs - mat @ y)
    except (np.linalg.LinAlgError, RuntimeError) as exc:
        raise SteadyStateError(
            f"non-unique steady state: row-replaced generator is singular ({exc})"
        ) from exc
    v = w @ y

    l_norm = spla.norm(lv.matrix)
    residual = np.linalg.norm(lv.matrix @ v)
    if not residual <= RESIDUAL_RTOL * l_norm:  # also rejects a NaN residual
        raise SteadyStateError(
            f"steady-state residual {residual:.3e} exceeds "
            f"{RESIDUAL_RTOL:.1e} * ||L|| = {RESIDUAL_RTOL * l_norm:.3e}; "
            "the solve assumes a generator symmetric under mode exchange "
            "that preserves Hermiticity"
        )

    rho = unvectorize(v, d)
    rho = rho / np.trace(rho).real
    return DensityMatrix(rho, lv.spec)


class TruncationError(RuntimeError):
    pass


#: Fock cutoffs tried by converge_truncation, smallest first.
N_MAX_START = 2
N_MAX_LIMIT = 8

#: Relative change of g2 between successive cutoffs that counts as converged.
TRUNCATION_RTOL = 1e-3


def converge_truncation(p: ModelParams) -> DensityMatrix:
    """Escalate the Fock cutoff until g2 stops moving.

    Returns the steady state at the smallest cutoff whose g2 agrees with the
    next cutoff's to relative tolerance TRUNCATION_RTOL; that cutoff is its
    spec.fock_cutoff.  Raises TruncationError with the observed trend if no
    two successive cutoffs up to N_MAX_LIMIT agree, or, before solving a
    cutoff, if the space of the cutoff that would confirm it exceeds
    MAX_HILBERT_DIM.
    """
    trend = []
    previous = None
    for n_max in range(N_MAX_START, N_MAX_LIMIT + 1):
        # A cutoff is confirmed by the next one, so the first solve needs two spaces.
        needed = n_max if previous is not None else n_max + 1
        dim = p.with_(fock_cutoff=needed).hilbert_spec().dim
        if dim > MAX_HILBERT_DIM:
            raise TruncationError(
                f"g2 at N = {p.n_modes} cannot be checked past fock cutoff {needed - 1}: "
                f"cutoff {needed} has Hilbert dimension {dim}, above the generator "
                f"cap {MAX_HILBERT_DIM}; trend: {trend}"
            )
        rho = solve_steady_state(build_liouvillian(p.with_(fock_cutoff=n_max)))
        value = g2_zero_delay(rho)
        trend.append((n_max, value))
        if previous is not None:
            prev_rho, prev_value = previous
            scale = max(abs(value), abs(prev_value), 1e-300)
            if abs(value - prev_value) / scale < TRUNCATION_RTOL:
                return prev_rho
        previous = rho, value
    raise TruncationError(
        f"g2 did not converge to rtol {TRUNCATION_RTOL} by fock cutoff "
        f"{N_MAX_LIMIT}; trend: {trend}"
    )
