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
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .model import (DensityMatrix, HilbertSpec, ModelParams, build_dissipators,
                    hamiltonian_coefficients, hamiltonian_parts)
from .observables import g2_zero_delay

#: Largest Hilbert dimension D for which generator parts are built.
MAX_HILBERT_DIM = 500

#: Residual bound for the direct solve, relative to the generator norm.
RESIDUAL_RTOL = 1e-10


def unvectorize(v: np.ndarray, dim: int) -> np.ndarray:
    return v.reshape((dim, dim), order="F")


class SteadyStateError(RuntimeError):
    pass


#: A generator's parameter-free parts, reduced, and the solve's orbit maps; see
#: :func:`generator_parts`.
GeneratorParts = namedtuple("GeneratorParts", "positions reduced slots bounds starts gram scale "
                                              "labels w_cols w_coefs trace")


@dataclass(frozen=True)
class Liouvillian:
    """Generator sum_k weights[k] L_k of spec's cached parts (:func:`generator_parts`);
    raises ValueError unless weights is one real, finite number per part."""

    spec: HilbertSpec
    parts: GeneratorParts
    weights: np.ndarray

    def __post_init__(self):
        w, k = np.asarray(self.weights), self.parts.gram.shape[0]
        if w.dtype.kind not in "iuf" or w.shape != (k,) or not np.isfinite(w).all():
            raise ValueError(f"weights must be {k} real, finite numbers, one per part: {w!r}")

    @property
    def dim(self) -> int:
        return self.spec.dim


@functools.lru_cache(maxsize=32)
def generator_parts(spec: HilbertSpec) -> GeneratorParts:
    """The generator's parameter-free parts on spec's space, built once.

    Part k is -i[H_k, .] for each H_k of :func:`hamiltonian_parts`, then the
    unit-rate dissipator of :func:`build_dissipators`, whose ladders the
    Hamiltonian parts reuse; weighted by :func:`hamiltonian_coefficients` and
    kappa, they sum to L.  One part at a time, the entries of its Kronecker
    terms f kron(a, b) are summed by orbit pair, and reduced[k] = Re(E L_k W)
    is kept at the ascending flat indices positions of the m x m orbit system
    where some part is nonzero.
    gram[k, l] = Re tr(L_k^dag L_l), from tr(kron(a, b)^dag kron(c, e)) =
    tr(a^dag c) tr(b^dag e), gives ||L||_F^2 = w^T gram w.  Every part
    commutes with mode exchange and preserves Hermiticity, so L W y = W z
    with Re(E L W) y = |orbit| z and ||L W y||^2 = sum_q scale[q]
    (Re(E L W) y)_q^2 for scale[q] = ||W e_q||^2 / |orbit q|^2.  In sector
    order (starts, :func:`orbit_labels`), row sector s's entries are bounds[s]
    to bounds[s+1] and meet columns starts[s-1] .. starts[s+3]; slots places
    them in a buffer of those four column sectors' row-major blocks, and an
    entry outside that band raises SteadyStateError.  labels, w_cols, w_coefs
    and trace are :func:`hermitian_coordinates`'.  Read-only arrays.
    """
    d, eye, sums = spec.dim, np.eye(spec.dim), []
    labels, starts, w_cols, w_coefs, e_rows, e_coefs, trace = hermitian_coordinates(spec)
    m, grid = trace.size, labels.reshape(d, d)
    sm, *modes = ops = build_dissipators(spec)
    parts = [[(-1j, eye, h), (1j, h.T, eye)] for h in hamiltonian_parts(sm, modes)] + [[]]
    for o in ops:  # unit rate; f kron(a, b), as in the module docstring
        odo = o.conj().T @ o
        parts[-1] += [(1.0, o.conj(), o), (-0.5, eye, odo), (-0.5, odo.T, eye)]
    fs, a_s, b_s = zip(*(term for part in parts for term in part))
    gram = np.outer(np.conj(fs), fs)  # of the terms, times tr(a^dag c) tr(b^dag e) below
    for stack in map(np.array, (a_s, b_s)):
        stack = stack[:, stack.any(axis=0)]  # only the entries nonzero in some factor
        gram = gram * (stack.conj() @ stack.T)
    member = np.repeat(np.eye(len(parts)), list(map(len, parts)), axis=1)  # each term's part
    gram = (member @ gram @ member.T).real
    for k, part in enumerate(parts):  # part k's entries, summed by orbit pair
        keys, vals = [], []
        for f, a, b in part:
            (ra, ca), (rb, cb) = np.nonzero(a), np.nonzero(b)
            keys.append((grid[ra[:, None], rb] * m + grid[ca[:, None], cb]).ravel())
            vals.append((f * np.outer(a[ra, ca], b[rb, cb])).ravel())
        keys, vals = np.concatenate(keys), np.concatenate(vals)
        read = e_coefs[0, keys // m] != 0  # E reads only the rows of orbits o <= t(o)
        keys, inverse = np.unique(keys[read], return_inverse=True)
        vals = vals[read]
        z = np.bincount(inverse, vals.real) + 1j * np.bincount(inverse, vals.imag)
        sums.append((keys, z, np.full(keys.size, k)))
    keys, z, owner = map(np.concatenate, zip(*sums))
    rows, cols = np.divmod(keys, m)  # orbits; meet E in up to 2 rows, W in up to 2 columns
    coefs = (e_coefs[:, None, rows] * w_coefs[None, :, cols] * z).real.reshape(4, -1)
    pair, entry = np.nonzero(coefs)
    targets = (e_rows[:, None, rows] * m + w_cols[None, :, cols]).reshape(4, -1)[pair, entry]
    positions, inverse = np.unique(targets, return_inverse=True)
    reduced = np.bincount(owner[entry] * positions.size + inverse, coefs[pair, entry],
                          len(parts) * positions.size).reshape(len(parts), -1)
    keep = np.any(reduced != 0, axis=0)  # drops orbit sums that cancel in every part
    positions, reduced = positions[keep], reduced[:, keep]
    size = np.bincount(labels, minlength=m)  # of each orbit
    scale = np.bincount(w_cols.ravel(), (np.abs(w_coefs) ** 2 * size).ravel(), m) / size**2
    n, (i, j) = np.diff(starts), np.divmod(positions, m)
    si, sj = np.repeat(np.arange(n.size), n)[[i, j]]  # row and column sectors
    if np.any((sj < si - 1) | (sj > si + 2)):
        raise SteadyStateError(
            "a generator part lies outside the excitation-sector band: the solve assumes "
            "row sector s = k_bra + k_ket couples only to sectors s - 1 .. s + 2"
        )
    first = starts[np.maximum(si - 1, 0)]  # row sector si's first column
    slots = n[si] * (starts[sj] - first) + (i - starts[si]) * n[sj] + j - starts[sj]
    bounds = np.searchsorted(positions, starts * m)
    arrays = (positions, reduced, slots, bounds, starts, gram, scale, labels, w_cols, w_coefs,
              trace)
    for arr in arrays:
        arr.flags.writeable = False
    return GeneratorParts(*arrays)


def build_liouvillian(p: ModelParams) -> Liouvillian:
    """Generator at p: the cached parts of p's space, weighted by p."""
    spec = p.hilbert_spec()
    if spec.dim > MAX_HILBERT_DIM:
        raise ValueError(
            f"Hilbert dimension {spec.dim} of N = {spec.n_modes} modes at Fock cutoff "
            f"{spec.fock_cutoff} exceeds the generator cap {MAX_HILBERT_DIM}"
        )
    weights = np.array([*hamiltonian_coefficients(p), p.decay])
    return Liouvillian(spec, generator_parts(spec), weights)


def orbit_labels(spec: HilbertSpec) -> tuple[np.ndarray, np.ndarray]:
    """(labels, starts): the mode-permutation orbit of each vec index |i><j|,
    as D^2 integer labels, and the orbits starts[s] .. starts[s+1] - 1 of
    each excitation sector s = k_bra + k_ket.

    Two vec indices share an orbit when their qubit rows and columns agree
    and their per-mode pairs (a_k, b_k) agree as multisets.  Orbits are
    numbered by sector, then by first vec index, so sectors never decrease
    with the orbit number, orbit 0 is the ground-state projector alone and
    at N = 1 the labels are a permutation of 0 .. D^2 - 1.  The transposes
    |j><i| of orbit o form one orbit t(o) of the same sector, which
    :func:`hermitian_coordinates` pairs with o.
    """
    d = spec.dim
    digits = np.indices(spec.dims).reshape(len(spec.dims), d)
    rows = digits[:, np.tile(np.arange(d), d)]
    cols = digits[:, np.repeat(np.arange(d), d)]
    pairs = np.sort(rows[1:] * spec.local_dim + cols[1:], axis=0)
    keys = np.vstack([rows[:1], cols[:1], pairs])
    _, first, label = np.unique(keys, axis=1, return_index=True, return_inverse=True)
    sector = (rows[:, first] + cols[:, first]).sum(axis=0)
    order = np.lexsort((first, sector))
    return np.argsort(order)[label.reshape(-1)], np.r_[0, np.cumsum(np.bincount(sector))]


def hermitian_coordinates(spec: HilbertSpec) -> tuple[np.ndarray, ...]:
    """(labels, starts, w_cols, w_coefs, e_rows, e_coefs, trace): m real
    coordinates y of the Hermitian permutation-invariant states, as numpy
    index maps, in the orbit order of :func:`orbit_labels` (labels, starts).

    Orbits o and t(o) hold conjugate values, so x_o = y_o when o = t(o), and
    x_o = y_o + i y_t(o) and x_t(o) = y_o - i y_t(o) when o < t(o); v = W y.
    Row o of E sums over orbit o for o <= t(o), and row t(o) is that sum
    times -i for o < t(o), so Re(E L W) y = 0 holds the real and imaginary
    parts of the orbit equations.  The four maps hold one column per orbit:
    row k of W is w_coefs[:, o] at columns w_cols[:, o] and column k of E is
    e_coefs[:, o] at rows e_rows[:, o] (zero: no entry), for o = labels[k],
    and trace = Re(vec(I)^T W).  The solve reads them from :func:`generator_parts`.
    """
    d, (labels, starts) = spec.dim, orbit_labels(spec)
    m = starts[-1]
    k, o = np.arange(d * d), np.arange(m)
    t = np.empty(m, dtype=np.intp)
    t[labels] = labels[(k % d) * d + k // d]
    return (labels, starts) + tuple(np.stack(pair) for pair in (
        (np.minimum(o, t), np.maximum(o, t)), (np.ones(m), 1j * np.sign(t - o)),
        (o, t), ((o <= t) * 1.0, np.where(o < t, -1j, 0)),
    )) + (np.bincount(labels[:: d + 1], minlength=m).astype(float),)


def solve_steady_state(lv: Liouvillian) -> DensityMatrix:
    """Unique steady state of lv, solved sector by sector along the excitation hierarchy.

    The modes share every parameter and L preserves Hermiticity, so the
    unique steady state is a permutation-invariant Hermitian matrix, v = W y
    for m real coordinates y (:func:`hermitian_coordinates`), with
    Re(E L W) y = 0.  H_0 keeps the total excitation number k, the drives
    move it by one and a jump lowers bra and ket together, so in sectors
    s = k_bra + k_ket that system couples y_s only to y_{s-1} .. y_{s+2}:
    A[s, s-1] y_{s-1} + A[s, s] y_s + A[s, s+1] y_{s+1} + A[s, s+2] y_{s+2} = 0.
    In sector order (:func:`orbit_labels`), y is the y_s end to end.  Sector 0
    is the vacuum alone; its coordinate is pinned to 1 and its row, the one
    the trace makes redundant, dropped.  A sweep down from the top sector
    fills row sector s's four blocks only on reaching it and eliminates
    y_s = X_s y_{s-1} with
    X_s = -M_s^-1 A[s, s-1], M_s = A[s, s] + (A[s, s+1] + A[s, s+2] X_{s+2}) X_{s+1},
    a matrix continued fraction (Risken, The Fokker-Planck Equation, ch. 9);
    a sweep up applies the X_s, and the trace row normalizes.  Each LU factors
    one sector's block, so pivoting never trades the tiny multi-excitation
    moments of a blockade dip against the vacuum's coordinates.  Raises
    SteadyStateError when an M_s is singular (the steady state is not unique)
    or when the residual ||L v|| in the orbit coordinates
    (:func:`generator_parts`) exceeds RESIDUAL_RTOL * ||L||_F.
    """
    parts = lv.parts
    # 2^-e L has L's steady state and rounds nothing; with its largest weight
    # below 1, ||L||^2 and the squared residual neither overflow nor underflow.
    exp = int(np.frexp(np.abs(lv.weights).max())[1])
    weights = np.ldexp(lv.weights, -exp)
    weighted = weights @ parts.reduced
    starts, bounds = parts.starts.tolist() + [parts.trace.size] * 2, parts.bounds.tolist()
    n, top = np.diff(starts).tolist(), parts.starts.size - 2  # sectors past top are empty
    x = {top + 1: np.zeros((0, n[top])), top + 2: np.zeros((0, 0))}
    for s in range(top, 0, -1):
        lo = starts[s - 1]  # row sector s's band: columns lo .. starts[s + 3]
        band = np.zeros(n[s] * (starts[s + 3] - lo))  # its four blocks, filled only now
        band[parts.slots[bounds[s] : bounds[s + 1]]] = weighted[bounds[s] : bounds[s + 1]]
        a = [band[n[s] * (starts[t] - lo) : n[s] * (starts[t + 1] - lo)].reshape(n[s], n[t])
             for t in range(s - 1, s + 3)]
        try:
            x[s] = -np.linalg.solve(a[1] + (a[2] + a[3] @ x[s + 2]) @ x[s + 1], a[0])
        except np.linalg.LinAlgError as exc:
            raise SteadyStateError(
                f"non-unique steady state: sector {s} of the generator is singular ({exc})"
            ) from exc
    ys = [np.ones(1)]
    for s in range(1, top + 1):
        ys.append(x[s] @ ys[-1])
    y = np.concatenate(ys)
    y /= parts.trace @ y
    v = (parts.w_coefs * y[parts.w_cols]).sum(axis=0)[parts.labels]  # spread to the D^2 entries

    rows, cols = np.divmod(parts.positions, starts[-1])
    residual = np.sqrt(parts.scale @ np.bincount(rows, weighted * y[cols], starts[-1]) ** 2)
    l_norm = np.sqrt(weights @ parts.gram @ weights)
    if not residual <= RESIDUAL_RTOL * l_norm:  # also rejects a NaN residual
        raise SteadyStateError(
            f"steady-state residual {np.ldexp(residual, exp):.3e} exceeds "
            f"{RESIDUAL_RTOL:.1e} * ||L|| = {np.ldexp(RESIDUAL_RTOL * l_norm, exp):.3e}"
        )

    return DensityMatrix(unvectorize(v, lv.dim), lv.spec)


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
