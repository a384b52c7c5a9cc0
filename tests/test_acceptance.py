"""Acceptance gate: published-figure reproduction and property checks.

Each criterion prints exactly one PASS/FAIL line (visible with `pytest -s`
or on failure) and then asserts, so a red criterion carries its own
diagnosis.  Log tolerances are in decades because the reference values
are order-of-magnitude figure readings.
"""

import math

import numpy as np

from magnon_blockade.analytic import (
    amplitudes_for,
    g2_analytic,
    theta_optimal_exact,
)
from magnon_blockade.model import DensityMatrix, HilbertSpec, ModelParams, ladder_operators
from magnon_blockade.observables import blockade_metrics, g2_zero_delay
from magnon_blockade.steady_state import (
    build_liouvillian,
    converge_truncation,
    solve_steady_state,
)
from magnon_blockade.sweep import find_minimum, verify_scaling
from oracles import (
    evolve_to_steady_state,
    intermediates,
    mode_occupation,
    trace_distance,
    trace_residual,
    validate,
)

S2 = math.sqrt(2)


def report(num: int, checks: list[tuple[bool, str]]):
    passed = all(ok for ok, _ in checks)
    failures = [msg for ok, msg in checks if not ok]
    line = f"criterion {num}: {'PASS' if passed else 'FAIL'}"
    if failures:
        line += " [" + "; ".join(failures) + "]"
    print(line)
    assert passed, line


def single_mode_params(drive, theta, kappa=0.5, coupling=35.0, fock_cutoff=4):
    return ModelParams(1, coupling, coupling, 3 * drive, drive, theta, kappa,
                       fock_cutoff)


def two_mode_params(drive, theta, kappa=0.5, coupling=20.0, fock_cutoff=4):
    return ModelParams(2, S2 * coupling, coupling, 3 * S2 * drive, drive,
                       theta, kappa, fock_cutoff)


def numeric_point(p, converge=True):
    """(log10 g2, p1) at a parameter point, Fock cutoff escalated on demand."""
    if converge:
        rho = converge_truncation(p)
    else:
        rho = solve_steady_state(build_liouvillian(p))
    metrics = blockade_metrics(rho)
    return math.log10(metrics.g2_zero), metrics.p1


def check(label, value, target, tol):
    return (
        abs(value - target) <= tol,
        f"{label}: {value:.3f} vs {target} (tol {tol})",
    )


def test_criterion_1_phase_sweep_dips():
    checks = []
    theta_star = theta_optimal_exact(1, 0.5 / 35.0)
    for drive, target_opt in ((0.001, -11.0), (0.05, -8.0), (0.1, -7.0)):
        log_g2_zero, _ = numeric_point(single_mode_params(drive, 0.0))
        checks.append(
            check(f"theta=0, drive {drive}", log_g2_zero, -7.0, 0.5)
        )
        log_g2_opt, _ = numeric_point(single_mode_params(drive, theta_star))
        checks.append(
            check(f"theta_opt, drive {drive}", log_g2_opt, target_opt, 0.7)
        )
    report(1, checks)


def test_criterion_2_optimal_phase_formula():
    checks = []
    coupling = 35.0
    for r in (0.005, 1 / 70, 0.05):
        theta_star = theta_optimal_exact(1, r)
        base = single_mode_params(0.001, 0.0, kappa=r * coupling, fock_cutoff=2)
        argmin, _ = find_minimum(
            base, "theta", (0.2 * theta_star, 2.0 * theta_star),
            engine="analytic",
        )
        checks.append(
            (
                abs(argmin - theta_star) <= 1e-4,
                f"analytic argmin r={r:g}: {argmin:.6f} vs {theta_star:.6f}",
            )
        )
    r = 1 / 70
    theta_star = theta_optimal_exact(1, r)
    base = single_mode_params(0.001, 0.0, kappa=r * coupling, fock_cutoff=2)
    argmin, _ = find_minimum(
        base, "theta", (0.5 * theta_star, 1.5 * theta_star),
        engine="numeric", n_scan=17,
    )
    checks.append(
        (
            abs(argmin - theta_star) <= 0.1 * theta_star,
            f"numeric argmin: {argmin:.6f} vs {theta_star:.6f} (10%)",
        )
    )
    report(2, checks)


def _tradeoff_points(make_params, drives):
    points = []
    for drive in drives:
        points.append(numeric_point(make_params(drive)))
    return points


def _tradeoff_checks(points, targets, drives):
    checks = []
    for (log_g2, p1), (t_g2, t_p1), drive in zip(points, targets, drives):
        checks.append(check(f"log10 g2 at drive {drive}", log_g2, t_g2, 0.5))
        checks.append(check(f"P1 at drive {drive}", p1, t_p1, 0.03))
    logs = [lg for lg, _ in points]
    p1s = [p1 for _, p1 in points]
    checks.append(
        (
            all(a < b for a, b in zip(logs, logs[1:])),
            f"g2 not monotone in drive: {[f'{v:.2f}' for v in logs]}",
        )
    )
    checks.append(
        (
            all(a < b for a, b in zip(p1s, p1s[1:])),
            f"P1 not monotone in drive: {[f'{v:.3f}' for v in p1s]}",
        )
    )
    return checks


def test_criterion_3_single_mode_tradeoff():
    kappa = 0.1
    theta = theta_optimal_exact(1, kappa / 35.0)
    drives = (0.05, 0.13, 0.46)
    points = _tradeoff_points(
        lambda d: single_mode_params(d, theta, kappa=kappa), drives
    )
    targets = ((-8.2, 0.20), (-7.0, 0.24), (-5.0, 0.25))
    report(3, _tradeoff_checks(points, targets, drives))


def test_criterion_4_detuning_structure():
    checks = []

    def point(delta_over_j, ratio):
        p = ModelParams(2, delta_over_j * 20.0, 20.0, ratio * 0.1, 0.1, 0.0,
                        1.0, fock_cutoff=4)
        rho = solve_steady_state(build_liouvillian(p))
        return math.log10(g2_zero_delay(rho))

    peak = point(1.0, 1.0)
    checks.append(check("peak at delta/J=+1, ratio 1", peak, 6.0, 1.0))
    checks.append((point(-1.0, 1.0) > 0, "no bunching at delta/J=-1"))
    dip_plus = {ratio: point(S2, ratio) for ratio in (1, 2, 5, 10)}
    dip_minus = {ratio: point(-S2, ratio) for ratio in (1, 2, 5, 10)}
    checks.append(check("dip at +sqrt2, ratio 5", dip_plus[5], -4.0, 0.5))
    minus_values = list(dip_minus.values())
    checks.append(
        check("dip at -sqrt2 (mean)", float(np.mean(minus_values)), -2.0, 0.5)
    )
    spread = max(minus_values) - min(minus_values)
    checks.append(
        (spread <= 0.5, f"dip spread over ratios {spread:.2f} > 0.5 decades")
    )
    report(4, checks)


def test_criterion_5_common_drive_ratio_optimum():
    checks = []
    ratios = np.linspace(1.0, 8.0, 29)

    def value(coupling, ratio):
        p = ModelParams(2, S2 * coupling, coupling, ratio * 0.1, 0.1, 0.0,
                        1.0, fock_cutoff=4)
        rho = solve_steady_state(build_liouvillian(p))
        return math.log10(g2_zero_delay(rho))

    targets = {1.0: -0.9, 5.0: -3.0, 10.0: -4.3, 20.0: -5.5}
    for coupling, target in targets.items():
        values = [value(coupling, ratio) for ratio in ratios]
        minimum = min(values)
        # "Common argmin at 3 sqrt(2)" read at figure resolution: the value
        # at the shared ratio is indistinguishable from the curve minimum on
        # a log axis (the J=1 curve is too shallow to localize more finely).
        excess = value(coupling, 3 * S2) - minimum
        checks.append(
            (
                excess <= 0.05,
                f"J={coupling:g}: g2 at 3*sqrt2 exceeds minimum by "
                f"{excess:.3f} decades",
            )
        )
        checks.append(check(f"J={coupling:g} minimum", minimum, target, 0.5))
    report(5, checks)


def test_criterion_6_two_mode_phase_dips():
    checks = []
    # Grid reading convention: theta / pi on multiples of 5e-4, matching the
    # published resolution, so razor-thin interference dips are sampled the
    # same way the reference values were.
    thetas = [k * 5e-4 * math.pi for k in range(13)]
    for drive, target, cutoff in ((0.1, -6.4, 4), (0.05, -7.3, 4),
                                  (0.001, -9.0, 2)):
        values = []
        for theta in thetas:
            p = two_mode_params(drive, theta, fock_cutoff=cutoff)
            rho = solve_steady_state(build_liouvillian(p))
            values.append(math.log10(g2_zero_delay(rho)))
        checks.append(
            check(f"grid minimum, drive {drive}", min(values), target, 0.7)
        )
    theta_star = theta_optimal_exact(2, 0.025)
    base = two_mode_params(0.001, 0.0, fock_cutoff=2)
    argmin, _ = find_minimum(
        base, "theta", (0.2 * theta_star, 2.0 * theta_star), engine="analytic"
    )
    checks.append(
        (
            abs(argmin - theta_star) <= 1e-4,
            f"analytic argmin {argmin:.6f} vs {theta_star:.6f}",
        )
    )
    report(6, checks)


def test_criterion_7_two_mode_tradeoff():
    kappa = 0.1
    theta = theta_optimal_exact(2, kappa / 20.0)
    drives = (0.04, 0.08, 0.26)
    points = _tradeoff_points(
        lambda d: two_mode_params(d, theta, kappa=kappa), drives
    )
    targets = ((-7.8, 0.10), (-6.9, 0.12), (-5.0, 0.125))
    report(7, _tradeoff_checks(points, targets, drives))


def test_criterion_8_collective_scaling():
    result = verify_scaling(n_list=(1, 2, 3))
    checks = [
        (e.error is None, f"N={e.n_modes} failed: {e.error}")
        for e in result.entries
    ]
    expected = {
        "delta_over_j": (0.5, 0.05),
        "probe_over_drive": (0.5, 0.05),
        "theta_times_j_over_kappa": (-0.5, 0.1),
    }
    for name, (target, tol) in expected.items():
        slope = result.exponents.get(name)
        checks.append(
            (
                slope is not None and abs(slope - target) <= tol,
                f"exponent {name}: {slope} vs {target} (tol {tol})",
            )
        )
    report(8, checks)


def test_criterion_9_property_suite():
    checks = []

    # Trace preservation of the generator.
    for p in (single_mode_params(0.05, 0.0), two_mode_params(0.05, 0.0, fock_cutoff=3)):
        residual = trace_residual(build_liouvillian(p))
        checks.append(
            (residual <= 1e-9, f"trace residual {residual:.2e} > 1e-9")
        )

    # Steady states satisfy the density-matrix tolerances.
    for p in (single_mode_params(0.1, 0.005), two_mode_params(0.05, 0.005, fock_cutoff=3)):
        try:
            validate(solve_steady_state(build_liouvillian(p)))
            checks.append((True, ""))
        except ValueError as exc:
            checks.append((False, f"invalid steady state: {exc}"))

    # Direct solve agrees with time evolution on random weak-drive draws.
    # Time evolution assumes no mode symmetry, so its N = 2 states carry the
    # mode-exchange check; the symmetric-sector solve is symmetric by
    # construction.  Their occupations are ~1e-8, so the asymmetry is taken
    # relative to the occupation.
    rng = np.random.default_rng(2026)
    worst = asym = 0.0
    for k in range(10):
        n_modes = 2 if k >= 8 else 1
        coupling = rng.uniform(5.0, 40.0)
        p = ModelParams(
            n_modes=n_modes,
            delta=rng.uniform(0.8, 1.2) * math.sqrt(n_modes) * coupling,
            coupling=coupling,
            probe_rabi=rng.uniform(1e-3, 1e-2),
            drive_rabi=rng.uniform(1e-3, 1e-2),
            phase=rng.uniform(-0.02, 0.02),
            decay=rng.uniform(0.3, 1.5),
            fock_cutoff=2,
        )
        direct = solve_steady_state(build_liouvillian(p))
        spec = p.hilbert_spec()
        vac = np.zeros((spec.dim, spec.dim), dtype=complex)
        vac[0, 0] = 1.0
        evolved = evolve_to_steady_state(p, DensityMatrix(vac, spec))
        worst = max(worst, trace_distance(direct.matrix, evolved.matrix))
        if n_modes == 2:
            n1, n2 = mode_occupation(evolved, 1), mode_occupation(evolved, 2)
            asym = max(asym, abs(n1 - n2) / (n1 + n2))
    checks.append(
        (worst <= 1e-6, f"solve-vs-evolve distance {worst:.2e} > 1e-6")
    )
    checks.append((asym <= 1e-8, f"relative mode asymmetry {asym:.2e} > 1e-8"))

    # Analytic model tracks the numerics in the weak-drive regime on the
    # published phase grids (figure-resolution sampling).
    def log_gap(p):
        rho = solve_steady_state(build_liouvillian(p))
        numeric = g2_zero_delay(rho)
        analytic = g2_analytic(amplitudes_for(p))
        return abs(math.log10(numeric) - math.log10(analytic))

    # theta / pi on multiples of 5e-4, the published sampling resolution;
    # between those samples the interference dip is sharper than either
    # engine's reading of it.
    gaps = []
    for k in range(-6, 14):
        gaps.append(log_gap(single_mode_params(0.001, k * 5e-4 * math.pi,
                                               fock_cutoff=2)))
    for k in range(-6, 17):
        gaps.append(log_gap(two_mode_params(0.001, k * 5e-4 * math.pi,
                                            fock_cutoff=2)))
    checks.append(
        (max(gaps) <= 0.3, f"analytic-numeric gap {max(gaps):.3f} > 0.3")
    )

    # The two-excitation numerator coefficient vanishes exactly at the
    # collective optimum in the lossless limit.
    for n in range(1, 6):
        root_n = math.sqrt(n)
        p = ModelParams(n, root_n * 20.0, 20.0, 3 * root_n * 0.01, 0.01, 0.0,
                        1e-300)
        a = intermediates(p).a_coeff
        scale = p.coupling * p.probe_rabi
        checks.append(
            (abs(a) <= 1e-10 * scale, f"N={n} coefficient {abs(a):.2e}")
        )

    # Truncated-ladder commutator identity.
    for n_max in (1, 2, 4):
        (a,) = ladder_operators(HilbertSpec(1, n_max))[1]
        comm = a @ a.conj().T - a.conj().T @ a
        local = np.eye(n_max + 1, dtype=complex)
        local[n_max, n_max] = -n_max
        checks.append(
            (
                bool(np.allclose(comm, np.kron(np.eye(2), local), rtol=0, atol=1e-13)),
                f"commutator identity broken at cutoff {n_max}",
            )
        )

    report(9, checks)
