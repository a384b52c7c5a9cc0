"""Correctness oracle: every point of a pass gets a verdict.

Three kinds of check, each turning a wrong answer into a failed point:

* sanity on every output (finite, positive g2; cutoff and P1 in range);
* for the default seed, agreement with ``reference.json``, the outputs
  stored from the seed commit (log10 g2, Fock cutoff ``n_max``, argmin);
* oracles that hold for any seed: numeric vs analytic g2 on the weak-drive
  series, and located minima vs the closed-form optimal phase.  On the
  optimum search the vertex of the parabola through its three lowest
  evaluations is held to the closed form far more tightly than the search's
  own argmin, whose resolution is set by the timed pass.

A fix to the model's conventions changes the stored outputs on purpose;
the reference is then regenerated with ``make_reference.py`` in a change of
its own that touches only the benchmark.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from magnon_blockade import (
    build_liouvillian,
    g2_zero_delay,
    optimal_conditions,
    solve_steady_state,
    theta_optimal_exact,
)

from workloads import DEFAULT_SEED, WEAK_DRIVE

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Agreement with the stored reference, in decades of g2 ...
REF_LOG10_TOL = 1e-3
#: ... or in absolute g2, for the deepest interference dips.
REF_G2_ATOL = 1e-13
#: Stored argmin; the search is deterministic, so only rounding may differ.
REF_ARGMIN_RTOL = 1e-6

#: Numeric and analytic g2 agree to this relative tolerance at weak drive,
WEAK_DRIVE_RTOL = 0.05
#: or to this absolute one inside the dip, where the analytic g2 tends to
#: zero and the numeric one sits at its truncation floor.
WEAK_DRIVE_ATOL = 1e-10

#: Closed-form phase optimum vs the numeric argmin of g2 at N = 3, relative;
#: added to the search's own resolution.
OPTIMUM_THEORY_RTOL = 5e-3
#: Closed-form phase optimum vs the vertex of the parabola through the three
#: lowest evaluations of the search, relative.  The vertex lands within
#: 8e-5 of it on every seed tried.
OPTIMUM_VERTEX_RTOL = 1e-3

N_MAX_RANGE = (2, 8)


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def point_key(label: str, value: float) -> str:
    return f"{label}@{value:.12g}"


def optimum_key(opt) -> str:
    return f"{opt.label}@rel_tol={opt.rel_tol:g}"


def _log10(value):
    return math.log10(value) if value is not None and value > 0 else None


def record_outputs(rec) -> dict:
    """The checked outputs of one SweepRecord, in reference.json's layout."""
    return {
        "log10_g2_numeric": _log10(rec.g2_numeric),
        "log10_g2_analytic": _log10(rec.g2_analytic),
        "n_max": rec.n_max,
    }


def _positive_finite(value) -> bool:
    return value is not None and math.isfinite(value) and value > 0


def _sanity(rec, engines) -> str | None:
    if rec.error is not None:
        return f"error: {rec.error}"
    if "analytic" in engines and not _positive_finite(rec.g2_analytic):
        return f"analytic g2 = {rec.g2_analytic}"
    if "numeric" in engines:
        if not _positive_finite(rec.g2_numeric):
            return f"numeric g2 = {rec.g2_numeric}"
        if rec.n_max is None or not N_MAX_RANGE[0] <= rec.n_max <= N_MAX_RANGE[1]:
            return f"n_max = {rec.n_max}"
        if rec.p1 is None or not 0.0 <= rec.p1 <= 1.0:
            return f"p1 = {rec.p1}"
    return None


def _g2_matches(value, stored_log10) -> bool:
    if value is None or stored_log10 is None:
        return value is None and stored_log10 is None
    if value <= 0:
        return False
    return (abs(math.log10(value) - stored_log10) <= REF_LOG10_TOL
            or abs(value - 10.0**stored_log10) <= REF_G2_ATOL)


def _against_reference(rec, stored) -> str | None:
    if stored is None:
        return "no stored reference for this point"
    for field in ("numeric", "analytic"):
        key = f"log10_g2_{field}"
        if not _g2_matches(getattr(rec, f"g2_{field}"), stored[key]):
            return f"{field} g2 {getattr(rec, f'g2_{field}')!r} vs stored 10^{stored[key]}"
    if rec.n_max != stored["n_max"]:
        return f"n_max {rec.n_max} vs stored {stored['n_max']}"
    return None


def _weak_drive(gn: float, ga: float) -> str | None:
    if abs(gn - ga) > WEAK_DRIVE_RTOL * ga + WEAK_DRIVE_ATOL:
        return f"weak drive: numeric g2 {gn:.6e} vs analytic {ga:.6e}"
    return None


def _closed_form_theta(base) -> float:
    r = base.decay / base.coupling
    exact = theta_optimal_exact(base.n_modes, r)
    return exact if exact is not None else optimal_conditions(base.n_modes, r).theta_general


class SweepOracle:
    """Verdicts for the passes of one sweep workload."""

    def __init__(self, workload, reference: dict | None):
        self.workload = workload
        self.reference = reference
        self.series = {s.label: s for s in workload.items}
        self._numeric = None

    def _weak_drive_numeric(self) -> dict:
        """Numeric g2 at cutoff 2 for the analytic-only weak-drive series, N <= 2.

        Computed once per run, outside the timed passes.  At N = 3 the
        analytic engine drops the cross amplitude and is not expected to
        agree, so only its minimum is checked.
        """
        if self._numeric is None:
            self._numeric = {}
            for s in self.workload.items:
                if (s.engines == ("analytic",) and s.base.drive_rabi == WEAK_DRIVE
                        and s.base.n_modes <= 2 and s.axis == "theta"):
                    for v in s.grid:
                        p = s.base.with_(phase=v, fock_cutoff=2)
                        rho = solve_steady_state(build_liouvillian(p))
                        self._numeric[point_key(s.label, v)] = g2_zero_delay(rho)
        return self._numeric

    def check(self, records) -> list[str | None]:
        """Verdict per point (None = correct) for one pass.

        records is the pass's list of (series label, SweepRecord) in pass order.
        """
        verdicts = []
        for label, rec in records:
            s = self.series[label]
            reason = _sanity(rec, s.engines)
            if reason is None and self.reference is not None:
                stored = self.reference.get(point_key(label, rec.axis_value))
                reason = _against_reference(rec, stored)
            if reason is None:
                numeric = self._weak_drive_numeric().get(point_key(label, rec.axis_value))
                if numeric is not None:
                    reason = _weak_drive(numeric, rec.g2_analytic)
            verdicts.append(reason)
        self._check_minima(records, verdicts)
        return verdicts

    def _check_minima(self, records, verdicts):
        """Analytic-only weak-drive series: the grid minimum of g2 lies within
        one grid step of the closed-form optimal phase."""
        for s in self.workload.items:
            if s.engines != ("analytic",) or s.base.drive_rabi != WEAK_DRIVE:
                continue
            idx = [k for k, (label, _) in enumerate(records) if label == s.label]
            values = [records[k][1].g2_analytic for k in idx]
            if not idx or not all(_positive_finite(v) for v in values):
                continue  # those points already failed their sanity check
            best = records[idx[values.index(min(values))]][1].axis_value
            target = _closed_form_theta(s.base)
            if abs(best - target) > s.step:
                for k in idx:
                    verdicts[k] = verdicts[k] or (
                        f"{s.label}: g2 minimum at theta {best:.6g}, "
                        f"closed form {target:.6g}"
                    )


def parabola_vertex(evals) -> float | None:
    """Abscissa of the vertex of the parabola through the three lowest (x, y)
    evaluations; None unless they make an upward parabola."""
    if len({x for x, _ in evals}) < 3:
        return None
    lowest = sorted(sorted(evals, key=lambda e: e[1])[:3])
    (x1, y1), (x2, y2), (x3, y3) = lowest
    d = (x1 - x2) * (x1 - x3) * (x2 - x3)
    if d == 0:
        return None
    a = (x3 * (y2 - y1) + x2 * (y1 - y3) + x1 * (y3 - y2)) / d
    b = (x3 * x3 * (y1 - y2) + x2 * x2 * (y3 - y1) + x1 * x1 * (y2 - y3)) / d
    return -b / (2 * a) if a > 0 else None


def check_optimum(workload, result, evals, reference: dict | None) -> str | None:
    """Verdict on one find_minimum pass.

    result is (argmin, min) or an exception; evals is the search's
    (theta, g2) evaluations in order.
    """
    if isinstance(result, BaseException):
        return f"error: {type(result).__name__}: {result}"
    argmin, minimum = result
    if not (_positive_finite(argmin) and _positive_finite(minimum)):
        return f"argmin {argmin}, min {minimum}"
    opt = workload.optimum
    tol = opt.rel_tol * max(abs(v) for v in opt.bracket) + OPTIMUM_THEORY_RTOL * opt.expected
    if abs(argmin - opt.expected) > tol:
        return f"argmin {argmin:.6g} vs closed form {opt.expected:.6g} (tol {tol:.2g})"
    vertex = parabola_vertex(evals)
    if vertex is None or abs(vertex - opt.expected) > OPTIMUM_VERTEX_RTOL * opt.expected:
        return f"parabola vertex {vertex} vs closed form {opt.expected:.7g}"
    if reference is not None:
        stored = reference.get(optimum_key(opt))
        if stored is None:
            return "no stored reference for this optimum"
        if abs(argmin - stored["argmin"]) > REF_ARGMIN_RTOL * abs(stored["argmin"]):
            return f"argmin {argmin!r} vs stored {stored['argmin']!r}"
        if not _g2_matches(minimum, stored["log10_min_g2"]):
            return f"min g2 {minimum!r} vs stored 10^{stored['log10_min_g2']}"
    return None


def reference_for(workload, seed: int, all_references: dict) -> dict | None:
    """Stored outputs to compare against, only for the default seed."""
    if seed != DEFAULT_SEED:
        return None
    return all_references.get(workload.name, {})
