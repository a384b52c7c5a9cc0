"""Parameter sweeps, optimum search, and scaling verification.

A sweep evaluates its grid points one after another in one process; the
sector LUs of each point's solve already use every BLAS thread, and the
numeric g2 does not depend on their count beyond round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analytic import amplitudes_for, optimal_conditions
from .model import ModelParams
from .observables import blockade_metrics, classify_statistics, g2_zero_delay
from .steady_state import build_liouvillian, converge_truncation, solve_steady_state

#: Each sweep axis: the ModelParams field its grid value sets and, for a
#: ratio axis, the field that the grid value multiplies (None otherwise).
AXES = {
    "delta_over_j": ("delta", "coupling"),
    "probe_over_drive": ("probe_rabi", "drive_rabi"),
    "theta": ("phase", None),
    "drive_rabi": ("drive_rabi", None),
    "kappa": ("decay", None),
}
ENGINES = ("numeric", "analytic")
PRESETS = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7")

GOLDEN = (math.sqrt(5) - 1) / 2


@dataclass(frozen=True)
class SweepSpec:
    """One sweep axis over a base parameter set.  Construction builds and
    checks each grid point's parameters once, keeping them in grid order as
    ``points`` (no argument; left out of repr and ==), so a point out of
    range fails before any solve, named with its axis and value."""

    base: ModelParams
    axis: str
    grid: tuple[float, ...]
    engines: tuple[str, ...] = ("numeric",)
    #: When sweeping drive_rabi, keep probe_rabi at this multiple of the drive.
    probe_tracks_drive: float | None = None
    points: tuple[ModelParams, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.axis not in AXES:
            raise ValueError(f"unknown axis {self.axis!r}; choose from {tuple(AXES)}")
        if not self.grid:
            raise ValueError("grid must be nonempty")
        bad = set(self.engines) - set(ENGINES)
        if bad or not self.engines:
            raise ValueError(f"engines must be a nonempty subset of {ENGINES}")
        if self.probe_tracks_drive is not None and self.axis != "drive_rabi":
            raise ValueError(
                f"probe_tracks_drive applies to the drive_rabi axis, not {self.axis!r}"
            )
        object.__setattr__(self, "grid", tuple(float(v) for v in self.grid))
        tracks = self.probe_tracks_drive
        points = []
        for v in self.grid:
            try:
                points.append(apply_axis(self.base, self.axis, v, tracks))
            except ValueError as exc:
                with_tracks = "" if tracks is None else f" with probe_tracks_drive = {tracks}"
                raise ValueError(f"grid point {self.axis} = {v}{with_tracks}: {exc}") from exc
        diffs = np.diff(self.grid)  # checked after the points, so a nan is named there
        if len(diffs) and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ValueError("grid must be strictly monotone")
        object.__setattr__(self, "points", tuple(points))


@dataclass(slots=True)
class SweepRecord:
    axis_value: float
    g2_numeric: float | None = None
    g2_analytic: float | None = None
    p1: float | None = None
    occupation: float | None = None
    n_max: int | None = None
    classification: str | None = None
    error: str | None = None

    @staticmethod
    def _log10(value: float | None) -> float | None:
        if value is None or value <= 0:
            return None
        return math.log10(value)

    @property
    def log10_g2_numeric(self) -> float | None:
        return self._log10(self.g2_numeric)

    @property
    def log10_g2_analytic(self) -> float | None:
        return self._log10(self.g2_analytic)


def apply_axis(
    base: ModelParams,
    axis: str,
    value: float,
    probe_tracks_drive: float | None = None,
) -> ModelParams:
    """Parameter set at one grid point of the given axis, as :data:`AXES` maps
    it.  A ratio axis raises ValueError when its reference field is zero;
    probe_tracks_drive sets the probe after the axis field."""
    field_name, reference = AXES[axis]
    if reference:
        if getattr(base, reference) == 0:
            raise ValueError(f"the {axis} axis is a ratio to {reference}, which is 0")
        value = value * getattr(base, reference)
    p = base.with_(**{field_name: value})
    if probe_tracks_drive is not None:
        p = p.with_(probe_rabi=probe_tracks_drive * value)
    return p


def numeric_g2(p: ModelParams) -> float:
    rho = solve_steady_state(build_liouvillian(p))
    return g2_zero_delay(rho)


def analytic_g2(p: ModelParams) -> float:
    return amplitudes_for(p).g2


def _evaluate_point(p: ModelParams, value: float, engines: tuple[str, ...]) -> SweepRecord:
    g2_a = p1 = None
    try:
        if "analytic" in engines:
            amps = amplitudes_for(p)
            g2_a, p1 = amps.g2, amps.p_g1
        if "numeric" not in engines:
            return SweepRecord(value, None, g2_a, p1, None, None, classify_statistics(g2_a))
        m = blockade_metrics(converge_truncation(p))
        return SweepRecord(value, m.g2_zero, g2_a, m.p1, m.occupation, m.n_max, m.classification)
    except Exception as exc:  # per-row failures must not abort the sweep
        return SweepRecord(value, None, g2_a, p1, error=f"{type(exc).__name__}: {exc}")


def run_sweep(spec: SweepSpec) -> list[SweepRecord]:
    """Evaluate every grid point in turn, in this process; one record per point, in grid order."""
    return [_evaluate_point(p, v, spec.engines) for v, p in zip(spec.grid, spec.points)]


class BracketError(ValueError):
    pass


def _check_rel_tol(rel_tol: float):
    if not 0 < rel_tol < math.inf:  # also rejects nan
        raise ValueError(f"rel_tol must be finite and positive, got {rel_tol}")


def golden_section(f, lo: float, hi: float, rel_tol: float = 1e-5) -> tuple[float, float]:
    """Minimize a unimodal function on [lo, hi] to a relative axis tolerance."""
    _check_rel_tol(rel_tol)
    scale = max(abs(lo), abs(hi), 1e-12)
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while abs(hi - lo) > rel_tol * scale:
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = f(x2)
    return (x1, f1) if f1 < f2 else (x2, f2)


def find_minimum(
    base: ModelParams,
    axis: str,
    bracket: tuple[float, float],
    engine: str = "numeric",
    n_scan: int = 33,
    rel_tol: float = 1e-5,
) -> tuple[float, float]:
    """Locate the g2 minimum along one axis inside the bracket.

    A coarse scan, the SweepSpec of n_scan points from lo to hi, finds an
    interior bracketing triple, which golden-section search then refines.
    Raises BracketError when no interior minimum exists in the bracket, and
    ValueError before any evaluation for n_scan < 3, a rel_tol that is not
    finite and positive, an unknown axis or engine, a bracket lo == hi (not
    strictly monotone) or a scan point out of range, named as in SweepSpec.
    """
    if n_scan < 3:
        raise ValueError(f"n_scan must be at least 3 to bracket a minimum, got {n_scan}")
    _check_rel_tol(rel_tol)
    lo, hi = bracket
    scan = SweepSpec(base, axis, tuple(np.linspace(lo, hi, n_scan)), (engine,))
    evaluator = numeric_g2 if engine == "numeric" else analytic_g2
    ys = [evaluator(p) for p in scan.points]
    k = int(np.argmin(ys))
    if k == 0 or k == n_scan - 1:
        raise BracketError(f"no interior minimum of g2 along {axis} in [{lo}, {hi}]")
    # Valid values of every axis form an interval, so points between checked ones are valid.
    return golden_section(lambda v: evaluator(apply_axis(base, axis, v)),
                          scan.grid[k - 1], scan.grid[k + 1], rel_tol=rel_tol)


@dataclass(frozen=True)
class ScalingEntry:
    n_modes: int
    delta_over_j: float
    probe_over_drive: float
    theta_times_j_over_kappa: float
    min_g2: float
    error: str | None = None


@dataclass(frozen=True)
class ScalingReport:
    r: float
    entries: tuple[ScalingEntry, ...]
    exponents: dict = field(default_factory=dict)


def verify_scaling(n_list=(1, 2, 3), r: float = 0.025, coupling: float = 20.0) -> ScalingReport:
    """Locate the numeric blockade optimum per mode count and fit its scaling.

    For each N, two rounds of coordinate descent with golden-section line
    searches on the numeric g2, at drive 0.001 and Fock cutoff 2, start from
    optimal_conditions(N, kappa / J) at kappa = r J (r itself, or one ulp from
    it) with phase theta_general, and bracket the detuning in 0.7..1.3 sqrt(N) J,
    the probe in 2..4 sqrt(N) drives and the phase in 0.3..2 times its start.
    The three optimized ratios are then regressed against N on log-log axes;
    expected exponents: +1/2, +1/2, -1/2.  Bad or repeated N, r or coupling
    raise ValueError before any solve.  A failed search is recorded in its entry.
    Cutoff 2 reaches N <= 5: at N >= 6 build_liouvillian rejects the space
    before any solve, and the entry names its dimension D and the cap.
    """
    if not math.isfinite(coupling):
        raise ValueError(f"coupling must be finite, got {coupling}")
    if coupling <= 0:
        raise ValueError("coupling must be positive")
    if math.isfinite(r) and not math.isfinite(r * coupling):
        raise ValueError(f"r = {r} is too large: kappa = r * coupling overflows at J = {coupling}")
    drive = 0.001
    starts = [(n, *_conditions_point(n, coupling, r * coupling, drive)) for n in n_list]
    repeated = sorted({n for n in n_list if n_list.count(n) > 1})
    if repeated:
        raise ValueError(f"n_list repeats N = {', '.join(map(str, repeated))}")
    entries = []
    for n, p, c in starts:
        root_n, theta0 = c.delta_over_j, c.theta_general
        p = p.with_(phase=theta0, fock_cutoff=2)
        searches = (
            ("delta_over_j", (0.7 * root_n, 1.3 * root_n)),
            ("probe_over_drive", (2.0 * root_n, 4.0 * root_n)),
            ("theta", (0.3 * theta0, 2.0 * theta0)),
        )
        try:
            for _ in range(2):
                for axis, bracket in searches:
                    value, best = find_minimum(p, axis, bracket, n_scan=9, rel_tol=1e-4)
                    p = apply_axis(p, axis, value)
            entries.append(
                ScalingEntry(
                    n_modes=n,
                    delta_over_j=p.delta / coupling,
                    probe_over_drive=p.probe_rabi / drive,
                    theta_times_j_over_kappa=p.phase / r,
                    min_g2=best,
                )
            )
        except Exception as exc:
            entries.append(
                ScalingEntry(n, math.nan, math.nan, math.nan, math.nan,
                             error=f"{type(exc).__name__}: {exc}")
            )
    good = [e for e in entries if e.error is None]
    exponents = {}
    if len(good) >= 2:
        log_n = np.log([e.n_modes for e in good])
        for name in ("delta_over_j", "probe_over_drive", "theta_times_j_over_kappa"):
            values = [getattr(e, name) for e in good]
            exponents[name] = float(np.polyfit(log_n, np.log(values), 1)[0])
    return ScalingReport(r=r, entries=tuple(entries), exponents=exponents)


def _theta_sweep_grid(lo: float, hi: float, step: float) -> tuple[float, ...]:
    n = int(round((hi - lo) / step)) + 1
    return tuple(lo + k * step for k in range(n))


def _conditions_point(n: int, coupling: float, decay: float, drive: float):
    """The cutoff-4 point at phase 0 that meets optimal_conditions(n,
    decay / coupling), and those conditions."""
    c = optimal_conditions(n, decay / coupling)
    p = ModelParams(
        n, c.delta_over_j * coupling, coupling, c.probe_over_drive * drive, drive, 0.0, decay, 4
    )
    return p, c


def preset_sweeps(name: str) -> list[tuple[str, SweepSpec]]:
    """Pinned figure-reproduction sweeps, one (label, spec) pair per series.

    fig2/fig6 (phase) and fig3/fig7 (drive) are the same sweeps at N = 1 and
    N = 2; they and fig5 start from optimal_conditions(N, kappa/J).  fig4
    sweeps the detuning itself and so sets its base point directly.
    """
    if name in ("fig2", "fig6"):
        n, j, theta_hi = (1, 35.0, 0.02) if name == "fig2" else (2, 20.0, 0.025)
        grid = _theta_sweep_grid(-0.01, theta_hi, 5e-4)
        return [
            (f"drive{om:g}",
             SweepSpec(_conditions_point(n, j, 0.5, om)[0], "theta", grid, ENGINES))
            for om in (0.001, 0.05, 0.1)
        ]
    if name in ("fig3", "fig7"):
        n, j = (1, 35.0) if name == "fig3" else (2, 20.0)
        out = []
        for kappa in (0.1, 0.5, 1.0, 1.5):
            base, c = _conditions_point(n, j, kappa, 0.005)
            out.append(
                (f"kappa{kappa:g}",
                 SweepSpec(base.with_(phase=c.theta_exact), "drive_rabi",
                           tuple(float(v) for v in np.geomspace(0.005, 0.5, 25)),
                           probe_tracks_drive=c.probe_over_drive))
            )
        return out
    if name == "fig4":
        grid = tuple(float(v) for v in np.linspace(-2.0, 2.0, 81))
        out = []
        for ratio in (1.0, 2.0, 5.0, 10.0):
            base = ModelParams(2, 20.0, 20.0, ratio * 0.1, 0.1, 0.0, 1.0, 4)
            out.append((f"ratio{ratio:g}", SweepSpec(base, "delta_over_j", grid)))
        return out
    if name == "fig5":
        grid = tuple(float(v) for v in np.linspace(1.0, 8.0, 71))
        return [
            (f"coupling{j:g}",
             SweepSpec(_conditions_point(2, j, 1.0, 0.1)[0], "probe_over_drive", grid))
            for j in (1.0, 5.0, 10.0, 20.0)
        ]
    raise ValueError(f"unknown preset {name!r}; choose from {PRESETS}")
