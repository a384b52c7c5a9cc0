"""The benchmark's workloads: pinned inputs with seeded grid offsets.

One *pass* of a workload is a fixed list of sweep points, each evaluated by
its own ``run_sweep`` call so that per-point latency is timed from outside,
or one ``find_minimum`` call.  A run repeats whole passes.

The default seed reproduces the pinned preset grids exactly.  Any other
seed shifts each grid by a seeded sub-step offset, so a claim can be
re-checked on inputs its author did not see and no code can special-case
pinned values.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from magnon_blockade import ModelParams, SweepSpec, optimal_conditions

DEFAULT_SEED = 0

#: Drive of the weak-drive series, where numeric and analytic g2 must agree.
WEAK_DRIVE = 0.001

#: Step of the preset theta grids.
THETA_STEP = 5e-4


@dataclass(frozen=True)
class Series:
    """A sweep along one axis; every grid value is one point of a pass."""

    label: str
    base: ModelParams
    axis: str
    grid: tuple[float, ...]
    step: float
    engines: tuple[str, ...]


@dataclass(frozen=True)
class Optimum:
    """A golden-section search for the g2 minimum along one axis."""

    label: str
    base: ModelParams
    axis: str
    bracket: tuple[float, float]
    n_scan: int
    rel_tol: float
    #: Where the closed form puts the minimum.
    expected: float


@dataclass(frozen=True)
class Workload:
    name: str
    items: tuple  # Series entries, or a single Optimum
    #: The end-to-end figures come from this many passes, the fastest of a
    #: run (see worker.measure).
    sample_passes: int = 2
    #: Take each point's median latency over those passes before the
    #: percentiles: for points of tens of microseconds, where one sample's
    #: tail is mostly timer and interrupt jitter.
    median_per_point: bool = False

    @property
    def optimum(self) -> Optimum | None:
        return self.items[0] if isinstance(self.items[0], Optimum) else None

    def points(self) -> list[tuple[str, SweepSpec]]:
        """(series label, one-point SweepSpec) for every point of a pass."""
        return [
            (s.label, SweepSpec(s.base, s.axis, (v,), s.engines))
            for s in self.items
            for v in s.grid
        ]


def _offset(workload: str, label: str, seed: int, span: float) -> float:
    """Seeded grid shift in units of the grid step; zero for the default seed."""
    if seed == DEFAULT_SEED:
        return 0.0
    return random.Random(f"{workload}/{label}/{seed}").uniform(-span, span)


def _theta_grid(lo: float, hi: float) -> list[float]:
    """The preset theta grid (same construction as the fig2/fig6 presets)."""
    n = int(round((hi - lo) / THETA_STEP)) + 1
    return [lo + k * THETA_STEP for k in range(n)]


def _series(workload, seed, label, base, axis, grid, step, engines, span, stride):
    u = _offset(workload, label, seed, span)
    shifted = tuple(float(v) + u * step for v in grid[::stride])
    return Series(label, base, axis, shifted, step * stride, engines)


def n2_detuning_sweep(seed: int, stride: int = 2) -> Workload:
    """The fig4 preset's ratio-1 series on every second grid point.

    Points near the resonances escalate to a larger Fock cutoff and cost
    about seven times more.  Edges of the escalating regions lie as close
    as 0.0015 in delta/J to pinned grid values (near delta/J = -1, 0, 1),
    so an offset of up to half a step would change, from seed to seed, how
    many of the 41 points escalate (8 to 12) and the cost of a pass by over
    10%.  The offset here stays within 1% of the preset step, 0.0005 in
    delta/J.
    """
    name = "n2-detuning-sweep"
    base = ModelParams(2, 20.0, 20.0, 0.1, 0.1, 0.0, 1.0, 4)
    grid = np.linspace(-2.0, 2.0, 81)
    step = float(grid[1] - grid[0])
    return Workload(name, (
        _series(name, seed, "ratio1", base, "delta_over_j", grid, step,
                ("numeric",), 0.01, stride),
    ))


#: Mode count and r = kappa / J of the collective-optimum search.
N3_MODES = 3
N3_R = 0.025


def n3_theta_optimum(seed: int, rel_tol: float = 0.0668) -> Workload:
    """Golden-section theta optimum at N = 3 with a fixed Fock cutoff of 2.

    A 5-point scan over theta0 * [0.75, 1.25] brackets the minimum, then
    golden-section search refines it.  rel_tol is placed so that every
    seeded shift of the bracket gives the same number of refinement steps
    (3 for the default), hence the same number of evaluations per pass.
    """
    name = "n3-theta-optimum"
    j, om = 20.0, 0.001
    root_n = math.sqrt(N3_MODES)
    theta0 = optimal_conditions(N3_MODES, N3_R).theta_general
    base = ModelParams(N3_MODES, root_n * j, j, 3 * root_n * om, om, theta0,
                       N3_R * j, 2)
    n_scan = 5
    lo, hi = 0.75 * theta0, 1.25 * theta0
    shift = _offset(name, "theta", seed, 0.5) * (hi - lo) / (n_scan - 1)
    return Workload(name, (
        Optimum("theta", base, "theta", (lo + shift, hi + shift), n_scan,
                rel_tol, theta0),
    ))


def analytic_theta_map(seed: int, stride: int = 1) -> Workload:
    """Analytic-only theta sweeps for N = 1, 2, 3 at the fig2/fig6 drives."""
    name = "analytic-theta-map"
    items = []
    for n, j, hi in ((1, 35.0, 0.02), (2, 20.0, 0.025), (3, 20.0, 0.025)):
        root_n = math.sqrt(n)
        for om in (WEAK_DRIVE, 0.05, 0.1):
            base = ModelParams(n, root_n * j, j, 3 * root_n * om, om, 0.0, 0.5, 4)
            items.append(_series(name, seed, f"n{n}-drive{om:g}", base, "theta",
                                 _theta_grid(-0.01, hi), THETA_STEP,
                                 ("analytic",), 0.5, stride))
    return Workload(name, tuple(items), sample_passes=10, median_per_point=True)


WORKLOADS = {
    "n2-detuning-sweep": n2_detuning_sweep,
    "n3-theta-optimum": n3_theta_optimum,
    "analytic-theta-map": analytic_theta_map,
}

#: Pass sizes for the benchmark's own smoke test.
SMOKE_SIZES = {
    "n2-detuning-sweep": {"stride": 20},
    "n3-theta-optimum": {"rel_tol": 0.3},
    "analytic-theta-map": {"stride": 20},
}
