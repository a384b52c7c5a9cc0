"""Steady-state magnon-blockade simulator and closed-form optimal conditions.

Numerical engine: master-equation steady states of a driven qubit coupled
to N bosonic modes on a truncated Fock space.  Analytic engine: the
two-excitation non-Hermitian pure-state model with closed-form optimal
detuning, drive ratio, and relative phase.
"""

from .analytic import (
    AmplitudeSet,
    OptimalConditions,
    amplitudes_for,
    optimal_conditions,
    theta_optimal_exact,
)
from .model import DensityMatrix, HilbertSpec, ModelParams
from .observables import (
    BlockadeMetrics,
    blockade_metrics,
    classify_statistics,
    g2_zero_delay,
)
from .steady_state import (
    Liouvillian,
    build_liouvillian,
    converge_truncation,
    solve_steady_state,
)
from .sweep import (
    SweepRecord,
    SweepSpec,
    find_minimum,
    preset_sweeps,
    run_sweep,
    verify_scaling,
)

__all__ = [
    "AmplitudeSet",
    "BlockadeMetrics",
    "DensityMatrix",
    "HilbertSpec",
    "Liouvillian",
    "ModelParams",
    "OptimalConditions",
    "SweepRecord",
    "SweepSpec",
    "amplitudes_for",
    "blockade_metrics",
    "build_liouvillian",
    "classify_statistics",
    "converge_truncation",
    "find_minimum",
    "g2_zero_delay",
    "optimal_conditions",
    "preset_sweeps",
    "run_sweep",
    "solve_steady_state",
    "theta_optimal_exact",
    "verify_scaling",
]

__version__ = "0.1.0"
