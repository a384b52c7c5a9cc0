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
    g2_analytic,
    optimal_conditions,
    theta_optimal_exact,
)
from .model import (
    CavityMediatedParams,
    ModelParams,
    build_dissipators,
    build_effective_hamiltonian,
    build_nonhermitian_hamiltonian,
    derive_effective_params,
)
from .observables import (
    BlockadeMetrics,
    blockade_metrics,
    classify_statistics,
    g2_zero_delay,
    mode_occupation,
    single_excitation_probability,
)
from .operators import (
    DensityMatrix,
    HilbertSpec,
    embed,
    fock_annihilation,
    partial_trace,
    qubit_lowering,
)
from .steady_state import (
    Liouvillian,
    build_liouvillian,
    converge_truncation,
    evolve_to_steady_state,
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
    "CavityMediatedParams",
    "DensityMatrix",
    "HilbertSpec",
    "Liouvillian",
    "ModelParams",
    "OptimalConditions",
    "SweepRecord",
    "SweepSpec",
    "amplitudes_for",
    "blockade_metrics",
    "build_dissipators",
    "build_effective_hamiltonian",
    "build_liouvillian",
    "build_nonhermitian_hamiltonian",
    "classify_statistics",
    "converge_truncation",
    "derive_effective_params",
    "embed",
    "evolve_to_steady_state",
    "find_minimum",
    "fock_annihilation",
    "g2_analytic",
    "g2_zero_delay",
    "mode_occupation",
    "optimal_conditions",
    "partial_trace",
    "preset_sweeps",
    "qubit_lowering",
    "run_sweep",
    "single_excitation_probability",
    "solve_steady_state",
    "theta_optimal_exact",
    "verify_scaling",
]

__version__ = "0.1.0"
