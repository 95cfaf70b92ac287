"""Driven Kerr parametric oscillator on a truncated Fock space.

Simulation of a harmonic oscillator with time-dependent mass/frequency in a
Kerr medium under a classical drive: time-reparametrization between the
variable-mass and constant-mass pictures, displaced-oscillator
diagonalization, linearized ladder dynamics, factorized (Wei-Norman)
evolution, Kerr states with their squeezing diagnostics, and phase-space
observables, all validated against a direct Schrodinger integrator.
"""

__version__ = "0.1.0"

from .driven import (
    DriveSpec,
    FrequencySpec,
    displaced_number_state,
    displacement_amplitude,
    eigenfunction,
)
from .evolution import (
    ModelParams,
    WeiNormanSolution,
    drive_coefficient,
    evolved_state,
    integrate_wei_norman,
    linearized_ladder,
)
from .fock import (
    FockOperator,
    FockState,
    TruncationError,
    apply,
    coherent_state,
    expectation,
    inner,
    number_state,
)
from .kerr_states import (
    KerrStateParams,
    kerr_state,
    mandel_q,
    quadrature_variance_ratios,
)
from .observables import (
    AutocorrSeries,
    PhaseSpaceGrid,
    autocorrelation,
    autocorrelation_series,
    detect_revivals,
    husimi_grid,
    husimi_snapshot,
)
from .oracle import OracleRun, fidelity, integrate_exact
from .timemap import (
    HeisenbergQP,
    MassSpec,
    evolve_via_timemap,
    heisenberg_coefficients,
    rescaled_time,
)

__all__ = [
    "__version__",
    "DriveSpec", "FrequencySpec", "displaced_number_state",
    "displacement_amplitude", "eigenfunction",
    "ModelParams", "WeiNormanSolution", "drive_coefficient", "evolved_state",
    "integrate_wei_norman", "linearized_ladder",
    "FockOperator", "FockState", "TruncationError", "apply", "coherent_state",
    "expectation", "inner", "number_state",
    "KerrStateParams", "kerr_state", "mandel_q", "quadrature_variance_ratios",
    "AutocorrSeries", "PhaseSpaceGrid", "autocorrelation",
    "autocorrelation_series", "detect_revivals", "husimi_grid",
    "husimi_snapshot",
    "OracleRun", "fidelity", "integrate_exact",
    "HeisenbergQP", "MassSpec", "evolve_via_timemap",
    "heisenberg_coefficients", "rescaled_time",
]
