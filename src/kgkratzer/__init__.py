"""kgkratzer: bound states of a relativistic spinless particle in mixed
scalar/vector Kratzer potentials.

The package solves the implicit bound-state spectrum equation and its
closed-form special cases, evaluates the factorized ground-state wavefunction
and its decomposition residuals, and independently verifies everything with a
two-sided shooting eigen-solver for the full squared wave equation.
"""

from ._radial import kernel_backend
from .errors import (
    ConvergenceError,
    DomainError,
    FallToCenterError,
    KratzerError,
    NoBoundStateError,
    QuadratureError,
    StructuralConstraintError,
)
from .model import (
    AdmissibilityReport,
    DerivedCoefficients,
    PotentialParams,
    admissibility,
    derived_coefficients,
    potentials_at,
)
from .oracle import (
    DeviationReport,
    ShootingResult,
    deviation_report,
    kg_eigensolve,
    kg_match_defect,
)
from .spectrum import (
    ClosedFormResult,
    EnergyLevel,
    SpectrumRun,
    approx_energy,
    closed_form,
    nonrel_epsilon,
    solve_levels,
    solve_spectrum,
    spectrum_residual,
)
from .wavefunction import (
    GroundStateEval,
    NormalizationResult,
    ResidualReport,
    eval_ground_state,
    normalization,
    residual_report,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "kernel_backend",
    # errors
    "KratzerError", "DomainError", "StructuralConstraintError",
    "FallToCenterError", "NoBoundStateError", "ConvergenceError",
    "QuadratureError",
    # model
    "PotentialParams", "DerivedCoefficients", "AdmissibilityReport",
    "derived_coefficients", "potentials_at", "admissibility",
    # spectrum
    "EnergyLevel", "SpectrumRun", "ClosedFormResult", "spectrum_residual",
    "solve_levels", "solve_spectrum", "closed_form", "approx_energy",
    "nonrel_epsilon",
    # wavefunction
    "GroundStateEval", "ResidualReport", "NormalizationResult",
    "eval_ground_state", "residual_report", "normalization",
    # oracle
    "ShootingResult", "DeviationReport", "kg_match_defect", "kg_eigensolve",
    "deviation_report",
]
