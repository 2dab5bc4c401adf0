"""kgkratzer: bound states of a relativistic spinless particle in mixed
scalar/vector Kratzer potentials.

The package solves the implicit bound-state spectrum equation and its
closed-form special cases, evaluates the factorized ground-state wavefunction
and its decomposition residuals, and independently verifies everything with a
two-sided shooting eigen-solver for the full squared wave equation.

The shooting oracle (with its radial kernel) and the wavefunction module are
imported on first use, so that ``import kgkratzer`` stays cheap for callers
that never shoot or tabulate; their names resolve here as any other.
"""

import importlib

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

__version__ = "0.1.0"

# Names imported on first use (PEP 562), each with the module that defines it.
_LAZY = {
    "kernel_backend": "_radial",
    **dict.fromkeys(("ShootingResult", "DeviationReport", "kg_match_defect",
                     "kg_eigensolve", "deviation_report"), "oracle"),
    **dict.fromkeys(("GroundStateEval", "ResidualReport", "NormalizationResult",
                     "eval_ground_state", "residual_report", "normalization"),
                    "wavefunction"),
}


def __getattr__(name):
    # importlib, not ``from . import``: that form looks the name up here first,
    # and so would call this function again.
    if name in ("oracle", "wavefunction"):
        value = importlib.import_module(f".{name}", __name__)
    elif name in _LAZY:
        value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


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
