"""Randomized and gridded self-verification suites.

Three suites back the ``verify`` CLI subcommand:

* ``residuals``: seeded random admissible parameter sets; checks the
  unconditional chi identity, the structured phi residual (M3/r^3 + M2/r^2),
  the exact 1/r^4 cancellation and the superpotential/log-derivative
  identity, and collects the M3/M2 atlas.
* ``manifolds``: the degenerate coupling families: closed forms substituted
  back into the implicit spectrum equation, particle/antiparticle symmetry of
  the pure-scalar case, M3 = M2 = 0 on V_V = +-V_S, and the Gamma-function
  cross-check of the normalization quadrature.
* ``limits``: truncated-series behaviour: series-versus-exact gaps that must
  shrink with the coupling, plus the verbatim strong-coupling form recorded
  next to its exact counterpart.

Reports are plain dicts of Python scalars; the CLI owns formatting.
"""

from __future__ import annotations

import math
import random

from .model import PotentialParams, admissibility, derived_coefficients
from .spectrum import approx_energy, closed_form, select_level, solve_levels, spectrum_residual
from .wavefunction import (
    chi_peak_radius,
    eval_ground_state,
    normalization,
    residual_report,
)

__all__ = ["SUITES", "run_suite", "sample_admissible"]

CHI_TOL = 1e-9
PHI_STRUCTURE_TOL = 1e-10
QUARTIC_TOL = 1e-12
SUSY_TOL = 1e-10
CLOSED_FORM_TOL = 1e-10
SYMMETRY_TOL = 1e-12
NORMALIZATION_TOL = 1e-8


def sample_admissible(rng: random.Random, max_tries: int = 1000):
    """Draw one (params, energy) pair passing every bound-state flag."""
    for _ in range(max_tries):
        m = rng.uniform(0.5, 2.0)
        a1 = rng.uniform(0.0, 2.0)
        a2 = rng.uniform(-a1, a1) if a1 > 0.0 else 0.0
        b1 = rng.uniform(-0.9, 0.9)
        b2 = rng.uniform(-0.9, 0.9)
        energy = rng.uniform(-m, m)
        params = PotentialParams(m=m, a1=a1, b1=b1, a2=a2, b2=b2)
        if admissibility(params, energy).bound_state_ok:
            return params, energy
    raise RuntimeError("admissible sampler exhausted its retry budget")


def _sample_grid(params, energy, points: int = 50):
    """``points`` radii spaced geometrically from 1e-2 to 1e2 times the chi
    peak, the last one exactly 1e2 times the peak."""
    coeffs = derived_coefficients(params, energy)
    peak = chi_peak_radius(coeffs.c, coeffs.k)
    lo, hi = 1e-2 * peak, 1e2 * peak
    ratio = (hi / lo) ** (1.0 / (points - 1))
    return [lo * ratio ** i for i in range(points - 1)] + [hi]


def _susy_identity_worst(params, energy, radii) -> float:
    """Worst relative residual of W_susy + psi'/psi over the given radii."""
    coeffs = derived_coefficients(params, energy)
    worst = 0.0
    for r in radii:
        g = eval_ground_state(params, energy, float(r))
        dlpsi = (coeffs.c + 1.0) / r - coeffs.k / (2.0 * (coeffs.c + 1.0)) \
            + coeffs.a / (r * r)
        scale = max(abs(g.w_susy), abs(dlpsi), 1e-300)
        worst = max(worst, abs(g.w_susy + dlpsi) / scale)
    return worst


def _check(name: str, worst: float, tolerance: float) -> dict:
    return {
        "name": name,
        "worst": worst,
        "tolerance": tolerance,
        "passed": bool(worst < tolerance),
    }


def _report(suite, checks, atlas, **draws) -> dict:
    """The report; ``draws`` holds the seed and case count of a seeded suite."""
    return {
        "suite": suite,
        **draws,
        "checks": checks,
        "m3_m2_atlas": atlas,
        "passed": all(check["passed"] for check in checks),
    }


def suite_residuals(seed: int, cases: int) -> dict:
    rng = random.Random(seed)
    worst_chi = worst_phi = worst_quartic = worst_susy = 0.0
    atlas = []
    for _ in range(cases):
        params, energy = sample_admissible(rng)
        radii = _sample_grid(params, energy)
        report = residual_report(params, energy, radii)
        worst_chi = max(worst_chi, report.chi_identity_max)
        worst_phi = max(worst_phi, report.phi_structure_max)
        worst_quartic = max(worst_quartic, report.quartic_cancellation)
        worst_susy = max(worst_susy, _susy_identity_worst(params, energy, radii[:8]))
        atlas.append(
            {
                "m": params.m, "a1": params.a1, "b1": params.b1,
                "a2": params.a2, "b2": params.b2, "energy": energy,
                "m3": report.m3, "m2": report.m2,
                "on_exact_manifold": report.on_exact_manifold,
            }
        )
    checks = [
        _check("chi_identity", worst_chi, CHI_TOL),
        _check("phi_structured_residual", worst_phi, PHI_STRUCTURE_TOL),
        _check("quartic_cancellation", worst_quartic, QUARTIC_TOL),
        _check("susy_log_derivative", worst_susy, SUSY_TOL),
    ]
    return _report("residuals", checks, atlas, seed=seed, cases=cases)


def _closed_form_backsub_worst() -> tuple[float, list[dict]]:
    """Substitute every closed form into f(E) over the coupling grids."""
    b_grid = (-0.9, -0.45, -0.1, 0.1, 0.45, 0.9)
    cases = [("coulomb_general", PotentialParams(m=1.0, b1=b1, b2=b2))
             for b1 in b_grid for b2 in b_grid]
    cases += [("pure_scalar", PotentialParams(m=1.0, a1=a1, b1=b1))
              for a1 in (0.0, 0.5, 1.0, 2.0) for b1 in b_grid]
    cases += [("pure_vector_coulomb", PotentialParams(m=1.0, b2=b2)) for b2 in b_grid]
    for b1 in (0.1, 0.3, 0.5, 0.7, 0.9):
        cases += [("equal", PotentialParams(m=1.0, b1=b1, b2=b1)),
                  ("opposite", PotentialParams(m=1.0, b1=b1, b2=-b1))]
    worst = max(abs(spectrum_residual(params, n, e))
                for n in range(4) for case, params in cases
                for e in closed_form(params, n, case))
    atlas = []
    for label, b2_sign in (("equal", 1.0), ("opposite", -1.0)):
        params = PotentialParams(m=1.0, b1=0.5, b2=b2_sign * 0.5)
        energy = next(iter(closed_form(params, 0, label)))
        rep = residual_report(params, energy, (0.5, 1.0, 2.0))
        atlas.append({"case": label, "m3": rep.m3, "m2": rep.m2,
                      "on_exact_manifold": rep.on_exact_manifold})
    return worst, atlas


def suite_manifolds() -> dict:
    worst_backsub, atlas = _closed_form_backsub_worst()

    # Pure-scalar root multiset must be symmetric under E -> -E.
    worst_symmetry = 0.0
    for a1 in (0.0, 1.0):
        for b1 in (0.3, 0.6, 0.9):
            params = PotentialParams(m=1.0, a1=a1, b1=b1)
            for n in range(3):
                energies = sorted(lvl.energy for lvl in solve_levels(params, n))
                for e_low, e_high in zip(energies, reversed(energies)):
                    worst_symmetry = max(worst_symmetry, abs(e_low + e_high))

    # Exact manifolds force M3 = M2 = 0 identically.
    worst_m = 0.0
    for a1 in (0.0, 0.5, 1.5):
        for b1 in (0.2, 0.5, 0.8):
            for sign in (1.0, -1.0):
                params = PotentialParams(m=1.0, a1=a1, b1=b1, a2=sign * a1, b2=sign * b1)
                rep = residual_report(params, 0.3, (1.0,))
                worst_m = max(worst_m, abs(rep.m3), abs(rep.m2))

    # Quadrature versus the Gamma closed form on a = 0 configurations.
    worst_norm = 0.0
    for b1, b2 in ((0.8, 0.0), (0.5, 0.25), (0.25, 0.2)):
        params = PotentialParams(m=1.0, b1=b1, b2=b2)
        level = select_level(solve_levels(params, 0), "particle")
        result = normalization(params, level.energy)
        gap = abs(result.integral - result.closed_form_integral)
        worst_norm = max(worst_norm, gap / result.closed_form_integral)

    checks = [
        _check("closed_form_backsubstitution", worst_backsub, CLOSED_FORM_TOL),
        _check("pure_scalar_symmetry", worst_symmetry, SYMMETRY_TOL),
        _check("manifold_m3_m2_zero", worst_m, 1e-14),
        _check("normalization_gamma_crosscheck", worst_norm, NORMALIZATION_TOL),
    ]
    return _report("manifolds", checks, atlas)


def suite_limits() -> dict:
    atlas = []

    # Equal-coupling series versus the exact closed form: the gap must shrink
    # as the coupling is halved.
    gaps_equal = []
    for b1 in (0.1, 0.05, 0.025):
        params = PotentialParams(m=1.0, b1=b1, b2=b1)
        series = approx_energy(params, 0, "equal_series")
        exact = next(iter(closed_form(params, 0, "equal")))
        gaps_equal.append(abs(series - exact))
        atlas.append({"case": "equal_series", "b1": b1, "series": series,
                      "exact": exact, "gap": gaps_equal[-1]})
    equal_ok = gaps_equal[0] < 3e-4 and all(
        later < earlier for earlier, later in zip(gaps_equal, gaps_equal[1:])
    )

    # Pure-vector series versus the implicit root, decreasing in b2.
    gaps_vector = []
    for b2 in (0.2, 0.1, 0.05):
        params = PotentialParams(m=1.0, a2=0.1, b2=b2)
        series = approx_energy(params, 0, "pure_vector_series")
        root = select_level(solve_levels(params, 0), "particle").energy
        gaps_vector.append(abs(series - root))
        atlas.append({"case": "pure_vector_series", "b2": b2, "series": series,
                      "implicit_root": root, "gap": gaps_vector[-1]})
    vector_ok = all(
        later < earlier for earlier, later in zip(gaps_vector, gaps_vector[1:])
    )

    # The strong-coupling antiparticle form, recorded verbatim next to the
    # exact value; no convergence claim is made for it.
    for b1 in (math.sqrt(2.0), 2.0):
        params = PotentialParams(m=1.0, b1=b1, b2=-b1)
        series = approx_energy(params, 0, "opposite_series")
        exact = closed_form(params, 0, "opposite")
        atlas.append({
            "case": "opposite_series", "b1": b1, "series": series,
            "exact": exact.energies[0] if exact.energies else None,
        })

    checks = [
        _check("equal_series_gap_shrinks", 0.0 if equal_ok else 1.0, 0.5),
        _check("pure_vector_series_gap_shrinks", 0.0 if vector_ok else 1.0, 0.5),
    ]
    checks[0]["gaps"] = gaps_equal
    checks[1]["gaps"] = gaps_vector
    return _report("limits", checks, atlas)


SUITES = {
    "residuals": suite_residuals,
    "manifolds": suite_manifolds,
    "limits": suite_limits,
}


def run_suite(name: str, seed: int = 0, cases: int = 200) -> dict:
    """Run one verification suite and return its report dict.

    Only ``residuals`` draws its cases, so only it takes ``seed`` and
    ``cases`` and reports them; the other suites run fixed grids.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if name != "residuals":
        return SUITES[name]()
    if cases < 1:
        raise ValueError("residuals suite needs cases >= 1")
    return suite_residuals(seed, cases)
