"""Bound-state energies of the mixed scalar/vector Kratzer problem.

The spectrum is defined implicitly by

    f(E) = E^2 - m^2 + 4*(m*b1 + E*b2)^2 / (2n + 1 + sqrt(1 + 8*(m*a1 + E*a2)))^2

whose zeros on (-m, m) are the bound-state energies for level ``n``.  The
equation is transcendental in E through both the Coulomb strength
``k(E) = 2*(m*b1 + E*b2)`` and the centrifugal index hidden in the square
root, so the general solver scans for sign changes and refines each bracket
by secant-accelerated bisection.  Degenerate coupling families admit exact
closed forms and truncated-series approximations; both are provided verbatim
so they can be cross-checked against the implicit roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConvergenceError, DomainError, StructuralConstraintError
from .model import (
    AdmissibilityReport,
    PotentialParams,
    admissibility,
    centrifugal_index,
    coulomb_strength,
)

__all__ = [
    "SolverConfig",
    "EnergyLevel",
    "SpectrumRun",
    "spectrum_residual",
    "solve_levels",
    "solve_spectrum",
    "closed_form",
    "ClosedFormResult",
    "approx_energy",
    "nonrel_epsilon",
    "CLOSED_FORM_CASES",
    "SERIES_CASES",
]

PARTICLE = "particle"
ANTIPARTICLE = "antiparticle"

CLOSED_FORM_CASES = (
    "coulomb_general",
    "pure_scalar",
    "pure_vector_coulomb",
    "equal",
    "opposite",
)
SERIES_CASES = ("pure_vector_series", "equal_series", "opposite_series")


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the scan-and-bisect root search.

    ``energy_margin`` is the exclusion zone at E = +-m (both endpoints carry
    a trivial or double zero of f); None means 1e-9 * m.
    """

    scan_points: int = 2000
    root_tolerance: float = 1e-12
    bracket_tolerance: float = 1e-13
    max_iterations: int = 200
    energy_margin: float | None = None

    def __post_init__(self):
        if self.scan_points < 100:
            raise ValueError("scan_points must be >= 100")
        for name in ("root_tolerance", "bracket_tolerance", "max_iterations"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.energy_margin is not None and self.energy_margin <= 0:
            raise ValueError("energy_margin must be positive")

    def margin(self, m: float) -> float:
        return self.energy_margin if self.energy_margin is not None else 1e-9 * m


@dataclass(frozen=True)
class EnergyLevel:
    """One solved bound-state energy with its classification and diagnostics."""

    n: int
    energy: float
    branch: str
    admissibility: AdmissibilityReport
    method: str
    residual: float
    iterations: int


@dataclass(frozen=True)
class SpectrumRun:
    """Levels for n = 0..n_max keyed by (n, branch); per-level failures kept."""

    table: dict[tuple[int, str], list[EnergyLevel]]
    failures: tuple[tuple[int, str], ...] = field(default=())

    def levels(self) -> list[EnergyLevel]:
        flat = [lvl for group in self.table.values() for lvl in group]
        flat.sort(key=lambda lvl: (lvl.n, lvl.branch, lvl.energy))
        return flat


def _residual_array(params: PotentialParams, n: int, energies: np.ndarray) -> np.ndarray:
    m = params.m
    k = 2.0 * (m * params.b1 + energies * params.b2)
    radicand = 1.0 + 8.0 * (m * params.a1 + energies * params.a2)
    if energies.ndim:
        # Rounding can leave -4e-16 where a scan grid meets the radicand's
        # zero: clamp to 0 (bit-identical on nonnegative entries), not NaN.
        # spectrum_residual has already rejected a negative scalar.
        radicand = np.maximum(radicand, 0.0)
    root = np.sqrt(radicand)
    denom = 2.0 * n + 1.0 + root
    return energies * energies - m * m + (k * k) / (denom * denom)


def spectrum_residual(params: PotentialParams, n: int, energy: float) -> float:
    """Evaluate f(E); its zeros on (-m, m) are the level-n bound energies."""
    if n < 0 or int(n) != n:
        raise DomainError(f"level index must be a nonnegative integer, got {n!r}")
    radicand = 1.0 + 8.0 * (params.m * params.a1 + energy * params.a2)
    if radicand < 0.0:
        raise DomainError(
            f"spectrum radicand 1 + 8*(m*a1 + E*a2) = {radicand} is negative at E={energy}"
        )
    return float(_residual_array(params, int(n), np.asarray(float(energy)))[()])


def _valid_intervals(params: PotentialParams, cfg: SolverConfig) -> list[tuple[float, float]]:
    """Intersect (-m + margin, m - margin) with the nonnegative-radicand side."""
    m = params.m
    lo, hi = -m + cfg.margin(m), m - cfg.margin(m)
    if lo >= hi:
        return []
    base = 1.0 + 8.0 * params.m * params.a1
    slope = 8.0 * params.a2
    if slope == 0.0:
        return [(lo, hi)] if base >= 0.0 else []
    crossing = -base / slope
    if slope > 0.0:  # valid side: E >= crossing
        lo = max(lo, crossing)
    else:
        hi = min(hi, crossing)
    return [(lo, hi)] if lo < hi else []


def _refine_bracket(params, n, lo, hi, f_lo, f_hi, cfg: SolverConfig):
    """Shrink a sign-change bracket; secant candidate, bisection fallback.

    Iterates until both tolerances hold (bracket width and |f| at the best
    endpoint) or the bracket reaches machine resolution with |f| below the
    root tolerance.  Returns (root, |f(root)|, iterations); raises
    ConvergenceError when the budget runs out first.
    """
    if f_lo == 0.0:
        return lo, 0.0, 0
    if f_hi == 0.0:
        return hi, 0.0, 0

    prev_width = math.inf
    for iteration in range(1, cfg.max_iterations + 1):
        width = hi - lo
        best_f, best_e = min((abs(f_lo), lo), (abs(f_hi), hi))
        if best_f < cfg.root_tolerance and width < cfg.bracket_tolerance:
            return best_e, best_f, iteration
        floor = 4.0 * 2.3e-16 * max(abs(lo), abs(hi))
        if width <= floor:
            if best_f < cfg.root_tolerance:
                return best_e, best_f, iteration
            break  # steep residual: cannot satisfy the |f| tolerance
        trial = 0.5 * (lo + hi)
        # A secant candidate is used only while the bracket keeps halving,
        # so a stalling secant cannot starve the bisection.
        if width < 0.5 * prev_width and f_hi != f_lo:
            secant = lo - f_lo * (hi - lo) / (f_hi - f_lo)
            if lo + 0.05 * width < secant < hi - 0.05 * width:
                trial = secant
        prev_width = width
        f_trial = spectrum_residual(params, n, trial)
        if f_trial == 0.0:
            return trial, 0.0, iteration
        if (f_lo < 0.0) != (f_trial < 0.0):
            hi, f_hi = trial, f_trial
        else:
            lo, f_lo = trial, f_trial
    raise ConvergenceError(
        f"bracket [{lo}, {hi}] for level n={n} did not converge "
        f"within {cfg.max_iterations} iterations"
    )


def _scan_roots(params, n, cfg: SolverConfig) -> list[tuple[float, float, int]]:
    roots: list[tuple[float, float, int]] = []
    for lo, hi in _valid_intervals(params, cfg):
        scan_points = cfg.scan_points
        for _attempt in range(4):
            grid = np.linspace(lo, hi, scan_points)
            values = _residual_array(params, n, grid)
            found: list[tuple[float, float, int]] = []
            signs = np.sign(values)
            for i in np.nonzero(signs[:-1] * signs[1:] < 0)[0]:
                found.append(
                    _refine_bracket(
                        params, n,
                        float(grid[i]), float(grid[i + 1]),
                        float(values[i]), float(values[i + 1]), cfg,
                    )
                )
            for i in np.nonzero(signs == 0)[0]:
                found.append((float(grid[i]), 0.0, 0))
            found.sort()
            # Adjacent refined roots that coincide hint at a merged pair the
            # scan could not separate: rescan twice as densely.
            merged = any(
                abs(found[j + 1][0] - found[j][0]) < 10.0 * cfg.root_tolerance
                for j in range(len(found) - 1)
            )
            if not merged:
                roots.extend(found)
                break
            scan_points *= 2
        else:
            roots.extend(found)
    return roots


def classify_branch(params: PotentialParams, energy: float) -> str:
    """Particle when k(E) > 0, antiparticle otherwise.

    k > 0 is exactly the condition under which the squared wave equation
    supports a normalizable state, so it doubles as the branch label for
    mixed couplings.
    """
    return PARTICLE if coulomb_strength(params, energy) > 0.0 else ANTIPARTICLE


def solve_levels(
    params: PotentialParams, n: int, config: SolverConfig | None = None
) -> list[EnergyLevel]:
    """All interior zeros of f(E) for one level, classified and flagged.

    Returns an empty list when no sign change exists.  Roots in flagged
    regions (imaginary a, negative c window) are still returned; their
    admissibility report carries the reasons.
    """
    cfg = config or SolverConfig()
    if n < 0 or int(n) != n:
        raise DomainError(f"level index must be a nonnegative integer, got {n!r}")
    n = int(n)
    levels = []
    for energy, fval, iterations in _scan_roots(params, n, cfg):
        levels.append(
            EnergyLevel(
                n=n,
                energy=energy,
                branch=classify_branch(params, energy),
                admissibility=admissibility(params, energy),
                method="implicit_root",
                residual=fval,
                iterations=iterations,
            )
        )
    levels.sort(key=lambda lvl: lvl.energy)
    return levels


def solve_spectrum(
    params: PotentialParams, n_max: int, config: SolverConfig | None = None
) -> SpectrumRun:
    """Apply solve_levels for n = 0..n_max; failures do not abort other levels."""
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    table: dict[tuple[int, str], list[EnergyLevel]] = {}
    failures: list[tuple[int, str]] = []
    for n in range(int(n_max) + 1):
        try:
            for level in solve_levels(params, n, config):
                table.setdefault((n, level.branch), []).append(level)
        except ConvergenceError as exc:
            failures.append((n, str(exc)))
    return SpectrumRun(table=table, failures=tuple(failures))


@dataclass(frozen=True)
class ClosedFormResult:
    """Exact energies for one degenerate case; out-of-window values noted."""

    case: str
    energies: tuple[float, ...]
    notes: tuple[str, ...] = field(default=())

    def __iter__(self):
        return iter(self.energies)

    def __len__(self):
        return len(self.energies)


def _require(condition: bool, case: str, constraint: str) -> None:
    if not condition:
        raise StructuralConstraintError(f"case {case!r} requires {constraint}")


def _window_filter(case: str, raw: list[float], m: float):
    kept, notes = [], []
    for value in raw:
        if abs(value) < m:
            kept.append(value)
        else:
            notes.append(f"root E={value!r} outside (-m, m); dropped")
    return ClosedFormResult(case=case, energies=tuple(kept), notes=tuple(notes))


def closed_form(params: PotentialParams, n: int, case: str) -> ClosedFormResult:
    """Exact bound-state energies for the degenerate coupling families.

    coulomb_general      a1 = a2 = 0:
        E = m * (-b1*b2/nu^2 +- sqrt(1 - (b1^2 - b2^2)/nu^2)) / (1 + b2^2/nu^2)
    pure_scalar          a2 = b2 = 0:
        E = +- m * sqrt(1 - 4*b1^2 / (2n + 1 + sqrt(1 + 8*m*a1))^2)
    pure_vector_coulomb  a1 = b1 = a2 = 0:
        E = +- m / sqrt(1 + b2^2/nu^2)
    equal                a2 = a1 = 0, b2 = b1:
        E = m * (nu^2 - b1^2) / (nu^2 + b1^2)
    opposite             a2 = -a1 = 0, b2 = -b1:
        E = -m * (nu^2 - b1^2) / (nu^2 + b1^2)

    with nu = n + 1.  Complex or |E| >= m outputs are dropped with a note.
    """
    if case not in CLOSED_FORM_CASES:
        raise StructuralConstraintError(f"unknown closed-form case {case!r}")
    if n < 0 or int(n) != n:
        raise DomainError(f"level index must be a nonnegative integer, got {n!r}")
    n = int(n)
    m, nu = params.m, float(n + 1)
    notes: list[str] = []

    if case == "coulomb_general":
        _require(params.a1 == 0.0 and params.a2 == 0.0, case, "a1 = a2 = 0")
        disc = 1.0 - (params.b1 ** 2 - params.b2 ** 2) / nu ** 2
        if disc < 0.0:
            return ClosedFormResult(case, (), (f"discriminant {disc} < 0: complex pair dropped",))
        shift = -params.b1 * params.b2 / nu ** 2
        denom = 1.0 + params.b2 ** 2 / nu ** 2
        raw = [m * (shift + math.sqrt(disc)) / denom, m * (shift - math.sqrt(disc)) / denom]
    elif case == "pure_scalar":
        _require(params.a2 == 0.0 and params.b2 == 0.0, case, "a2 = b2 = 0")
        denom = 2.0 * n + 1.0 + math.sqrt(1.0 + 8.0 * m * params.a1)
        inner = 1.0 - 4.0 * params.b1 ** 2 / denom ** 2
        if inner < 0.0:
            return ClosedFormResult(case, (), (f"radicand {inner} < 0: complex pair dropped",))
        raw = [m * math.sqrt(inner), -m * math.sqrt(inner)]
    elif case == "pure_vector_coulomb":
        _require(
            params.a1 == 0.0 and params.b1 == 0.0 and params.a2 == 0.0,
            case, "a1 = b1 = a2 = 0",
        )
        value = m / math.sqrt(1.0 + params.b2 ** 2 / nu ** 2)
        raw = [value, -value]
    elif case == "equal":
        _require(params.a2 == params.a1, case, "a2 = a1")
        _require(params.b2 == params.b1, case, "b2 = b1")
        _require(params.a1 == 0.0, case, "a1 = 0 for the closed form")
        raw = [m * (nu ** 2 - params.b1 ** 2) / (nu ** 2 + params.b1 ** 2)]
    else:  # opposite
        _require(params.a2 == -params.a1, case, "a2 = -a1")
        _require(params.b2 == -params.b1, case, "b2 = -b1")
        _require(params.a1 == 0.0, case, "a1 = 0 for the closed form")
        raw = [-m * (nu ** 2 - params.b1 ** 2) / (nu ** 2 + params.b1 ** 2)]

    result = _window_filter(case, raw, m)
    return replace(result, notes=result.notes + tuple(notes))


def approx_energy(params: PotentialParams, n: int, case: str) -> float:
    """Truncated-series energies, reproduced verbatim.

    pure_vector_series  (a1 = b1 = 0):  E = m * (1 - b2^2 / (2*(n + 1 + 2*m*a2)^2))
    equal_series        (a2 = a1, b2 = b1):
        E = m - 8*m*b1^2 / (2n + 1 + sqrt(1 + 16*m*a1))^2
    opposite_series     (a2 = -a1, b2 = -b1):
        E = -m * (2*(n + 1)^2 / b1^2 - 1)

    The opposite_series form is a reported approximation with questionable
    limit behaviour (it diverges as b1 -> 0 instead of approaching -m); it is
    evaluated exactly as printed.
    """
    if case not in SERIES_CASES:
        raise StructuralConstraintError(f"unknown series case {case!r}")
    if n < 0 or int(n) != n:
        raise DomainError(f"level index must be a nonnegative integer, got {n!r}")
    n = int(n)
    m = params.m

    if case == "pure_vector_series":
        _require(params.a1 == 0.0 and params.b1 == 0.0, case, "a1 = b1 = 0")
        denom = n + 1.0 + 2.0 * m * params.a2
        return m * (1.0 - params.b2 ** 2 / (2.0 * denom * denom))
    if case == "equal_series":
        _require(params.a2 == params.a1, case, "a2 = a1")
        _require(params.b2 == params.b1, case, "b2 = b1")
        denom = 2.0 * n + 1.0 + math.sqrt(1.0 + 16.0 * m * params.a1)
        return m - 8.0 * m * params.b1 ** 2 / (denom * denom)
    # opposite_series
    _require(params.a2 == -params.a1, case, "a2 = -a1")
    _require(params.b2 == -params.b1, case, "b2 = -b1")
    if params.b1 == 0.0:
        raise DomainError("opposite_series is undefined at b1 = 0 (division by zero)")
    return -m * (2.0 * (n + 1.0) ** 2 / params.b1 ** 2 - 1.0)


def nonrel_epsilon(params: PotentialParams, energy: float, n: int) -> float:
    """Nonrelativistic binding energy -k^2 / (4*(n + c + 1)^2) at (E, n)."""
    c, radicand = centrifugal_index(params, energy)
    if c is None:
        raise DomainError(
            f"centrifugal index undefined: radicand {radicand} < 0 at E={energy}"
        )
    k = coulomb_strength(params, energy)
    denom = n + c + 1.0
    return -(k * k) / (4.0 * denom * denom)
