"""Bound-state energies of the mixed scalar/vector Kratzer problem.

The spectrum is defined implicitly by

    f(E) = E^2 - m^2 + 4*(m*b1 + E*b2)^2 / (2n + 1 + sqrt(1 + 8*(m*a1 + E*a2)))^2

whose zeros on (-m, m) are the bound-state energies for level ``n``.  The
equation is transcendental in E only through the square root
s = sqrt(1 + 8*(m*a1 + E*a2)).  Squaring s away turns every zero into a root
of a polynomial P of degree at most 6.  The real critical points of P cut
the window into cells on which P is monotone, so each cell holds at most one
root of P and so at most one level; the critical points are the roots of
P', found in plain floats by the same cut one derivative down.  The solver
keeps the cells across which f changes sign and polishes each level to
machine resolution by a bracketed Brent search on f itself.  The list of
levels is complete by construction: no scan grid can miss one.  Degenerate
coupling families admit exact closed forms and truncated-series
approximations; both are provided verbatim so they can be cross-checked
against the implicit roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._search import _derivative, _horner, _monotone_root, _real_roots, bracketed_search
from .errors import ConvergenceError, DomainError, NoBoundStateError, StructuralConstraintError
from .model import (
    AdmissibilityReport,
    PotentialParams,
    admissibility,
    centrifugal_index,
    coulomb_strength,
    derived_coefficients,
    in_units_of_m,
    level_index,
    negative_radicand,
    out_of_float_range,
)

__all__ = [
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


# Levels are solved in units of m, as f(E) = m^2 f_1(E/m), f_1 the f of (1, m*a1,
# b1, m*a2, b2).  A level is accepted when |f_1| < _ROOT_TOLERANCE at the end of
# its polished bracket; _MAX_ITERATIONS caps the f_1 evaluations of one polish.
# The window excludes 1e-9 at E/m = +-1, where f has a trivial or double zero.
_ROOT_TOLERANCE = 1e-12
_MAX_ITERATIONS = 200


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


def _s_of(params: PotentialParams, energy: float) -> float:
    # Rounding can leave -4e-16 where a cell edge or a polishing trial meets
    # the radicand's zero: clamp to 0, not NaN.  A NaN radicand stays NaN.
    return math.sqrt(max(1.0 + 8.0 * (params.m * params.a1 + energy * params.a2), 0.0))


# perfbench/tracer.py wraps this by name and counts the size of its energy: 1 for a float.
def _residual_array(params: PotentialParams, n: int, energy: float) -> float:
    m = params.m
    k = 2.0 * (m * params.b1 + energy * params.b2)
    denom = 2.0 * n + 1.0 + _s_of(params, energy)
    return energy * energy - m * m + (k * k) / (denom * denom)


def spectrum_residual(params: PotentialParams, n: int, energy: float) -> float:
    """Evaluate f(E); its zeros on (-m, m) are the level-n bound energies."""
    n = level_index(n)
    c, radicand = centrifugal_index(params, energy)
    if c is None:
        raise negative_radicand(radicand, energy)
    return _residual_array(params, n, float(energy))


def _window(params: PotentialParams) -> tuple[float, float] | None:
    """Intersect (-1 + 1e-9, 1 - 1e-9) with the nonnegative-radicand side, at m = 1."""
    lo, hi = -1.0 + 1e-9, 1.0 - 1e-9
    base = 1.0 + 8.0 * params.a1
    slope = 8.0 * params.a2
    if slope == 0.0:
        if base < 0.0:
            return None
    elif slope > 0.0:  # valid side: E >= crossing
        lo = max(lo, -base / slope)
    else:
        hi = min(hi, -base / slope)
    return (lo, hi) if lo < hi else None


def _sextic(params: PotentialParams, n: int) -> list[float]:
    """Coefficients of P(t) = X^2 - Y^2 * s^2 at m = 1, highest power first.

    With N = 2n + 1 and s^2 = c0 + c1*t = 1 + 8*(a1 + t*a2), the residual
    obeys f(t) * (N + s)^2 = X + Y*s, where
    X = (t^2 - 1)(N^2 + c0 + c1*t) + 4*(b1 + t*b2)^2 and Y = 2N(t^2 - 1).
    Every zero of f is therefore a zero of the polynomial P, of degree at
    most 6; P also vanishes where X = Y*s, the s < 0 branch, which the sign
    test on each cell discards.
    """
    b1, b2 = params.b1, params.b2
    big_n2 = (2.0 * n + 1.0) ** 2
    c0 = 1.0 + 8.0 * params.a1
    c1 = 8.0 * params.a2
    # X = x3*t^3 + x2*t^2 + x1*t + x0 and Y^2 = w*(t^2 - 1)^2.
    x3 = c1
    x2 = big_n2 + c0 + 4.0 * b2 * b2
    x1 = 8.0 * b1 * b2 - c1
    x0 = 4.0 * b1 * b1 - big_n2 - c0
    w = 4.0 * big_n2
    return [
        x3 * x3,
        2.0 * x3 * x2 - w * c1,
        x2 * x2 + 2.0 * x3 * x1 - w * c0,
        2.0 * (x3 * x0 + x2 * x1 + w * c1),
        x1 * x1 + 2.0 * (x2 * x0 + w * c0),
        2.0 * x1 * x0 - w * c1,
        x0 * x0 - w * c0,
    ]


def _roots(params, n) -> list[tuple[float, float, int]]:
    """(E/m, |f|/m^2, search evaluations) of every zero of f in the window, at m = 1.

    The real critical points of P cut the window into cells on which P is
    monotone, so each cell holds at most one root of P and so at most one
    level.  A cell whose ends differ in sign holds one level, which the
    bracketed search narrows to machine resolution, starting from the root
    of P in the cell (or from the cell's midpoint where rounding leaves P
    with no sign change).  The level must leave |f| below the root
    tolerance, widened by what the change of s across its narrowed bracket
    alone can move f: at s = 0 the slope of s is infinite, so a level there
    leaves |f| far above the tolerance however narrow the bracket.
    """
    window = _window(params)
    if window is None:
        return []
    lo, hi = window
    sextic = _sextic(params, n)
    edges = [lo, *_real_roots(_derivative(sextic), lo, hi), hi]
    values = [_residual_array(params, n, edge) for edge in edges]
    if not all(map(math.isfinite, [*sextic, *values])):
        raise DomainError("the spectrum equation overflows a float in units of m")

    def residual(t: float) -> float:
        return _residual_array(params, n, t)

    roots = []
    for i in range(len(edges) - 1):
        a, b, f_a, f_b = edges[i], edges[i + 1], values[i], values[i + 1]
        # An exact zero is a level on its cell's left end, or on the window's
        # top end, so a zero shared by two cells counts once.  The signs are
        # compared, not multiplied: an end near a zero of f can leave |f|
        # below 1e-160, and a product of two such ends underflows to -0.0.
        has_level = (f_a < 0.0 < f_b or f_b < 0.0 < f_a
                     or f_a == 0.0 or (f_b == 0.0 and b == hi))
        if not (a < b and has_level):
            continue
        p_a, p_b = _horner(sextic, a), _horner(sextic, b)
        first = _monotone_root(sextic, a, b, p_a, p_b) if p_a * p_b < 0.0 else 0.5 * (a + b)
        floor = 4.0 * 2.3e-16 * max(abs(a), abs(b))
        a, b, f_a, f_b, evaluations = bracketed_search(
            residual, a, b, f_a, f_b, min(max(first, a), b), floor, _MAX_ITERATIONS,
        )
        best_f, best_t = min((abs(f_a), a), (abs(f_b), b))
        # With k = 2*(b1 + t*b2) and N = 2n + 1, |df/ds| = 2k^2/(N + s)^3 <= 2k^2/N^3.
        k = 2.0 * (params.b1 + best_t * params.b2)
        s_share = 2.0 * k * k / (2.0 * n + 1.0) ** 3 * abs(_s_of(params, b) - _s_of(params, a))
        if best_f >= _ROOT_TOLERANCE + s_share:
            raise ConvergenceError(
                f"|f| = {best_f}*m^2 at E/m={best_t} is not below "
                f"the root tolerance {_ROOT_TOLERANCE}*m^2"
            )
        roots.append((best_t, best_f, evaluations))
    return roots


def classify_branch(params: PotentialParams, energy: float) -> str:
    """Particle when k(E) > 0, antiparticle otherwise.

    k > 0 is exactly the condition under which the squared wave equation
    supports a normalizable state, so it doubles as the branch label for
    mixed couplings.
    """
    return PARTICLE if coulomb_strength(params, energy) > 0.0 else ANTIPARTICLE


def select_level(levels, branch: str) -> EnergyLevel | None:
    """The level of ``branch`` reported for one n: the highest particle level
    or the lowest antiparticle level; None when ``branch`` has no level."""
    matching = [lvl for lvl in levels if lvl.branch == branch]
    if not matching:
        return None
    pick = max if branch == PARTICLE else min
    return pick(matching, key=lambda lvl: lvl.energy)


def no_level(branch: str, n: int) -> NoBoundStateError:
    """The error for a level n of ``branch`` that ``select_level`` does not find."""
    return NoBoundStateError(f"no {branch} root of the spectrum equation at n={n}")


def solve_levels(params: PotentialParams, n: int) -> list[EnergyLevel]:
    """All interior zeros of f(E) for one level, classified and flagged.

    Returns an empty list when no sign change exists.  Roots in flagged
    regions (imaginary a, negative c window) are still returned; their
    admissibility report carries the reasons.  Each level's residual is
    |f|/m^2, the quantity the root tolerance bounds.  Each level is judged
    on the problem solved, in units of m, where a1^2 and k^2 stay in range.
    """
    n = level_index(n)
    unit = in_units_of_m(params)
    try:
        roots = _roots(unit, n)
    except DomainError as exc:
        raise DomainError(f"{exc} at {params}") from exc
    m = params.m
    return [  # the cells, and so the roots, come in ascending order
        EnergyLevel(
            n=n,
            energy=m * t,
            branch=classify_branch(params, m * t),
            admissibility=admissibility(unit, t),
            method="implicit_root",
            residual=fval,
            iterations=iterations,
        )
        for t, fval, iterations in roots
    ]


def solve_spectrum(params: PotentialParams, n_max: int) -> SpectrumRun:
    """Apply solve_levels for n = 0..n_max; failures do not abort other levels."""
    n_max = level_index(n_max)
    table: dict[tuple[int, str], list[EnergyLevel]] = {}
    failures: list[tuple[int, str]] = []
    for n in range(n_max + 1):
        try:
            for level in solve_levels(params, n):
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

    with nu = n + 1.  Complex or |E| >= m outputs are dropped with a note, as
    is the pure_scalar pair where the centrifugal index does not exist.  A
    formula that overflows a float raises DomainError.
    """
    if case not in CLOSED_FORM_CASES:
        raise StructuralConstraintError(f"unknown closed-form case {case!r}")
    n = level_index(n)
    m, nu = params.m, float(n + 1)

    try:
        if case == "coulomb_general":
            _require(params.a1 == 0.0 and params.a2 == 0.0, case, "a1 = a2 = 0")
            disc = 1.0 - (params.b1 ** 2 - params.b2 ** 2) / nu ** 2
            if disc < 0.0:
                note = f"discriminant {disc} < 0: complex pair dropped"
                return ClosedFormResult(case, (), (note,))
            shift = -params.b1 * params.b2 / nu ** 2
            denom = 1.0 + params.b2 ** 2 / nu ** 2
            raw = [m * (shift + math.sqrt(disc)) / denom, m * (shift - math.sqrt(disc)) / denom]
        elif case == "pure_scalar":
            _require(params.a2 == 0.0 and params.b2 == 0.0, case, "a2 = b2 = 0")
            c, radicand = centrifugal_index(params, 0.0)  # the same at every E, as a2 = 0
            if c is None:
                note = f"centrifugal radicand {radicand} < 0: no level"
                return ClosedFormResult(case, (), (note,))
            denom = 2.0 * n + 1.0 + math.sqrt(4.0 * radicand)
            inner = 1.0 - 4.0 * params.b1 ** 2 / denom ** 2
            if inner < 0.0:
                note = f"radicand {inner} < 0: complex pair dropped"
                return ClosedFormResult(case, (), (note,))
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
        if not all(map(math.isfinite, raw)):
            raise OverflowError  # m times a ratio can overflow without raising
    except (ZeroDivisionError, OverflowError) as exc:
        raise out_of_float_range(f"case {case!r}", params, exc) from None
    return _window_filter(case, raw, m)


def approx_energy(params: PotentialParams, n: int, case: str) -> float:
    """Truncated-series energies, reproduced verbatim.

    pure_vector_series  (a1 = b1 = 0):  E = m * (1 - b2^2 / (2*(n + 1 + 2*m*a2)^2))
    equal_series        (a2 = a1, b2 = b1):
        E = m - 8*m*b1^2 / (2n + 1 + sqrt(1 + 16*m*a1))^2
    opposite_series     (a2 = -a1, b2 = -b1):
        E = -m * (2*(n + 1)^2 / b1^2 - 1)

    The opposite_series form is a reported approximation with questionable
    limit behaviour (it diverges as b1 -> 0 instead of approaching -m); it is
    evaluated exactly as printed.  A series that divides by zero or overflows
    a float, or equal_series where the centrifugal index at E = m does not
    exist, raises DomainError.
    """
    if case not in SERIES_CASES:
        raise StructuralConstraintError(f"unknown series case {case!r}")
    n = level_index(n)
    m = params.m

    try:
        if case == "pure_vector_series":
            _require(params.a1 == 0.0 and params.b1 == 0.0, case, "a1 = b1 = 0")
            denom = n + 1.0 + 2.0 * m * params.a2
            energy = m * (1.0 - params.b2 ** 2 / (2.0 * denom * denom))
        elif case == "equal_series":
            _require(params.a2 == params.a1, case, "a2 = a1")
            _require(params.b2 == params.b1, case, "b2 = b1")
            c, radicand = centrifugal_index(params, m)  # 1/4 + 4*m*a1, as a2 = a1
            if c is None:
                raise negative_radicand(radicand, m)
            denom = 2.0 * n + 1.0 + math.sqrt(4.0 * radicand)
            energy = m - 8.0 * m * params.b1 ** 2 / (denom * denom)
        else:  # opposite_series
            _require(params.a2 == -params.a1, case, "a2 = -a1")
            _require(params.b2 == -params.b1, case, "b2 = -b1")
            energy = -m * (2.0 * (n + 1.0) ** 2 / params.b1 ** 2 - 1.0)
        if not math.isfinite(energy):
            raise OverflowError  # m times the series can overflow without raising
    except (ZeroDivisionError, OverflowError) as exc:
        raise out_of_float_range(f"case {case!r}", params, exc) from None
    return energy


def nonrel_epsilon(params: PotentialParams, energy: float, n: int) -> float:
    """Nonrelativistic binding energy -k^2 / (4*(n + c + 1)^2) at (E, n)."""
    coeffs = derived_coefficients(params, energy, n)
    if coeffs.epsilon_n is None:
        raise negative_radicand(coeffs.centrifugal_radicand, energy)
    return coeffs.epsilon_n
