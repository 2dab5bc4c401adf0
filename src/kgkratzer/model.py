"""Physical parameters, derived coefficients and bound-state admissibility.

The model couples a spinless relativistic particle of rest mass ``m`` to a
scalar potential ``V_S = a1/r^2 - b1/r`` and a vector potential
``V_V = a2/r^2 - b2/r`` (natural units, s-wave).  Everything downstream is
driven by three energy-dependent quantities:

* ``k = 2*(m*b1 + E*b2)``: effective Coulomb strength,
* ``c``: effective centrifugal index, the root of ``c*(c+1) = 2*(m*a1 + E*a2)``
  with ``c >= -1/2``,
* ``a = sqrt(a1^2 - a2^2)``: decay strength of the short-range correction
  factor ``exp(-a/r)``; undefined when the vector inverse-square coupling
  dominates.

Undefined quantities are represented by ``None`` plus explicit flags; NaN is
never propagated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError, FallToCenterError

__all__ = [
    "PotentialParams",
    "DerivedCoefficients",
    "AdmissibilityReport",
    "derived_coefficients",
    "potentials_at",
    "admissibility",
]


@dataclass(frozen=True)
class PotentialParams:
    """The five physical inputs, all in natural units (hbar = c = 1).

    m:  rest mass, strictly positive.
    a1: scalar inverse-square strength.
    b1: scalar Coulomb strength.
    a2: vector inverse-square strength.
    b2: vector Coulomb strength.
    """

    m: float
    a1: float = 0.0
    b1: float = 0.0
    a2: float = 0.0
    b2: float = 0.0

    def __post_init__(self):
        for name in ("m", "a1", "b1", "a2", "b2"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise DomainError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.m <= 0.0:
            raise DomainError(f"rest mass must be positive, got m={self.m}")


@dataclass(frozen=True)
class DerivedCoefficients:
    """Energy-dependent coefficients entering spectrum and wavefunction.

    ``a`` is None when a1^2 < a2^2 (imaginary decay strength); ``c`` and
    ``epsilon_n`` are None when the centrifugal radicand
    ``1/4 + 2*(m*a1 + E*a2)`` is negative.  ``c_diagnostic`` is the rejected
    ratio definition ``(a1*b1 - a2*b2)/a``; it has no role in solving and is
    None whenever ``a`` is zero or undefined.
    """

    a: float | None
    c: float | None
    k: float
    c_diagnostic: float | None
    epsilon_n: float | None
    n: int
    energy: float
    centrifugal_radicand: float


_VERDICTS = ("admissible", "boundary", "inadmissible")


@dataclass(frozen=True)
class AdmissibilityReport:
    """Flag-by-flag bound-state admissibility at one (params, energy) point.

    ``scalar_dominance`` (a1 > a2 and |b1| < |b2|) is advisory only: several
    solvable limits violate it, so it never affects the overall verdict.
    ``origin_subcritical`` applies the shooting oracle's origin rule to the
    full equation's U(r), whose 1/r^2 coefficient also holds b1^2 - b2^2.
    """

    a_real: bool
    c_value: float | None
    c_nonnegative: bool
    k_positive: bool
    energy_subluminal: bool
    sqrt_domain_ok: bool
    origin_subcritical: bool
    scalar_dominance: bool
    overall: str
    reasons: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if self.overall not in _VERDICTS:
            raise ValueError(f"unknown verdict {self.overall!r}")

    @property
    def bound_state_ok(self) -> bool:
        return self.overall in ("admissible", "boundary")


def coulomb_strength(params: PotentialParams, energy: float) -> float:
    """k = 2*(m*b1 + E*b2); positive k is required for a decaying tail."""
    return 2.0 * (params.m * params.b1 + energy * params.b2)


def centrifugal_index(params: PotentialParams, energy: float) -> tuple[float | None, float]:
    """Return (c, radicand) with c = -1/2 + sqrt(1/4 + 2*(m*a1 + E*a2)).

    c is None when the radicand is negative; callers branch on the flag
    instead of catching an exception.
    """
    radicand = 0.25 + 2.0 * (params.m * params.a1 + energy * params.a2)
    if radicand < 0.0:
        return None, radicand
    return -0.5 + math.sqrt(radicand), radicand


def negative_radicand(radicand: float, energy: float) -> DomainError:
    """The error for a centrifugal index that does not exist at ``energy``."""
    return DomainError(
        f"centrifugal radicand 1/4 + 2*(m*a1 + E*a2) = {radicand} negative at E={energy}"
    )


def a_imaginary(params: PotentialParams) -> bool:
    """a = sqrt(a1^2 - a2^2) is imaginary: |a2| > |a1|, compared without squaring."""
    return abs(params.a2) > abs(params.a1)


_A_IMAGINARY = "a imaginary: a1^2 < a2^2"


def refuse_imaginary_a(params: PotentialParams) -> None:
    """Raise DomainError where ``a_imaginary`` holds."""
    if a_imaginary(params):
        raise DomainError(_A_IMAGINARY)


def refuse_nonpositive_radius(r: float) -> None:
    """Raise DomainError unless r > 0, where the radial problem is posed."""
    if not r > 0.0:
        raise DomainError(f"radius must be positive, got r={r!r}")


def out_of_float_range(subject: str, params: PotentialParams, exc: ArithmeticError) -> DomainError:
    """The DomainError, naming ``subject``, for a formula that divided by zero or overflowed."""
    what = "divides by zero" if isinstance(exc, ZeroDivisionError) else "overflows a float"
    return DomainError(f"{subject} {what} at {params}")


def in_units_of_m(params: PotentialParams) -> PotentialParams:
    """The same problem with radii in units of 1/m and energies in units of m."""
    m = params.m
    return PotentialParams(1.0, params.a1 * m, params.b1, params.a2 * m, params.b2)


def level_index(n) -> int:
    """``n`` as an int; DomainError unless it is a nonnegative integer."""
    if n < 0 or int(n) != n:
        raise DomainError(f"level index must be a nonnegative integer, got {n!r}")
    return int(n)


def derived_coefficients(params: PotentialParams, energy: float, n: int = 0) -> DerivedCoefficients:
    """Evaluate a, c, k, the diagnostic c and the nonrelativistic level.

    ``epsilon_n = -k^2 / (4*(n + c + 1)^2)`` is the binding energy of the
    effective nonrelativistic problem at level ``n``.
    """
    if not math.isfinite(energy):
        raise DomainError(f"energy must be finite, got {energy!r}")
    n = level_index(n)

    a = None
    if not a_imaginary(params):
        a_sq = params.a1 * params.a1 - params.a2 * params.a2
        if math.isfinite(a_sq):
            a = math.sqrt(a_sq)
        else:  # a1^2 overflows: factor it out, |a2/a1| <= 1
            ratio = params.a2 / params.a1
            a = abs(params.a1) * math.sqrt((1.0 - ratio) * (1.0 + ratio))

    c, radicand = centrifugal_index(params, energy)
    k = coulomb_strength(params, energy)

    c_diag = None
    if a is not None and a > 0.0:
        c_diag = (params.a1 * params.b1 - params.a2 * params.b2) / a
        if not math.isfinite(c_diag):  # a product overflows: divide each by a first
            c_diag = params.a1 * (params.b1 / a) - params.a2 * (params.b2 / a)

    eps = None
    if c is not None:
        denom = n + c + 1.0
        eps = -(k * k) / (4.0 * denom * denom)

    return DerivedCoefficients(
        a=a, c=c, k=k, c_diagnostic=c_diag, epsilon_n=eps,
        n=n, energy=float(energy), centrifugal_radicand=radicand,
    )


def potentials_at(params: PotentialParams, energy: float, r: float):
    """Scalar, vector and composite effective potential at radius r > 0.

    V_eff = 2*m*V_S + 2*E*V_V + V_S^2 - V_V^2 is the full coupling term of
    the squared relativistic wave equation.
    """
    refuse_nonpositive_radius(r)
    inv = 1.0 / r
    v_s = (params.a1 * inv - params.b1) * inv
    v_v = (params.a2 * inv - params.b2) * inv
    v_eff = 2.0 * params.m * v_s + 2.0 * energy * v_v + v_s * v_s - v_v * v_v
    return v_s, v_v, v_eff


def u_series(params: PotentialParams, energy: float):
    """Coefficients (kappa2, q1, q2, q3, q4) of U(r), straight from V_S, V_V."""
    kappa2 = params.m * params.m - energy * energy
    q4 = params.a1 * params.a1 - params.a2 * params.a2
    q3 = -2.0 * (params.a1 * params.b1 - params.a2 * params.b2)
    q2 = 2.0 * (params.m * params.a1 + energy * params.a2) \
        + params.b1 * params.b1 - params.b2 * params.b2
    q1 = -2.0 * (params.m * params.b1 + energy * params.b2)
    return kappa2, q1, q2, q3, q4


def origin_power(q2: float, q3: float, q4: float) -> int:
    """The power of 1/r that governs U at the origin: 4, 3 or 2.  Raises
    FallToCenterError where that term admits no bound state; a NaN q4 or q3,
    from couplings whose products overflow, raises nothing."""
    if q4 > 0.0:
        return 4
    if q4 < 0.0:
        raise FallToCenterError(
            f"U ~ {q4}/r^4 at the origin: attractive inverse-quartic, fall to center"
        )
    if q3 > 0.0:
        return 3
    if q4 == 0.0 and q3 < 0.0:
        raise FallToCenterError(
            f"U ~ {q3}/r^3 at the origin: attractive inverse-cube, fall to center"
        )
    if q4 == 0.0 and q3 == 0.0 and q2 <= -0.25:
        raise FallToCenterError(
            f"inverse-square coefficient {q2} <= -1/4 at the origin: "
            "no self-adjoint ground state"
        )
    return 2


def admissibility(params: PotentialParams, energy: float) -> AdmissibilityReport:
    """Evaluate every bound-state flag at (params, energy); total function.

    Verdicts: "admissible" needs a real, c > 0, k > 0, E^2 < m^2, the
    centrifugal radicand nonnegative and a subcritical origin (the check
    that the oracle applies before it integrates); exact a = 0, c = 0 or
    c = -1/2 (the radicand zero) and the square-integrable window
    -1/2 < c < 0 demote it to "boundary"; any hard failure yields
    "inadmissible" with one reason per failed flag.
    """
    coeffs = derived_coefficients(params, energy)
    reasons: list[str] = []

    a_real = coeffs.a is not None
    if not a_real:
        reasons.append(_A_IMAGINARY)

    sqrt_domain_ok = coeffs.c is not None
    if not sqrt_domain_ok:
        reasons.append("centrifugal radicand 1/4 + 2*(m*a1 + E*a2) negative")

    c_nonnegative = coeffs.c is not None and coeffs.c >= 0.0
    k_positive = coeffs.k > 0.0
    if not k_positive:
        reasons.append("k = 2*(m*b1 + E*b2) not positive")

    energy_subluminal = abs(energy) < params.m
    if not energy_subluminal:
        reasons.append("E^2 >= m^2: outside the bound-state window")

    _, _, q2, q3, q4 = u_series(params, energy)
    try:
        origin_power(q2, q3, q4)
        origin_subcritical = True
    except FallToCenterError as exc:
        origin_subcritical = False
        reasons.append(str(exc))

    scalar_dominance = params.a1 > params.a2 and abs(params.b1) < abs(params.b2)

    hard_ok = (a_real and sqrt_domain_ok and k_positive and energy_subluminal
               and origin_subcritical)
    if hard_ok:
        # No hard flag failed, so reasons is empty until a boundary flag adds one.
        if coeffs.c is not None and -0.5 < coeffs.c < 0.0:
            reasons.append("c in (-1/2, 0): square-integrable boundary window")
        if coeffs.c == -0.5:
            reasons.append("c = -1/2 exactly")
        if coeffs.c == 0.0:
            reasons.append("c = 0 exactly")
        if coeffs.a == 0.0:
            reasons.append("a = 0 exactly")
        overall = "boundary" if reasons else "admissible"
    else:
        if sqrt_domain_ok and not c_nonnegative:
            reasons.append("c < 0")
        overall = "inadmissible"

    return AdmissibilityReport(
        a_real=a_real,
        c_value=coeffs.c,
        c_nonnegative=c_nonnegative,
        k_positive=k_positive,
        energy_subluminal=energy_subluminal,
        sqrt_domain_ok=sqrt_domain_ok,
        origin_subcritical=origin_subcritical,
        scalar_dominance=scalar_dominance,
        overall=overall,
        reasons=tuple(reasons),
    )
