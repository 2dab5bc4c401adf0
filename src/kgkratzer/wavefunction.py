"""Ground-state wavefunction, superpotentials and decomposition residuals.

The full ground state factorizes as psi = chi * phi with

    chi(r) = r^(c+1) * exp(-k*r / (2*(c+1)))     (nonrelativistic factor)
    phi(r) = exp(-a/r)                           (short-range correction)

and superpotentials W = -chi'/chi, dW = -phi'/phi = -a/r^2, W_susy = W + dW
(unit-factor convention: no sqrt(2m) scaling anywhere).

Two residual identities quantify where the factorized spectrum is exact:

* chi identity (unconditional): chi''/chi - [2*(m*V_S + E*V_V) - eps0] == 0
  by construction, so its sampled residual measures pure roundoff.
* phi identity: phi''/phi + 2*(chi'/chi)*(phi'/phi) - (V_S^2 - V_V^2)
  collapses to M3/r^3 + M2/r^2 with

      M3 = 2*a*c + 2*(a1*b1 - a2*b2)
      M2 = -a*k/(c+1) - (b1^2 - b2^2)

  (the 1/r^4 parts cancel identically because a^2 = a1^2 - a2^2).  Both
  coefficients vanish exactly on the V_V = +-V_S manifolds, which is where
  the closed-form spectrum is an exact eigenvalue set; elsewhere M3, M2
  measure the defect.

All residuals are evaluated through logarithmic-derivative algebra (never
numerical differentiation) and are normalized by the largest individual term
entering them at each radius, so the reported numbers are scale-free.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError, QuadratureError
from .model import (
    PotentialParams,
    derived_coefficients,
    negative_radicand,
    out_of_float_range,
    potentials_at,
    refuse_imaginary_a,
    refuse_nonpositive_radius,
)

__all__ = [
    "GroundStateEval",
    "ResidualReport",
    "NormalizationResult",
    "eval_ground_state",
    "residual_report",
    "mismatch_coefficients",
    "normalization",
    "chi_peak_radius",
]

_TINY = 1e-300
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class GroundStateEval:
    """Pointwise ground-state factors and superpotentials at one radius."""

    r: float
    chi: float
    phi: float
    psi: float
    w: float
    dw: float
    w_susy: float


@dataclass(frozen=True)
class ResidualReport:
    """Sampled decomposition residuals plus their closed-form structure.

    Samples hold (r, relative residual).  ``eq1_samples`` stores the
    composite residual per unit wavefunction, i.e. R1(r)/psi(r), normalized
    like the others.  ``chi_identity_max``, ``phi_structure_max`` and
    ``composite_factorization_max`` are the worst deviations of each identity
    from its exact closed form; ``quartic_cancellation`` is the relative
    residue of a^2 - (a1^2 - a2^2).
    """

    m3: float
    m2: float
    eq3_samples: tuple[tuple[float, float], ...]
    eq4_samples: tuple[tuple[float, float], ...]
    eq1_samples: tuple[tuple[float, float], ...]
    on_exact_manifold: bool
    chi_identity_max: float
    phi_structure_max: float
    composite_factorization_max: float
    quartic_cancellation: float
    c_diagnostic_consistent: float | None


def _coefficients_or_raise(params: PotentialParams, energy: float):
    coeffs = derived_coefficients(params, energy)
    refuse_imaginary_a(params)
    if coeffs.c is None:
        raise negative_radicand(coeffs.centrifugal_radicand, energy)
    return coeffs


def _ground_state_akc(params: PotentialParams, energy: float) -> tuple[float, float, float]:
    """a, c and k, where the ground-state factors are defined: c >= 0 and k > 0."""
    coeffs = _coefficients_or_raise(params, energy)
    if coeffs.c < 0.0 or coeffs.k <= 0.0:
        raise DomainError(f"ground state needs c >= 0 and k > 0, got c={coeffs.c}, k={coeffs.k}")
    return coeffs.a, coeffs.c, coeffs.k


def chi_peak_radius(c: float, k: float) -> float:
    """Radius where chi (and, for a = 0, psi) is maximal: 2*(c+1)^2/k."""
    if k <= 0.0:
        raise DomainError(f"peak radius needs k > 0, got k={k}")
    return 2.0 * (c + 1.0) ** 2 / k


def eval_ground_state(params: PotentialParams, energy: float, r: float) -> GroundStateEval:
    """Evaluate chi, phi, psi and the superpotentials at radius r > 0.

    Requires c >= 0 and k > 0, as ``normalization`` does; a = 0 simply
    gives phi == 1.  The factors are unnormalized.  Where a factor or a
    superpotential is too large for a float, DomainError names the radius.
    """
    refuse_nonpositive_radius(r)
    a, c, k = _ground_state_akc(params, energy)

    decay = math.exp(-k * r / (2.0 * (c + 1.0)))
    phi = math.exp(-a / r)
    w = -(c + 1.0) / r + k / (2.0 * (c + 1.0))
    r2 = r * r
    # Below the normal range r^2 keeps too few bits to divide by.
    dw = -a / r2 if r2 >= sys.float_info.min else -(a / r) / r
    try:
        # Where the exponential underflows chi is 0, however large r^(c+1) is.
        chi = r ** (c + 1.0) * decay if decay > 0.0 else 0.0
    except OverflowError:
        chi = math.inf
    if not all(map(math.isfinite, (chi, w, dw, w + dw))):
        raise DomainError(f"the ground state at r={r!r} leaves the float range")
    return GroundStateEval(r=r, chi=chi, phi=phi, psi=chi * phi, w=w, dw=dw, w_susy=w + dw)


def _m3_m2(params: PotentialParams, a: float, c: float, k: float) -> tuple[float, float]:
    m3 = 2.0 * a * c + 2.0 * (params.a1 * params.b1 - params.a2 * params.b2)
    m2 = -a * k / (c + 1.0) - (params.b1 ** 2 - params.b2 ** 2)
    return m3, m2


def mismatch_coefficients(params: PotentialParams, energy: float) -> tuple[float, float]:
    """Closed-form (M3, M2) of the phi-identity defect at (params, energy)."""
    coeffs = _coefficients_or_raise(params, energy)
    return _m3_m2(params, coeffs.a, coeffs.c, coeffs.k)


def residual_report(params: PotentialParams, energy: float, sample_radii) -> ResidualReport:
    """Sample all three decomposition residuals on the given radii.

    The composite samples are meaningful as a factorization check only when
    ``energy`` solves the implicit spectrum equation; the chi and phi
    identities are energy-agnostic.  ``potentials_at`` refuses a radius
    r <= 0, and a term that overflows a float or divides by zero raises
    DomainError naming the radius.
    """
    coeffs = _coefficients_or_raise(params, energy)
    a, c, k = coeffs.a, coeffs.c, coeffs.k
    eps0 = coeffs.epsilon_n
    m, e = params.m, energy
    # The phi-identity defect collapses to M3/r^3 + M2/r^2; M3 = 0 is the
    # consistency condition the ratio definition of c would need, with the
    # opposite sign; 0.0 - x, unlike -x, keeps an exact zero +0.0.
    c_consistent = None if coeffs.c_diagnostic is None else 0.0 - coeffs.c_diagnostic

    r = None  # the radius in work, which an error below names
    try:
        m3, m2 = _m3_m2(params, a, c, k)

        a_sq_target = params.a1 ** 2 - params.a2 ** 2
        quartic = abs(a * a - a_sq_target) / max(a * a, abs(a_sq_target), _TINY)

        eq3, eq4, eq1 = [], [], []
        worst3 = worst4 = worst1 = 0.0
        for r in sample_radii:
            r = float(r)
            v_s, v_v, _ = potentials_at(params, e, r)

            dlchi = (c + 1.0) / r - k / (2.0 * (c + 1.0))
            t_sq = dlchi * dlchi
            t_curv = -(c + 1.0) / (r * r)
            t_pot = 2.0 * (m * v_s + e * v_v)
            t_eps = -eps0
            scale3 = max(abs(t_sq), abs(t_curv), abs(t_pot), abs(t_eps), _TINY)
            rel3 = ((t_sq + t_curv) - (t_pot + t_eps)) / scale3
            eq3.append((r, rel3))
            worst3 = max(worst3, abs(rel3))

            dlphi = a / (r * r)
            u_sq = dlphi * dlphi
            u_curv = -2.0 * a / (r * r * r)
            u_cross = 2.0 * dlchi * dlphi
            v_s2, v_v2 = v_s * v_s, v_v * v_v
            scale4 = max(abs(u_sq), abs(u_curv), abs(u_cross), v_s2, v_v2, _TINY)
            raw4 = (u_sq + u_curv + u_cross) - (v_s2 - v_v2)
            rel4 = raw4 / scale4
            eq4.append((r, rel4))
            structure = m3 / r ** 3 + m2 / r ** 2
            worst4 = max(worst4, abs(raw4 - structure) / scale4)

            dlpsi = dlchi + dlphi
            psi_curv = t_curv + u_curv
            lhs = dlpsi * dlpsi + psi_curv           # psi''/psi
            mass_term = (m + v_s) ** 2
            energy_term = (e - v_v) ** 2
            scale1 = max(abs(dlpsi * dlpsi), abs(psi_curv), mass_term, energy_term, _TINY)
            r1_over_psi = (mass_term - energy_term) - lhs
            eq1.append((r, r1_over_psi / scale1))
            worst1 = max(worst1, abs(r1_over_psi + structure) / scale1)
    except (ZeroDivisionError, OverflowError) as exc:
        where = f"E={energy!r}" if r is None else f"E={energy!r}, r={r!r}"
        raise out_of_float_range(f"residual report at {where}", params, exc) from None

    m3_scale = max(abs(2.0 * a * c), 2.0 * abs(params.a1 * params.b1),
                   2.0 * abs(params.a2 * params.b2), _TINY)
    m2_scale = max(abs(a * k / (c + 1.0)), params.b1 ** 2, params.b2 ** 2, _TINY)
    on_manifold = abs(m3) / m3_scale < 1e-12 and abs(m2) / m2_scale < 1e-12

    return ResidualReport(
        m3=m3,
        m2=m2,
        eq3_samples=tuple(eq3),
        eq4_samples=tuple(eq4),
        eq1_samples=tuple(eq1),
        on_exact_manifold=on_manifold,
        chi_identity_max=worst3,
        phi_structure_max=worst4,
        composite_factorization_max=worst1,
        quartic_cancellation=quartic,
        c_diagnostic_consistent=c_consistent,
    )


def _times_exp(coefficient: float, t: float) -> float:
    """coefficient * e^t for coefficient >= 0, inf beyond the float range."""
    if coefficient == 0.0:
        return 0.0
    try:
        return math.exp(t + math.log(coefficient))
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class NormalizationResult:
    """Normalization integral of psi^2 with its refinement error estimate.

    ``closed_form_integral`` carries Gamma(2c+3) * ((c+1)/k)^(2c+3) whenever
    a = 0, where that closed form is exact; it is the independent cross-check
    of the quadrature.
    """

    integral: float
    norm_constant: float
    error_estimate: float
    closed_form_integral: float | None
    peak_radius: float
    evaluations: int


_REL_TOLERANCE = 1e-10  # relative agreement of two successive trapezoid sums
_TAIL_DROP = 40.0    # each tail stops where exp(g) has fallen below e^-40 of its peak
_MAX_HALVINGS = 10


def normalization(params: PotentialParams, energy: float) -> NormalizationResult:
    """Integral of psi^2 over (0, inf) and the constant N = 1/sqrt(integral).

    With r = e^t the integrand is exp(g(t)), g(t) = (2c+3)*t - 2a*e^(-t) -
    (k/(c+1))*e^t, which is concave and decays double-exponentially (only
    linearly on the left when a = 0), so the plain trapezoid rule converges
    exponentially.  The grid is centred on the peak t* of g with the step
    h = 0.5/sqrt(-g''(t*)); each side is summed outward until g has fallen by
    40 below g(t*).  h is halved, reusing every point, until two successive
    sums agree to 1e-10; ``error_estimate`` is their difference
    plus a bound on the rounding of g.  The sums carry exp(g - g(t*)), and
    exp(g(t*)) is applied once at the end.  An integral outside the float
    range raises ``QuadratureError``, and so does a peak that no grid in t
    resolves: one at no finite radius, or one where the rounding of g
    reaches 1.
    """
    a, c, k = _ground_state_akc(params, energy)

    nu, beta, gamma = 2.0 * c + 3.0, 2.0 * a, k / (c + 1.0)
    evaluations = 0

    def g(t):
        nonlocal evaluations
        evaluations += 1
        try:
            return nu * t - beta * math.exp(-t) - gamma * math.exp(t)
        except OverflowError:  # e^t or e^-t leaves the float range, its product need not
            return nu * t - _times_exp(beta, -t) - _times_exp(gamma, t)

    if not gamma > 0.0:  # k/(c+1) underflows, or c is inf
        raise QuadratureError(
            f"psi^2 has no peak at a finite radius: k/(c+1) = {gamma} (2c+3 = {nu})"
        )
    # Peak of g: x* = e^(t*) is the positive root of gamma*x^2 - nu*x - beta = 0.
    x_peak = (nu + math.sqrt(nu * nu + 4.0 * beta * gamma)) / (2.0 * gamma)
    t_peak = math.log(x_peak)
    # Converged sums differ by rounding alone, so the estimate also carries
    # the rounding of g, whose terms at the peak add up to the sum below.
    # Where it reaches 1, exp(g) keeps no correct digit; below 1, even the
    # finest step, h/2^10 with h = 0.5/sqrt(beta/x* + gamma*x*), still moves t.
    rounding = 4.0 * _EPS * (abs(nu * t_peak) + beta / x_peak + gamma * x_peak)
    if not rounding < 1.0:
        raise QuadratureError(
            f"psi^2 cannot be integrated in floating point: the rounding of its log "
            f"at the peak r = {x_peak} is {rounding} (2c+3 = {nu})"
        )
    g_peak = g(t_peak)

    def tail(offset, step):
        """Sum of exp(g - g_peak) at t_peak + offset + j*step, j = 0, 1, ..."""
        total, t = 0.0, t_peak + offset
        while (drop := g(t) - g_peak) >= -_TAIL_DROP:
            total += math.exp(drop)
            t += step
        return total

    h = 0.5 / math.sqrt(beta / x_peak + gamma * x_peak)
    total = 1.0 + tail(h, h) + tail(-h, -h)
    coarse = h * total
    for _ in range(_MAX_HALVINGS):
        total += tail(0.5 * h, h) + tail(-0.5 * h, -h)
        h *= 0.5
        fine = h * total
        if abs(fine - coarse) <= _REL_TOLERANCE * fine:
            break
        coarse = fine
    else:
        raise QuadratureError(
            f"trapezoid rule did not reach rel_tolerance {_REL_TOLERANCE} "
            f"in {_MAX_HALVINGS} halvings"
        )

    try:
        integral = math.exp(g_peak) * fine
    except OverflowError:
        integral = math.inf
    if not 0.0 < integral < math.inf:
        raise QuadratureError(
            f"psi^2 integral {'overflows' if g_peak > 0.0 else 'underflows'} the "
            f"float range: exp({g_peak}) * {fine}"
        )

    closed = None
    if a == 0.0:
        try:
            closed = math.gamma(nu) * ((c + 1.0) / k) ** nu
        except OverflowError:  # a factor leaves the float range, the product need not
            closed = math.exp(math.lgamma(nu) + nu * math.log((c + 1.0) / k))

    # Peak of psi^2 in r: positive root of (gamma/2)*r^2 - (c+1)*r - a = 0.
    half = c + 1.0
    return NormalizationResult(
        integral=integral,
        norm_constant=1.0 / math.sqrt(integral),
        error_estimate=integral * (abs(fine - coarse) / fine + rounding),
        closed_form_integral=closed,
        peak_radius=(half + math.sqrt(half * half + 2.0 * a * gamma)) / gamma,
        evaluations=evaluations,
    )
