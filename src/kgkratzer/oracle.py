"""Independent numerical eigen-solver for the full squared wave equation.

The radial problem is integrated as psi'' = U(r) psi with U expanded directly
from the potentials,

    U(r) = (m + V_S)^2 - (E - V_V)^2
         = kappa^2 + q1/r + q2/r^2 + q3/r^3 + q4/r^4,   kappa^2 = m^2 - E^2,

so every local index (origin power, decay rates, turning points) is recomputed
from U itself.  Nothing here consumes the closed-form coefficients of the
analytic spectrum: this module has to be able to falsify them.

The oracle solves in units of m.  With rho = m r and epsilon = E/m,
U(r) = m^2 U_1(rho), where U_1 is U for the couplings (1, a1 m, b1, a2 m, b2),
so psi'' = U psi in r is psi'' = U_1 psi in rho.  Every radius, energy and
tolerance below is one of the reduced problem; only the level found and its
bracket are multiplied back by m.

Eigenvalues are located by two-sided shooting: integrate outward from near the
origin with the asymptotic seed of the regular solution, inward from far
outside the classically allowed region with the decaying seed, and match the
two solutions at an interior radius.  Both sweep directions are
dominance-stable, so seed truncation errors decay as the integration proceeds.

Where U ~ q2/r^2 at the origin (q3 = q4 = 0), the regular solution is the
convergent Frobenius series psi = r^p sum_j t_j, t_0 = 1, and the outward
sweep starts from the summed series at the largest radius where a majorant
of sum_(j>=1) |t_j|, taken over the whole energy bracket, is at most 1/2.
Below it the series sums to at least 1/2 at every energy of the bracket, so
psi has no node there and the node count of the sweep is the count from the
origin.

The match is indexed by the Pruefer angle theta = atan2(psi, psi'), which
grows by pi across every node.  On a fixed geometry the mismatch
Delta(E) = (theta_out - theta_in)/pi at the matching radius is continuous in
E and equals n exactly at the eigenvalue with n nodes (Pryce, Numerical
Solution of Sturm-Liouville Problems, 1993), so one sign test of Delta - n
at the ends of a bracket tells whether it holds that level, and a root
finder on Delta - n converges to it without a scan.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

from ._radial import STATUS_OK, sweep
from ._search import _derivative, _horner, _real_roots, bracketed_search
from .errors import ConvergenceError, DomainError, FallToCenterError, NoBoundStateError
from .model import PotentialParams, in_units_of_m, level_index, origin_power, u_series
from .spectrum import EnergyLevel, select_level, solve_levels

__all__ = [
    "ShootingResult",
    "DeviationReport",
    "kg_match_defect",
    "kg_eigensolve",
    "deviation_report",
]

_TINY = 1e-300
_EPS = sys.float_info.epsilon


# The adaptive controller sets every step from the local error _RTOL, and
# each sweep may take _MAX_STEPS accepted steps.  The origin radius is chosen
# so the decaying origin factor contributes _ORIGIN_EXPONENT e-folds, and
# _domain fixes the outward seed there.  The inward sweep starts at r_max
# from the optimally truncated asymptotic series of the decaying solution,
# whose relative error is about the first term it leaves out,
# e^(-2 kappa r_max) once the series is asymptotic.  The sweep damps it by
# e^(-2 kappa (r_max - r_match)), and r_match <= r_max/4, so at r_match it
# is at most e^(-3.5 kappa r_max).  r_max is where that equals _RTOL,
# kappa r_max = ln(1/_RTOL)/3.5 ~ 6.6, or _PEAK_FACTOR times the
# turning-region scale if that is farther; where the term left out there
# exceeds e^(-2 kappa r), r_max moves out until it, times
# e^(-1.5 kappa r_max), is _RTOL.  Each series sum may take _MAX_TERMS
# terms; a NaN coefficient passes none of their stop tests, so it ends in
# ConvergenceError.
_RTOL = 1e-10
_MAX_STEPS = 200_000
_MAX_TERMS = 1000
_ORIGIN_EXPONENT = 30.0
_PEAK_FACTOR = 3.0


@dataclass(frozen=True)
class ShootingResult:
    """Matched eigenvalue with its shooting diagnostics.

    ``energy`` is the zero of Delta - n interpolated across the final
    ``bracket``, and ``match_defect`` the Wronskian defect interpolated to
    it the same way.  ``node_count`` is the count both ends of the bracket
    carry, or, where they differ, the count of a solution evaluated at the
    level itself.  ``defect_evaluations`` counts every shooting evaluation
    the search made, over all the brackets it tried.
    """

    energy: float
    node_count: int
    match_defect: float
    bracket: tuple[float, float]
    defect_evaluations: int = 0


@dataclass(frozen=True)
class DeviationReport:
    """Closed-form (implicit-equation) level versus the shooting eigenvalue."""

    n: int
    branch: str
    analytic_energy: float
    oracle_energy: float
    deviation: float
    analytic_level: EnergyLevel
    shooting: ShootingResult


@dataclass(frozen=True)
class _Domain:
    r_min: float
    r_start: float
    r_match: float
    r_max: float
    seed: float | None  # psi'/psi at r_start, where it does not depend on E


def _origin_log_deriv(kappa2, q1, q2, r):
    """psi'/psi at r of the regular solution when U ~ q2/r^2 at the origin.

    Sums the Frobenius series psi = r^p sum_j a_j r^j with p = 1/2 +
    sqrt(1/4 + q2), a_0 = 1 and j (2p + j - 1) a_j = q1 a_(j-1) + kappa2 a_(j-2)
    (substitute the series into psi'' = U psi).  No irregular r^(1-p) part
    enters the seed, so none is left to fade as (r_min/r)^(2p-1), a fade
    that stalls as q2 nears the critical -1/4.  The recurrence has three
    terms, so one zero term (a_1 at q1 = 0) does not end the sum: it stops
    when two successive terms fall below an ulp of the sum.  The terms
    t_j = a_j r^j are recurred directly.
    """
    p = 0.5 + math.sqrt(0.25 + q2)
    t1, t2 = 1.0, 0.0          # t_(j-1), t_(j-2)
    total, r_slope = 1.0, 0.0  # sum of t_j, and r times its derivative
    for j in range(1, _MAX_TERMS + 1):
        t = (q1 * t1 + kappa2 * r * t2) * r / (j * (2.0 * p + j - 1.0))
        total += t
        r_slope += j * t
        if abs(t) + abs(t1) <= _EPS * abs(total):
            return (p + r_slope / total) / r
        t1, t2 = t, t1
    raise ConvergenceError(f"origin series at r={r} did not settle in {_MAX_TERMS} terms")


def _tail_log_deriv(kappa, q1, q2, q3, q4, r):
    """psi'/psi at r of the solution that decays at infinity.

    Sums the asymptotic normal series psi ~ e^(-kappa r) r^sigma sum_j c_j r^-j
    with sigma = -q1/(2 kappa), c_0 = 1 and
    2 kappa J c_J = [q2 - (sigma-J+1)(sigma-J)] c_(J-1) + q3 c_(J-2) + q4 c_(J-3)
    (substitute the series into psi'' = U psi; DLMF 13.19 for q3 = q4 = 0).
    The series diverges, so the sum stops before its first term that is no
    smaller than any of the three before it: each term is made from those
    three, so one that cancels to near zero does not end the sum early.  It
    also stops once three successive terms lie below an ulp of the sum.
    The terms t_j = c_j r^-j are recurred directly.  Returns psi'/psi and
    the size of the last term reached, the first one left out or one below
    an ulp of the sum: the seed's relative error.
    """
    sigma = -q1 / (2.0 * kappa)
    t1, t2, t3 = 1.0, 0.0, 0.0  # t_(J-1), t_(J-2), t_(J-3)
    s1, s2, s3 = 1.0, 0.0, 0.0  # and their sizes
    total, r_slope = 1.0, 0.0   # sum of t_j, and r times its derivative
    for j in range(1, _MAX_TERMS + 1):
        t = ((q2 - (sigma - j + 1.0) * (sigma - j)) * t1
             + (q3 * t2 + q4 * t3 / r) / r) / (2.0 * kappa * j * r)
        size = abs(t)
        if size >= s1 and size >= s2 and size >= s3:
            break
        total += t
        r_slope -= j * t
        if size + s1 + s2 <= _EPS * abs(total):
            break
        t1, t2, t3 = t, t1, t2
        s1, s2, s3 = size, s1, s2
    else:
        raise ConvergenceError(
            f"tail series at r={r} did not reach its smallest term in {_MAX_TERMS} terms")
    return -kappa + (sigma + r_slope / total) / r, size


def _start_radius(params: PotentialParams, lo: float, hi: float,
                  r_min: float, r_match: float) -> float:
    """Radius in [r_min, r_match] below which psi has no node at any E in
    [lo, hi], when U ~ q2/r^2 at the origin.

    The terms t_j of the series that _origin_log_deriv sums obey
    |t_j| <= T_j, where T_j follows the same recurrence with |q1| and kappa2
    at their largest over the bracket and p at its smallest (T_0 = 1).  Every
    T_j rises with r, so where sum_(j>=1) T_j <= 1/2 the series sums to at
    least 1/2 at every smaller radius and every energy of the bracket:
    psi = r^p * sum has no node there, and the sum loses only a few ulps to
    rounding.  The radius returned is the largest such one, bisected in
    log r to 1%.
    """
    _, q1_lo, q2_lo, _, _ = u_series(params, lo)
    _, q1_hi, q2_hi, _, _ = u_series(params, hi)
    q1 = max(abs(q1_lo), abs(q1_hi))
    e_near = 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))
    kappa2 = 1.0 - e_near * e_near
    two_p = 1.0 + 2.0 * math.sqrt(max(0.25 + min(q2_lo, q2_hi), 0.0))

    def node_free(r: float) -> bool:
        t1, t2 = 1.0, 0.0  # T_(j-1), T_(j-2)
        total = 0.0        # sum of T_j for j >= 1
        for j in range(1, _MAX_TERMS + 1):
            t = (q1 * t1 + kappa2 * r * t2) * r / (j * (two_p + j - 1.0))
            total += t
            if total > 0.5:
                return False
            if t + t1 <= _EPS * total:
                return True
            t1, t2 = t, t1
        raise ConvergenceError(f"origin majorant at r={r} did not settle in {_MAX_TERMS} terms")

    if node_free(r_match):
        return r_match
    if not node_free(r_min):
        return r_min
    inner, outer = r_min, r_match
    while outer > 1.01 * inner:
        middle = math.sqrt(inner * outer)
        if node_free(middle):
            inner = middle
        else:
            outer = middle
    return inner


def _domain(params: PotentialParams, lo: float, hi: float) -> _Domain:
    """Fix the integration radii for the energy bracket [lo, hi].

    r_min, r_match and r_max come from U at the bracket's centre.  r_match
    is the geometric middle of the radii where U < 0, whose edges are real
    roots of U as a quartic in 1/r, or where U >= 0 throughout, the radius
    of U's minimum.

    r_min and the outward seed follow the power of 1/r that governs U at the
    origin (origin_power).  Under q4/r^4 or q3/r^3 the sweep starts at r_min
    from psi'/psi of the regular solution's leading WKB factor, free of E,
    which ``seed`` holds.  Under q2/r^2 it starts at r_start, below which no
    energy of the bracket has a node (_start_radius), from the Frobenius
    series, which depends on E: ``seed`` is None, and _defect_on_domain sums
    the series (_origin_log_deriv).
    """
    energy = 0.5 * (lo + hi)
    kappa2, q1, q2, q3, q4 = u_series(params, energy)
    if kappa2 <= 0.0:
        raise DomainError(f"shooting needs E^2 < m^2, got E/m={energy}")
    power = origin_power(q2, q3, q4)
    kappa = math.sqrt(kappa2)

    # Outer radius: where the inward seed's error, damped down to r_match,
    # is at most _RTOL (see _RTOL), and beyond the turning region.
    r_turn = 0.0
    if q1 < 0.0:
        r_turn = -q1 / kappa2
    if q2 < 0.0:
        r_turn = max(r_turn, math.sqrt(-q2) / kappa)
    r_tail = max(math.log(1.0 / _RTOL) / (3.5 * kappa), _PEAK_FACTOR * r_turn)
    _, omitted = _tail_log_deriv(kappa, q1, q2, q3, q4, r_tail)
    r_max = max(r_tail, math.log(max(omitted, _RTOL) / _RTOL) / (1.5 * kappa))
    if not r_max < math.inf:
        raise DomainError(f"no finite outer radius at E/m={energy}: U's coefficients overflow")

    # The WKB factors: psi ~ r^(1 + q3/(2 sqrt(q4))) e^(-sqrt(q4)/r) under
    # q4/r^4, psi ~ r^(3/4) e^(-2 sqrt(q3/r)) under q3/r^3.  The cubic seed
    # is written sqrt(q3/r)/r, since r^1.5 underflows to 0 at tiny q3.
    r_cap = 1e-3 * r_max
    if power == 4:
        a_u = math.sqrt(q4)
        r_min = min(a_u / _ORIGIN_EXPONENT, r_cap)
        seed = a_u / (r_min * r_min) + (1.0 + q3 / (2.0 * a_u)) / r_min
    elif power == 3:
        r_min = min(4.0 * q3 / (_ORIGIN_EXPONENT * _ORIGIN_EXPONENT), r_cap)
        seed = 0.75 / r_min + math.sqrt(q3 / r_min) / r_min
    else:
        p = 0.5 + math.sqrt(0.25 + q2)
        b1 = abs(q1) / (2.0 * p)
        r_min = min(1e-3 / (1.0 + b1), 1e-3 / (1.0 + kappa), r_cap)
        seed = None

    # Matching radius: geometric middle of the classically allowed region,
    # where both shooting solutions are large and the Wronskian is best
    # conditioned; fall back to the (clamped) minimum of U if U >= 0.  Both
    # are taken over the radii from r_low to r_max.  In x = 1/r, U is the
    # quartic P(x) = q4 x^4 + q3 x^3 + q2 x^2 + q1 x + kappa2, so the edges
    # of U < 0 are real roots of P, and the minimum of U lies at an end or
    # at a real root of P'.
    r_low = max(r_min, 1e-12)
    quartic = [q4, q3, q2, q1, kappa2]
    x_lo, x_hi = 1.0 / r_max, 1.0 / r_low
    # The ends and the roots of P between them, in rising x and falling r.
    xs = [x_lo, *_real_roots(quartic, x_lo, x_hi), x_hi]
    radii = [r_max, *(1.0 / x for x in xs[1:-1]), r_low]
    negative = [i for i in range(len(xs) - 1)
                if _horner(quartic, 0.5 * (xs[i] + xs[i + 1])) < 0.0]
    if negative:
        inner = max(radii[negative[-1] + 1], 2.0 * r_min)
        outer = radii[negative[0]]
        r_match = math.sqrt(inner * outer)
    else:
        # The ends and the roots of P' between them, in rising r, so that a
        # tie goes to the smallest radius.
        xs = [x_hi, *reversed(_real_roots(_derivative(quartic), x_lo, x_hi)), x_lo]
        radii = [r_low, *(1.0 / x for x in xs[1:-1]), r_max]
        r_match = radii[min(range(len(xs)), key=lambda i: _horner(quartic, xs[i]))]
    r_match = min(max(r_match, 4.0 * r_min), 0.25 * r_max)

    r_start = r_min
    if seed is None:
        r_start = _start_radius(params, lo, hi, r_min, r_match)
    return _Domain(r_min=r_min, r_start=r_start, r_match=r_match, r_max=r_max,
                   seed=seed)


def _defect_on_domain(params, energy, dom: _Domain):
    """Wronskian defect, node count and Pruefer mismatch on a fixed geometry.

    The mismatch is Delta = (theta_out - theta_in)/pi with
    theta_out = nodes_out*pi + (atan2(psi_out, psi_out') mod pi) and
    theta_in = -nodes_in*pi + (atan2(psi_in, psi_in') mod pi): the node
    counts unwrap the angles, so Delta is continuous in E, and it equals the
    node count of the composite solution wherever the two solutions match.
    """
    kappa2, q1, q2, q3, q4 = u_series(params, energy)
    kappa = math.sqrt(kappa2)

    seed = dom.seed
    if seed is None:
        seed = _origin_log_deriv(kappa2, q1, q2, dom.r_start)
    y_out, dy_out, nodes_out, status_out, _ = sweep(
        kappa2, q1, q2, q3, q4,
        dom.r_start, dom.r_match, 1.0, seed, _RTOL, _MAX_STEPS,
    )
    if status_out != STATUS_OK:
        raise ConvergenceError(
            f"outward integration failed (status {status_out}) at E={energy}"
        )

    y_in, dy_in, nodes_in, status_in, _ = sweep(
        kappa2, q1, q2, q3, q4,
        dom.r_max, dom.r_match, 1.0, _tail_log_deriv(kappa, q1, q2, q3, q4, dom.r_max)[0],
        _RTOL, _MAX_STEPS,
    )
    if status_in != STATUS_OK:
        raise ConvergenceError(
            f"inward integration failed (status {status_in}) at E={energy}"
        )

    cross_a = dy_out * y_in
    cross_b = y_out * dy_in
    defect = (cross_a - cross_b) / (abs(cross_a) + abs(cross_b) + _TINY)
    theta_out = nodes_out * math.pi + math.atan2(y_out, dy_out) % math.pi
    theta_in = -nodes_in * math.pi + math.atan2(y_in, dy_in) % math.pi
    return defect, nodes_out + nodes_in, (theta_out - theta_in) / math.pi


def kg_match_defect(params: PotentialParams, energy: float) -> tuple[float, int]:
    """Shooting mismatch at one trial energy.

    The defect is a continuous function of E that changes sign across every
    eigenvalue; the node count is the number of interior zeros of the
    outward/inward composite solution.
    """
    energy /= params.m
    params = in_units_of_m(params)
    dom = _domain(params, energy, energy)
    defect, nodes, _ = _defect_on_domain(params, energy, dom)
    return defect, nodes


# The search narrows every sign change to _FINAL_WIDTH in units of m, and
# may make _MAX_REFINEMENTS trials on one bracket to get there.
_FINAL_WIDTH = 1e-8
_MAX_REFINEMENTS = 200


def _clip(params: PotentialParams, bracket: tuple[float, float]) -> tuple[float, float]:
    """Clip a bracket to (-1, 1) less 1e-9 and to subcritical energies.

    Of U's origin coefficients only q2 depends on E, and linearly, so the
    supercritical energies form a half-line: cut the bracket where q2 crosses
    -1/4.  Raises FallToCenterError when no energy of the bracket is left.
    """
    lo = max(min(bracket), -1.0 + 1e-9)
    hi = min(max(bracket), 1.0 - 1e-9)
    if not lo < hi:
        raise DomainError(f"bracket {bracket} (in units of m) does not intersect (-1, 1)")
    _, _, q2_lo, q3, q4 = u_series(params, lo)
    q2_hi = u_series(params, hi)[2]
    if origin_power(max(q2_lo, q2_hi), q3, q4) == 2 and min(q2_lo, q2_hi) <= -0.25:
        e_critical = lo + (-0.25 - q2_lo) * (hi - lo) / (q2_hi - q2_lo)
        if q2_lo > -0.25:
            hi = e_critical - 1e-9
        else:
            lo = e_critical + 1e-9
        if not lo < hi:
            raise FallToCenterError(
                f"inverse-square coefficient <= -1/4 at the origin for all of "
                f"the bracket but a sliver at E={e_critical}"
            )
    return lo, hi


def _converge(params, n, dom, a, b, seen, evaluations):
    """Narrow the sign change of Delta - n on [a, b] to _FINAL_WIDTH,
    starting at the midpoint (callers centre their brackets on their
    estimate of the level), and check the node count of the level found.
    A bracket no wider than that takes no trial.

    ``seen`` holds (defect, nodes, Delta) at every energy already evaluated
    on ``dom``, a and b among them; the trials are added to it.  Across the
    final bracket Delta and the defect are linear to far below its width, so
    the level E* and its defect are interpolated from the bracket's ends,
    and where both ends carry n nodes so does E*.  Only where they differ
    is E* evaluated, for its node count.  ``evaluations`` counts the defect
    evaluations already spent on the search; the result reports them
    together with the trials and any node check.
    """
    def excess(e: float) -> float:
        seen[e] = _defect_on_domain(params, e, dom)
        return seen[e][2] - n

    a, b, g_a, g_b, trials = bracketed_search(
        excess, a, b, seen[a][2] - n, seen[b][2] - n, 0.5 * (a + b), _FINAL_WIDTH,
        _MAX_REFINEMENTS)
    evaluations += trials

    (defect_a, nodes_a, _), (defect_b, nodes_b, _) = seen[a], seen[b]
    e_star, defect_star = a, defect_a
    if a != b:
        e_star = a - g_a * (b - a) / (g_b - g_a)
        defect_star = defect_a - g_a * (defect_b - defect_a) / (g_b - g_a)
    if not nodes_a == nodes_b == n:
        defect_star, nodes_star, _ = _defect_on_domain(params, e_star, dom)
        evaluations += 1
        if nodes_star != n:
            raise ConvergenceError(
                f"Pruefer mismatch matched n={n} at E={e_star}, "
                f"but the solution there has {nodes_star} nodes"
            )
    return ShootingResult(
        energy=e_star,
        node_count=n,
        match_defect=defect_star,
        bracket=(a, b),
        defect_evaluations=evaluations,
    )


def _shared_span(params, brackets, lo, hi):
    """The energies searched on the geometry of the first of ``brackets``,
    clipped to [lo, hi]: the unclipped brackets that follow an unclipped
    one share its geometry (see _search), so its start radius must hold
    on the widest of them too."""
    if (lo, hi) == brackets[0]:
        for wider in brackets[1:]:
            if _clip(params, wider) != wider:
                break
            lo, hi = min(lo, wider[0]), max(hi, wider[1])
    return lo, hi


def _search(params, n, brackets) -> ShootingResult | None:
    """The n-node level in the first of ``brackets`` that holds it, or None.

    Each bracket is clipped to subcritical energies and gets the geometry of
    its centre, which keeps the mismatch continuous in E across it.  Delta - n
    is evaluated at both ends; a bracket without a sign change holds no n-node
    level.  Delta rises with E where E > V_V and falls where E < V_V (the
    antiparticle side), so only the sign change is used, not its direction.
    A bracket with the same centre as the empty one before it keeps that
    bracket's geometry and end values and searches only the outer shell that
    holds the sign change.  An empty bracket no wider than the final width
    is the exception: it only confirms a level taken to be at its centre,
    and the bracket after it is searched whole, from its centre, as if the
    empty one had not been tried: the search of its outer shell would start
    half its half-width from that centre.  The search runs in units of m
    (see the module docstring); the level and its bracket are returned in
    the caller's units.
    """
    m = params.m
    params = in_units_of_m(params)
    brackets = [(lo / m, hi / m) for lo, hi in brackets]
    evaluations = 0
    empty = None  # (lo, hi) of an empty bracket on dom
    for i, centred in enumerate(brackets):
        lo, hi = _clip(params, centred)
        if empty is None or (lo, hi) != centred:
            # A clipped bracket has its own centre, so its own geometry.
            empty = None
            dom = _domain(params, *_shared_span(params, brackets[i:], lo, hi))
            seen = {}  # (defect, nodes, Delta) at each energy evaluated on dom
        for energy in (lo, hi):
            seen[energy] = _defect_on_domain(params, energy, dom)
        evaluations += 2
        g_lo = seen[lo][2] - n
        if g_lo * (seen[hi][2] - n) <= 0.0:
            a, b = lo, hi
            if empty is not None:
                # The inner bracket, on the same geometry, holds no sign
                # change, so the outer shell on one side holds it.
                in_lo, in_hi = empty
                if g_lo * (seen[in_lo][2] - n) <= 0.0:
                    b = in_lo
                else:
                    a = in_hi
            result = _converge(params, n, dom, a, b, seen, evaluations)
            a, b = result.bracket
            return replace(result, energy=m * result.energy, bracket=(m * a, m * b))
        if (lo, hi) == centred and hi - lo > _FINAL_WIDTH:
            empty = (lo, hi)
    return None


def kg_eigensolve(
    params: PotentialParams, n: int, bracket: tuple[float, float]
) -> ShootingResult | None:
    """Search one energy bracket for the eigenvalue with exactly n nodes.

    The Pruefer mismatch minus n is evaluated at both ends of the bracket
    (clipped to subcritical energies); without a sign change there is no
    n-node eigenvalue inside, and the result is None after exactly those two
    evaluations (this is a result, not a failure).  Otherwise the search
    tries the bracket midpoint, then interpolates through the latest trials
    (Brent, Algorithms for Minimization without Derivatives, 1973), keeping
    the sign change bracketed until it spans at most 1e-8*m.  Raises
    ConvergenceError when an integration or the refinement breaks down, or
    when the refined solution does not carry n nodes.
    """
    return _search(params, level_index(n), [bracket])


def deviation_report(
    params: PotentialParams, n: int, branch: str = "particle"
) -> DeviationReport:
    """Compare the implicit-equation level against the shooting eigenvalue.

    The shooting search is seeded with the bracket E +- 0.4*(m - |E|) around
    the closed-form value E and widened geometrically until the eigenvalue
    is captured.  A widened bracket with the same centre keeps the geometry
    and the end values of the empty bracket inside it, and searches only the
    outer shell that holds the sign change; the defect evaluations of every
    bracket tried are counted in the result.

    Where the couplings lie exactly on V_V = +-V_S, (a2, b2) = +-(a1, b1)
    in float equality, the paper's level is exact.  There a bracket of the
    final width, E +- 0.45e-8*m, goes in front of the others, on their
    geometry; it holds the level, so its two ends give the level and its
    match_defect, and the solve takes 2 defect evaluations.  Where it
    misses, it costs those 2 and the search goes on as above.  Failures
    are labeled by their source ("analytic:" for the implicit solve,
    "oracle:" for the shooting solve).
    """
    try:
        level = select_level(solve_levels(params, n), branch)
    except (DomainError, ConvergenceError) as exc:
        raise type(exc)(f"analytic: {exc}") from exc
    if level is None:
        raise NoBoundStateError(f"analytic: no {branch} level exists at n={n}")
    e_analytic = level.energy

    # Half-widths 0.4*(m - |E|)*2^i, at most six and none wider than 2m.
    m = params.m
    widths = (0.4 * (m - abs(e_analytic)) * 2.0 ** i for i in range(6))
    brackets = [(e_analytic - w, e_analytic + w) for w in widths if w <= 2.0 * m]
    if (params.a2, params.b2) in ((params.a1, params.b1), (-params.a1, -params.b1)):
        # 0.45, not 0.5: the width must stay within _FINAL_WIDTH once
        # _search has divided the ends by m and rounded them.
        half = 0.45 * _FINAL_WIDTH * m
        brackets.insert(0, (e_analytic - half, e_analytic + half))
    try:
        result = _search(params, n, brackets)
    except (DomainError, ConvergenceError) as exc:
        raise type(exc)(f"oracle: {exc}") from exc
    if result is None:
        raise NoBoundStateError(
            f"oracle: no {n}-node eigenvalue found near E={e_analytic}"
        )
    return DeviationReport(
        n=n,
        branch=branch,
        analytic_energy=e_analytic,
        oracle_energy=result.energy,
        deviation=abs(e_analytic - result.energy),
        analytic_level=level,
        shooting=result,
    )
