"""The numerics shared by the spectrum and the oracle.

Both narrow a sign change by the bracketed search: of f(E) on a cell that
holds one root of the spectrum's polynomial, and of the Pruefer mismatch
Delta(E) - n on an oracle bracket.  Both find the real roots of a
polynomial in plain floats: the spectrum's sextic and its critical points,
and the oracle's U as a quartic in 1/r, whose roots are U's turning points.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError

# Newton steps allowed to one root of a polynomial on a monotone interval.
_NEWTON_STEPS = 100


def _next_trial(xs, gs, a: float, b: float, tol: float) -> float:
    """Next trial inside the bracket [a, b] of a sign change of g.

    xs, gs hold the latest three trials, oldest first; the newest, xs[-1],
    is always an end of the bracket.  Inverse quadratic interpolation through
    them (the secant through the latest two when two g agree) falls back to
    bisection when it leaves the bracket or does not halve the step before
    last (Brent's bound on slow progress), and stays tol/4 inside the ends.
    A step shorter than tol/2 is lengthened to tol/2 towards the other end,
    so the bracket also collapses from the side the steps approach it from.
    The g are first scaled by a power of two to a largest magnitude in
    [1/2, 1): that leaves every interpolant's bits as they are, but keeps
    products of two g from underflowing where g itself is tiny.
    """
    (x0, x1, x2), (g0, g1, g2) = xs, gs
    _, exponent = math.frexp(max(abs(g0), abs(g1), abs(g2)))
    g0, g1, g2 = (math.ldexp(g0, -exponent), math.ldexp(g1, -exponent),
                  math.ldexp(g2, -exponent))
    if g0 != g1 and g0 != g2 and g1 != g2:
        e = (x0 * g1 * g2 / ((g0 - g1) * (g0 - g2))
             + x1 * g0 * g2 / ((g1 - g0) * (g1 - g2))
             + x2 * g0 * g1 / ((g2 - g0) * (g2 - g1)))
    elif g1 != g2:
        e = x2 - g2 * (x2 - x1) / (g2 - g1)
    else:
        e = a  # no interpolant: bisect
    if not (a < e < b and abs(e - x2) < 0.5 * abs(x1 - x0)):
        e = 0.5 * (a + b)
    e = min(max(e, a + 0.25 * tol), b - 0.25 * tol)
    if abs(e - x2) < 0.5 * tol:
        e = x2 + 0.5 * tol if x2 == a else x2 - 0.5 * tol
    return e


def bracketed_search(g, a, b, g_a, g_b, first, tol, max_steps):
    """Narrow the sign change of g on [a, b] until b - a <= tol (Brent,
    Algorithms for Minimization without Derivatives, 1973).

    g_a, g_b are g at the ends, of opposite signs or zero; an end where g is
    zero collapses the bracket onto it.  The first trial is ``first``, the
    caller's best estimate of the root; later trials come from _next_trial.
    A trial is made only while b - a > tol, and at most ``max_steps`` of
    them: a bracket still wider than tol after the last raises
    ConvergenceError.  Returns the final (a, b, g_a, g_b, evaluations of g).
    """
    if g_a == 0.0:
        b, g_b = a, g_a
    elif g_b == 0.0:
        a, g_a = b, g_b
    xs, gs = [a, b], [g_a, g_b]
    e = first
    evaluations = 0
    while b - a > tol:
        if evaluations == max_steps:
            raise ConvergenceError(
                f"sign change on [{a}, {b}] not narrowed to {tol} in {max_steps} steps"
            )
        g_e = g(e)
        evaluations += 1
        if g_e == 0.0:
            return e, e, g_e, g_e, evaluations
        if (g_e > 0.0) == (g_b > 0.0):
            b, g_b = e, g_e
        else:
            a, g_a = e, g_e
        xs, gs = xs[-2:] + [e], gs[-2:] + [g_e]
        e = _next_trial(xs, gs, a, b, tol)
    return a, b, g_a, g_b, evaluations


def _horner(coefficients: list[float], x: float) -> float:
    value = 0.0
    for c in coefficients:
        value = value * x + c
    return value


def _derivative(coefficients: list[float]) -> list[float]:
    degree = len(coefficients) - 1
    return [c * (degree - i) for i, c in enumerate(coefficients[:-1])]


def _monotone_root(coefficients: list[float], a: float, b: float,
                   p_a: float, p_b: float) -> float:
    """The root of a polynomial monotone on [a, b] whose end values p_a, p_b
    differ in sign: Newton from the secant point, kept inside the shrinking
    bracket by bisection, until its step falls to the rounding of x or the
    bracket does (where rounding noise in p keeps the step above it)."""
    tol = 4e-16 * max(abs(a), abs(b))
    x = a - p_a * (b - a) / (p_b - p_a)
    rising = p_a < 0.0
    for _ in range(_NEWTON_STEPS):
        p = dp = 0.0
        for c in coefficients:
            dp = dp * x + p
            p = p * x + c
        if p == 0.0:
            return x
        step = p / dp if dp != 0.0 else math.inf
        if -tol <= step <= tol:
            return min(max(x - step, a), b)
        if (p < 0.0) == rising:
            a = x
        else:
            b = x
        if b - a <= tol:
            return x
        x -= step
        if not a < x < b:
            x = 0.5 * (a + b)
    return x


def _real_roots(coefficients: list[float], lo: float, hi: float) -> list[float]:
    """Sorted real roots inside (lo, hi) of the polynomial with these
    coefficients, highest power first.

    Leading zeros are dropped.  A constant, the zero polynomial included,
    has no isolated root.  Degrees 1 and 2 are solved in closed form, the
    quadratic without cancellation.  Above that, the roots of the derivative
    cut (lo, hi) into intervals on which the polynomial is monotone, each
    holding at most one root: the root of an interval whose ends differ in
    sign, or an interior cut where the polynomial is exactly zero (a
    multiple root).
    """
    start = 0
    while start < len(coefficients) and coefficients[start] == 0.0:
        start += 1
    c = coefficients[start:]
    degree = len(c) - 1
    if degree <= 0:
        return []
    if degree == 1:
        roots = [-c[1] / c[0]]
    elif degree == 2:
        disc = c[1] * c[1] - 4.0 * c[0] * c[2]
        if disc < 0.0:
            return []
        q = -0.5 * (c[1] + math.copysign(math.sqrt(disc), c[1]))
        roots = sorted((q / c[0], c[2] / q)) if q != 0.0 else [0.0]
    else:
        roots = []
        a, p_a = lo, _horner(c, lo)
        for b in (*_real_roots(_derivative(c), lo, hi), hi):
            p_b = _horner(c, b)
            if p_a * p_b < 0.0:
                roots.append(_monotone_root(c, a, b, p_a, p_b))
            elif p_b == 0.0 and b != hi:
                roots.append(b)
            a, p_a = b, p_b
    return [x for x in roots if lo < x < hi]
