"""The bracketed root search shared by the spectrum and the oracle.

Both narrow a sign change: of f(E) on a cell that holds one root of the
spectrum's polynomial, and of the Pruefer mismatch Delta(E) - n on an
oracle bracket.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError


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
