"""Radial integration kernel of the shooting oracle.

Integrates psi'' = U(r) * psi with

    U(r) = kappa2 + q1/r + q2/r^2 + q3/r^3 + q4/r^4

by an adaptive embedded Cash-Karp 4(5) step, in pure Python.  The test suite
pins the exact output of several sweeps, so a rewrite of the inner loop must
keep every floating-point operation in the same order.

Conventions the caller relies on:
* the returned derivative is always d(psi)/dr, regardless of sweep direction;
* renormalization divides the state by a positive scale, so node counts and
  the sign of the Wronskian survive;
* node_count is the number of strict sign changes of accepted psi values.
"""

from __future__ import annotations

STATUS_OK = 0
STATUS_STEP_UNDERFLOW = 1
STATUS_STEP_BUDGET = 2

_RENORM_LIMIT = 1e140
_SAFETY = 0.9
_MIN_SHRINK = 0.2
_MAX_GROW = 5.0


def kernel_backend() -> str:
    """Name of the integration kernel; always "python"."""
    return "python"


def u_eval(kappa2: float, q1: float, q2: float, q3: float, q4: float, r: float) -> float:
    """Effective potential of the squared wave equation at radius r."""
    return kappa2 + (q1 + (q2 + (q3 + q4 / r) / r) / r) / r


def sweep(
    kappa2: float,
    q1: float,
    q2: float,
    q3: float,
    q4: float,
    r0: float,
    r1: float,
    y: float,
    dy: float,
    h_max: float,
    rtol: float,
    max_steps: int,
):
    """March (psi, psi') from r0 to r1; r1 < r0 integrates inward.

    Returns (psi, dpsi, node_count, status, steps).
    """
    span = r1 - r0
    if span == 0.0:
        return y, dy, 0, STATUS_OK, 0
    direction = 1.0 if span > 0.0 else -1.0
    done_eps = 5e-16 * (abs(r0) + abs(r1))

    r = r0
    h = direction * min(h_max, max(abs(r0) * 1e-2, abs(span) * 1e-8))
    nodes = 0
    last_sign = 1.0 if y > 0.0 else (-1.0 if y < 0.0 else 0.0)
    steps = 0

    while (r1 - r) * direction > done_eps:
        if steps >= max_steps:
            return y, dy, nodes, STATUS_STEP_BUDGET, steps
        remaining = r1 - r
        # h and remaining both carry the sign of direction, so multiplying by
        # direction takes their magnitudes exactly.
        if h * direction > remaining * direction:
            h = remaining
        if r + h == r:
            return y, dy, nodes, STATUS_STEP_UNDERFLOW, steps

        # u_eval inlined at each stage, with its operations in the same order.
        u1 = kappa2 + (q1 + (q2 + (q3 + q4 / r) / r) / r) / r
        k1y = dy
        k1v = u1 * y

        r2 = r + 0.2 * h
        y2 = y + h * 0.2 * k1y
        v2 = dy + h * 0.2 * k1v
        u2 = kappa2 + (q1 + (q2 + (q3 + q4 / r2) / r2) / r2) / r2
        k2y = v2
        k2v = u2 * y2

        r3 = r + 0.3 * h
        y3 = y + h * (0.075 * k1y + 0.225 * k2y)
        v3 = dy + h * (0.075 * k1v + 0.225 * k2v)
        u3 = kappa2 + (q1 + (q2 + (q3 + q4 / r3) / r3) / r3) / r3
        k3y = v3
        k3v = u3 * y3

        r4 = r + 0.6 * h
        y4 = y + h * (0.3 * k1y - 0.9 * k2y + 1.2 * k3y)
        v4 = dy + h * (0.3 * k1v - 0.9 * k2v + 1.2 * k3v)
        u4 = kappa2 + (q1 + (q2 + (q3 + q4 / r4) / r4) / r4) / r4
        k4y = v4
        k4v = u4 * y4

        r5 = r + h
        y5 = y + h * (-0.2037037037037037 * k1y + 2.5 * k2y
                      - 2.5925925925925926 * k3y + 1.2962962962962963 * k4y)
        v5 = dy + h * (-0.2037037037037037 * k1v + 2.5 * k2v
                       - 2.5925925925925926 * k3v + 1.2962962962962963 * k4v)
        u5 = kappa2 + (q1 + (q2 + (q3 + q4 / r5) / r5) / r5) / r5
        k5y = v5
        k5v = u5 * y5

        r6 = r + 0.875 * h
        y6 = y + h * (0.029495804398148147 * k1y + 0.341796875 * k2y
                      + 0.041594328703703706 * k3y + 0.40034541377314814 * k4y
                      + 0.061767578125 * k5y)
        v6 = dy + h * (0.029495804398148147 * k1v + 0.341796875 * k2v
                       + 0.041594328703703706 * k3v + 0.40034541377314814 * k4v
                       + 0.061767578125 * k5v)
        u6 = kappa2 + (q1 + (q2 + (q3 + q4 / r6) / r6) / r6) / r6
        k6y = v6
        k6v = u6 * y6

        y_new = y + h * (0.0978835978835979 * k1y + 0.4025764895330113 * k3y
                         + 0.21043771043771045 * k4y + 0.2891022021456804 * k6y)
        v_new = dy + h * (0.0978835978835979 * k1v + 0.4025764895330113 * k3v
                          + 0.21043771043771045 * k4v + 0.2891022021456804 * k6v)
        y_low = y + h * (0.10217737268518519 * k1y + 0.38390790343915343 * k3y
                         + 0.24459273726851852 * k4y + 0.019321986607142856 * k5y
                         + 0.25 * k6y)
        v_low = dy + h * (0.10217737268518519 * k1v + 0.38390790343915343 * k3v
                          + 0.24459273726851852 * k4v + 0.019321986607142856 * k5v
                          + 0.25 * k6v)

        # Magnitudes by conditional expressions: cheaper than builtin calls.
        # A -0.0 where abs gives 0.0 compares equal and vanishes in the
        # 1e-300 floor, so every result keeps its bits.
        abs_h = h * direction
        abs_y = y if y >= 0.0 else -y
        abs_dy = dy if dy >= 0.0 else -dy
        abs_y_new = y_new if y_new >= 0.0 else -y_new
        abs_v_new = v_new if v_new >= 0.0 else -v_new
        hk1v = h * k1v
        err_y = y_new - y_low
        err_v = v_new - v_low
        ay = abs_y if abs_y > abs_y_new else abs_y_new
        av = abs_dy if abs_dy > abs_v_new else abs_v_new
        scale_y = rtol * (ay + abs_h * av) + 1e-300
        scale_v = rtol * (av + (hk1v if hk1v >= 0.0 else -hk1v)) + 1e-300
        err = (err_y if err_y >= 0.0 else -err_y) / scale_y
        err_2 = (err_v if err_v >= 0.0 else -err_v) / scale_v
        if err_2 > err:
            err = err_2

        if err <= 1.0:
            r += h
            steps += 1
            new_sign = 1.0 if y_new > 0.0 else (-1.0 if y_new < 0.0 else 0.0)
            if new_sign != 0.0:
                if last_sign != 0.0 and new_sign != last_sign:
                    nodes += 1
                last_sign = new_sign
            y, dy = y_new, v_new
            big = abs_y_new if abs_y_new > abs_v_new else abs_v_new
            if big > _RENORM_LIMIT:
                y /= big
                dy /= big
            factor = _MAX_GROW if err == 0.0 else _SAFETY * err ** -0.2
            if factor > _MAX_GROW:
                factor = _MAX_GROW
            h *= factor
            if h * direction > h_max:
                h = direction * h_max
        else:
            factor = _SAFETY * err ** -0.2
            if factor < _MIN_SHRINK:
                factor = _MIN_SHRINK
            h *= factor
            abs_r = r if r >= 0.0 else -r
            if h * direction < 1e-15 * (abs_r if abs_r > 1e-30 else 1e-30):
                return y, dy, nodes, STATUS_STEP_UNDERFLOW, steps

    return y, dy, nodes, STATUS_OK, steps
