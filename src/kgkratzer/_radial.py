"""Radial integration kernel of the shooting oracle.

Integrates psi'' = U(r) * psi with

    U(r) = kappa2 + q1/r + q2/r^2 + q3/r^3 + q4/r^4

by the adaptive Dormand-Prince 8(5,3) step (DOP853; Hairer, Norsett & Wanner,
Solving ODEs I, sec. II.10), in pure Python.

The step is written in Nystrom form.  psi' enters only through psi'' = U psi,
so stage i needs psi alone,

    psi_i = psi + c_i h psi' + h^2 sum_k (A^2)_ik f_k,   f_k = U(r + c_k h) psi_k,

and the step ends at psi + h psi' + h^2 (b A) . f and psi' + h b . f.  The 5th-
and 3rd-order error estimates are h^2 (E A) . f for psi and h E . f for psi',
since E5 and E3 each sum to zero.  The literals are A^2, b A, b, E5 A, E5, E3 A
and E3, formed from the 30-digit tableau at 50 digits and rounded once to
double; tools/dop853_nystrom.py prints the stage block below from them.

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
    h = direction * max(abs(r0) * 1e-2, abs(span) * 1e-8)
    nodes = 0
    last_sign = 1.0 if y > 0.0 else (-1.0 if y < 0.0 else 0.0)
    steps = 0
    # U at r; the last stage sits at r + h, so an accepted step hands it on.
    u0 = kappa2 + (q1 + (q2 + (q3 + q4 / r) / r) / r) / r

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

        # Stages 1 to 11 and the step's results, as tools/dop853_nystrom.py
        # prints them; U is evaluated inline at each stage.
        hdy = h * dy
        h2 = h * h
        f0 = u0 * y
        s = r + 0.05260015195876773 * h
        f1 = (kappa2 + (q1 + (q2 + (q3 + q4 / s) / s) / s) / s) * (
            y + 0.05260015195876773 * hdy)
        s = r + 0.0789002279381516 * h
        f2 = (kappa2 + (q1 + (q2 + (q3 + q4 / s) / s) / s) / s) * (
            y + 0.0789002279381516 * hdy + h2 * (0.003112622984346139 * f0))
        s = r + 0.1183503419072274 * h
        f3 = (kappa2 + (q1 + (q2 + (q3 + q4 / s) / s) / s) / s) * (
            y + 0.1183503419072274 * hdy + h2 * (0.0017508504286947032 * f0
                + 0.00525255128608411 * f1))
        s = r + 0.2816496580927726 * h
        f4 = (kappa2 + (q1 + (q2 + (q3 + q4 / s) / s) / s) / s) * (
            y + 0.2816496580927726 * hdy + h2 * (0.009915816237971964 * f0
                - 0.05234336665618131 * f1 + 0.0820908153700972 * f2))
        s = r + 0.3333333333333333 * h
        f5 = (kappa2 + (q1 + (q2 + (q3 + q4 / s) / s) / s) / s) * (
            y + 0.3333333333333333 * hdy + h2 * (0.035337931304886355 * f0
                - 0.09581915952175495 * f2 + 0.11603678377242416 * f3))
        s = r + 0.25 * h
        f6 = (kappa2 + (q1 + (q2 + (q3 + q4 / s) / s) / s) / s) * (
            y + 0.25 * hdy + h2 * (0.018920483189113914 * f0
                - 0.03815245266364541 * f2 + 0.05268745617004205 * f3
                - 0.0022054866955105506 * f4))
        s = r + 0.3076923076923077 * h
        f7 = (kappa2 + (q1 + (q2 + (q3 + q4 / s) / s) / s) / s) * (
            y + 0.3076923076923077 * hdy + h2 * (0.03067021189623757 * f0
                - 0.07975482628537983 * f2 + 0.09799120567724122 * f3
                - 0.0014238754814449106 * f4 - 0.00014543770014516837 * f5))
        s = r + 0.6512820512820513 * h
        f8 = (kappa2 + (q1 + (q2 + (q3 + q4 / s) / s) / s) / s) * (
            y + 0.6512820512820513 * hdy + h2 * (-0.15229089727622042 * f0
                + 0.46966087733519885 * f2 - 0.0681414047027942 * f3
                + 0.010711857531715373 * f4 + 0.3119698547460421 * f5
                - 0.3598261324728635 * f6))
        s = r + 0.6 * h
        f9 = (kappa2 + (q1 + (q2 + (q3 + q4 / s) / s) / s) / s) * (
            y + 0.6 * hdy + h2 * (-0.11020716722377502 * f0 + 0.30128953154727944 * f2
                + 0.07865735349516378 * f3 + 0.030838873981239478 * f4
                - 0.319604147551303 * f5 - 0.6851760518136165 * f6
                + 0.8842016075650119 * f7))
        s = r + 0.8571428571428571 * h
        f10 = (kappa2 + (q1 + (q2 + (q3 + q4 / s) / s) / s) / s) * (
            y + 0.8571428571428571 * hdy + h2 * (0.3721894995071434 * f0
                - 0.5050736261155677 * f2 - 0.46149874648558276 * f3
                - 0.06518509348541916 * f4 + 4.09803840386656 * f5
                + 3.8922102844072395 * f6 - 7.025278165955343 * f7
                + 0.06194438303648046 * f8))
        s = r + h
        u_end = kappa2 + (q1 + (q2 + (q3 + q4 / s) / s) / s) / s
        f11 = u_end * (
            y + hdy + h2 * (-0.7650750098382328 * f0 + 0.8347994820739503 * f2
                + 1.755944144193115 * f3 + 0.23253698859550603 * f4
                + 11.90371935788187 * f5 - 1.9034949405460306 * f6
                - 10.951226401858388 * f7 + 1.3530625395360725 * f8
                - 1.960266160037863 * f9))
        y_new = y + hdy + h2 * (0.054293734116568765 * f0 + 2.9668752618349394 * f5
            + 1.4186384244858752 * f6 - 4.016218126161174 * f7
            + 0.10850859975965002 * f8 - 0.06086437986500643 * f9
            + 0.028766485829147193 * f10)
        v_new = dy + h * (0.054293734116568765 * f0 + 4.450312892752409 * f5
            + 1.8915178993145003 * f6 - 5.801203960010585 * f7
            + 0.3111643669578199 * f8 - 0.1521609496625161 * f9
            + 0.20136540080403034 * f10 + 0.04471061572777259 * f11)
        e5_y = h2 * (-0.18865188001798797 * f0 + 0.9962151331241325 * f3
            + 0.23599761577747436 * f4 - 2.854630682350911 * f5
            - 4.0828088279337065 * f6 + 6.038341535948958 * f7
            + 0.39584534789657555 * f8 - 0.5259249995299615 * f9
            - 0.014383242914573597 * f10)
        e5_v = h * (0.01312004499419488 * f0 - 1.2251564463762044 * f5
            - 0.4957589496572502 * f6 + 1.6643771824549864 * f7
            - 0.35032884874997366 * f8 + 0.3341791187130175 * f9
            + 0.08192320648511571 * f10 - 0.022355307863886294 * f11)
        e3_y = h2 * (-0.4538545734291735 * f0 + 2.6987585022618616 * f3
            + 0.6812767760191379 * f4 - 16.885342816594818 * f5
            - 13.987876814514605 * f6 + 27.96175549233409 * f7
            + 0.3042333850581198 * f8 - 0.3335239499192925 * f9
            + 0.01457399878468182 * f10)
        e3_v = h * (-0.18980075407240762 * f0 + 4.450312892752409 * f5
            + 1.8915178993145003 * f6 - 5.801203960010585 * f7
            - 0.42268232132379197 * f8 - 0.1521609496625161 * f9
            + 0.20136540080403034 * f10 + 0.022651792198360825 * f11)

        # Magnitudes by conditional expressions: cheaper than builtin calls.
        abs_h = h * direction
        abs_y = y if y >= 0.0 else -y
        abs_dy = dy if dy >= 0.0 else -dy
        abs_y_new = y_new if y_new >= 0.0 else -y_new
        abs_v_new = v_new if v_new >= 0.0 else -v_new
        hf0 = h * f0
        ay = abs_y if abs_y > abs_y_new else abs_y_new
        av = abs_dy if abs_dy > abs_v_new else abs_v_new
        scale_y = rtol * (ay + abs_h * av) + 1e-300
        scale_v = rtol * (av + (hf0 if hf0 >= 0.0 else -hf0)) + 1e-300
        # DOP853's error of each component, err5^2 / sqrt(err5^2 + 0.01 err3^2);
        # the step takes the larger.  A stage that overflowed makes err NaN,
        # which fails the acceptance test below and takes the largest shrink.
        e5 = e5_y / scale_y
        e3 = e3_y / scale_y
        den = e5 * e5 + 0.01 * e3 * e3
        err = e5 * e5 / den ** 0.5 if den != 0.0 else 0.0
        e5 = e5_v / scale_v
        e3 = e3_v / scale_v
        den = e5 * e5 + 0.01 * e3 * e3
        err_v = e5 * e5 / den ** 0.5 if den != 0.0 else 0.0
        if err_v > err or err_v != err_v:  # a NaN on either side stays
            err = err_v

        if err <= 1.0:
            r += h
            u0 = u_end
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
            factor = _MAX_GROW if err == 0.0 else _SAFETY * err ** -0.125
            if factor > _MAX_GROW:
                factor = _MAX_GROW
            h *= factor
        else:
            factor = _SAFETY * err ** -0.125
            if not factor >= _MIN_SHRINK:  # NaN included
                factor = _MIN_SHRINK
            h *= factor
            if h * direction < 1e-15 * (r if r >= 0.0 else -r):
                return y, dy, nodes, STATUS_STEP_UNDERFLOW, steps

    return y, dy, nodes, STATUS_OK, steps
