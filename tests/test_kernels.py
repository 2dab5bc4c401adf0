"""Checks and bitwise pins of the radial integration kernel."""

import math

import pytest

from kgkratzer._radial import (
    STATUS_OK,
    STATUS_STEP_BUDGET,
    STATUS_STEP_UNDERFLOW,
    kernel_backend,
    sweep,
)

# U-series for the equal-coupling reference problem at E = 0.58.
REF = dict(kappa2=1.0 - 0.58 ** 2, q1=-2.0 * (0.5 + 0.58 * 0.5), q2=0.0, q3=0.0, q4=0.0)


def _sweep_with(**kw):
    args = dict(REF)
    args.update(kw)
    return sweep(
        args["kappa2"], args["q1"], args["q2"], args["q3"], args["q4"],
        args["r0"], args["r1"], args["y"], args["dy"],
        args["rtol"], args["max_steps"],
    )


def test_python_kernel_basic_sweep():
    # No step count is asserted: the error controller alone sets the steps,
    # and it crosses this smooth span in a few dozen.
    y, dy, nodes, status, steps = _sweep_with(
        r0=1e-3, r1=2.0, y=1.0, dy=1.0 / 1e-3, rtol=1e-10, max_steps=10 ** 6,
    )
    assert status == STATUS_OK
    assert nodes == 0
    assert y > 0.0


def test_renormalization_keeps_sign_and_nodes():
    # kappa^2 = 4 over a 200-length span overflows e^400 without rescaling
    y, dy, nodes, status, steps = _sweep_with(
        kappa2=4.0, q1=0.0, r0=1.0, r1=200.0, y=1.0, dy=2.0,
        rtol=1e-10, max_steps=10 ** 6,
    )
    assert status == STATUS_OK
    assert nodes == 0
    assert 0.0 < y < 1e150
    assert abs(dy) < 1e150


def test_step_budget_status():
    _, _, _, status, steps = _sweep_with(
        r0=1e-3, r1=2.0, y=1.0, dy=1e3, rtol=1e-12, max_steps=10,
    )
    assert status == STATUS_STEP_BUDGET
    assert steps == 10


def test_overflowing_stages_shrink_the_step():
    # With U = 1e200 the stages of every step longer than ~1e-100 overflow to
    # inf or NaN: each such step is rejected, never accepted with a NaN.
    y, dy, nodes, status, steps = _sweep_with(
        kappa2=1e200, q1=0.0, r0=1.0, r1=2.0, y=1.0, dy=0.0,
        rtol=1e-10, max_steps=1000,
    )
    assert status == STATUS_STEP_UNDERFLOW
    assert (y, dy, nodes, steps) == (1.0, 0.0, 0, 0)


def test_active_backend_reported():
    assert kernel_backend() == "python"


def _mixed_u_series(energy):
    # a1 = 0.5, b1 = 0.5, a2 = 0.3, b2 = 0.2, m = 1: q4 > 0 at the origin.
    return (1.0 - energy * energy, -2.0 * (0.5 + energy * 0.2),
            2.0 * (0.5 + energy * 0.3) + 0.25 - 0.04,
            -2.0 * (0.25 - 0.06), 0.25 - 0.09)


def _pinned_sweeps():
    kappa2, q1, q2, q3, q4 = _mixed_u_series(0.95)
    a_u = math.sqrt(q4)
    r_min = a_u / 30.0
    log_deriv = a_u / (r_min * r_min) + (1.0 + q3 / (2.0 * a_u)) / r_min
    outward = sweep(kappa2, q1, q2, q3, q4, r_min, 20.0, 1.0, log_deriv,
                    1e-10, 200000)

    kappa2, q1 = 1.0 - 0.95 ** 2, -2.0 * (0.5 + 0.95 * 0.5)
    kappa = math.sqrt(kappa2)
    inward = sweep(kappa2, q1, 0.0, 0.0, 0.0, 150.0, 0.05, 1.0,
                   -kappa + (-q1 / (2.0 * kappa)) / 150.0, 1e-10, 200000)

    renormalized = _sweep_with(
        kappa2=4.0, q1=0.0, r0=1.0, r1=200.0, y=1.0, dy=2.0,
        rtol=1e-10, max_steps=10 ** 6,
    )
    budget = _sweep_with(
        r0=1e-3, r1=2.0, y=1.0, dy=1e3, rtol=1e-12, max_steps=10,
    )
    return outward, inward, renormalized, budget


def test_python_kernel_pinned_bitwise():
    # Exact (psi, dpsi, nodes, status, steps) of the DOP853 kernel as
    # recorded: a rewrite of the inner loop must reproduce every bit.
    assert _pinned_sweeps() == (
        (-3142471041578147.5, -527788298064773.0, 1, STATUS_OK, 119),
        (-21027338605620.555, 528783839744767.1, 3, STATUS_OK, 145),
        (5.304623382175016e+32, 1.0609246764350033e+33, 0, STATUS_OK, 1152),
        (14.998086300905076, 977.8200409322692, 0, STATUS_STEP_BUDGET, 10),
    )


def _one_step_error(h):
    # psi'' = -psi from r = 100 to 100 + h.  The first step, |r0|/100, is
    # longer than the span, so one step crosses it; rtol = 1e3 accepts it.
    r1 = 100.0 + h
    y, dy, _, status, steps = sweep(-1.0, 0.0, 0.0, 0.0, 0.0, 100.0, r1, math.sin(100.0),
                                    math.cos(100.0), 1e3, 10 ** 6)
    assert (status, steps) == (STATUS_OK, 1)
    return max(abs(y - math.sin(r1)), abs(dy - math.cos(r1)))


def test_halving_the_step_shows_eighth_order():
    # The local error of an 8th-order step is O(h^9), so halving h shrinks
    # it by ~2^9; a 5th-order step's by ~2^6.  One mistyped coefficient
    # drops the order.
    assert _one_step_error(0.8) >= 2 ** 8 * _one_step_error(0.4)


@pytest.mark.parametrize("k", [0.5, 3.7, 50.0, 200.0])
@pytest.mark.parametrize("phase", [0.4, 1.9, 2.9])
@pytest.mark.parametrize("r0, r1", [(1.0, 11.0), (11.0, 1.0)])
def test_node_count_of_a_free_wave(k, phase, r0, r1):
    # With U = -k^2, psi = sin(k (r - r0) + phase), and the sweep must count
    # every zero between r0 and r1 however few steps it takes.
    _, _, nodes, status, _ = sweep(-k * k, 0.0, 0.0, 0.0, 0.0, r0, r1, math.sin(phase),
                                   k * math.cos(phase), 1e-10, 10 ** 6)
    end = phase + k * (r1 - r0)
    assert status == STATUS_OK
    assert nodes == abs(math.floor(end / math.pi) - math.floor(phase / math.pi))
