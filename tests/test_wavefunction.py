import math

import numpy as np
import pytest

from kgkratzer import (
    DomainError,
    QuadratureError,
    PotentialParams,
    eval_ground_state,
    normalization,
    residual_report,
    solve_levels,
    wavefunction,
)
from kgkratzer.model import derived_coefficients
from kgkratzer.wavefunction import chi_peak_radius, mismatch_coefficients

COULOMB = PotentialParams(m=1.0, b1=1.0)            # a=0, c=0, k=2 at E=1
MIXED = PotentialParams(m=1.0, a1=5.0, b1=0.5, a2=3.0, b2=0.25)
EQUAL = PotentialParams(m=1.0, b1=0.5, b2=0.5)


def test_ground_state_coulomb_point_values():
    g = eval_ground_state(COULOMB, 1.0, 1.0)
    assert g.chi == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert g.phi == 1.0
    assert g.psi == g.chi
    assert g.w == 0.0          # zero crossing at r = 2*(c+1)^2/k = 1
    assert g.dw == 0.0
    assert chi_peak_radius(0.0, 2.0) == 1.0


def test_ground_state_mixed_point_values():
    # a=1, c=1, k=1 at (m=1, E=0.5, a1=1, b1=0.5)
    params = PotentialParams(m=1.0, a1=1.0, b1=0.5)
    g = eval_ground_state(params, 0.5, 1.0)
    assert g.psi == pytest.approx(math.exp(-1.25), rel=1e-14)
    assert g.dw == -1.0
    assert g.w == pytest.approx(-2.0 + 0.25, rel=1e-15)
    assert g.w_susy == g.w + g.dw


def test_psi_is_exactly_chi_times_phi():
    params = PotentialParams(m=1.0, a1=1.0, b1=0.5)
    for r in (0.3, 1.0, 4.7):
        g = eval_ground_state(params, 0.5, r)
        assert g.psi == g.chi * g.phi


def test_psi_vanishes_at_both_ends():
    params = PotentialParams(m=1.0, a1=1.0, b1=0.5)
    near_origin = eval_ground_state(params, 0.5, 1e-4).psi
    far_out = eval_ground_state(params, 0.5, 400.0).psi
    peak = eval_ground_state(params, 0.5, 4.0).psi
    assert near_origin < 1e-200 < peak
    assert far_out < 1e-30 * peak


def test_ground_state_preconditions():
    with pytest.raises(DomainError):
        eval_ground_state(COULOMB, 1.0, 0.0)
    with pytest.raises(DomainError):
        eval_ground_state(PotentialParams(m=1.0, b1=-1.0), 0.0, 1.0)  # k < 0
    with pytest.raises(DomainError):
        eval_ground_state(PotentialParams(m=1.0, a2=1.0), 0.0, 1.0)   # a imaginary
    with pytest.raises(DomainError):
        # a real but c = -1/2 < 0 (superluminal probe energy)
        eval_ground_state(PotentialParams(m=1.0, a1=0.25, a2=-0.25, b1=1.0), 1.5, 1.0)


def test_equal_manifold_residuals_all_vanish():
    report = residual_report(EQUAL, 0.6, np.geomspace(0.05, 50.0, 40))
    assert report.m3 == 0.0
    assert report.m2 == 0.0
    assert report.on_exact_manifold
    for _, value in report.eq3_samples + report.eq4_samples + report.eq1_samples:
        assert abs(value) < 1e-10


def test_chi_identity_is_unconditional():
    for params, energy in (
        (MIXED, 0.8),
        (PotentialParams(m=1.3, a1=0.7, b1=0.4, a2=0.2, b2=-0.3), 0.55),
        (EQUAL, 0.1),
    ):
        report = residual_report(params, energy, np.geomspace(0.01, 100.0, 50))
        assert report.chi_identity_max < 1e-9


def test_structured_phi_residual_mixed_case():
    report = residual_report(MIXED, 0.8, np.geomspace(0.1, 100.0, 30))
    # M3 = 2*a*c + 2*(a1*b1 - a2*b2) = 8c + 3.5 at these couplings
    assert report.m3 == pytest.approx(30.535463586033317, rel=1e-12)
    assert report.m2 == pytest.approx(-1.466204358798873, rel=1e-12)
    assert report.phi_structure_max < 1e-10
    assert report.quartic_cancellation < 1e-12
    assert not report.on_exact_manifold
    # sign of the consistency value is opposite to the ratio definition
    assert report.c_diagnostic_consistent == pytest.approx(-0.4375, rel=1e-15)


def test_composite_factorization_at_solved_energy():
    levels = [lvl for lvl in solve_levels(MIXED, 0) if lvl.branch == "particle"]
    energy = max(lvl.energy for lvl in levels)
    report = residual_report(MIXED, energy, np.geomspace(0.2, 50.0, 40))
    assert report.composite_factorization_max < 1e-8


def test_mismatch_coefficients_closed_form():
    m3, m2 = mismatch_coefficients(MIXED, 0.8)
    coeff_c = 3.3794329482541646
    assert m3 == pytest.approx(8.0 * coeff_c + 3.5, rel=1e-12)
    assert m2 == pytest.approx(-4.0 * 1.4 / (coeff_c + 1.0) - (0.25 - 0.0625), rel=1e-12)


def test_residual_report_rejects_bad_radius():
    with pytest.raises(DomainError):
        residual_report(EQUAL, 0.6, [1.0, -2.0])


def test_normalization_hydrogenic_exact():
    result = normalization(COULOMB, 1.0)  # c=0, k=2
    assert result.closed_form_integral == 0.25
    assert result.integral == pytest.approx(0.25, rel=1e-8)
    assert result.norm_constant == pytest.approx(2.0, rel=1e-8)


def test_normalization_gamma_c1():
    # c=1, k=2 on the equal manifold probed at E=1: a=0 closed form = 24
    params = PotentialParams(m=1.0, a1=0.5, b1=0.5, a2=0.5, b2=0.5)
    result = normalization(params, 1.0)
    assert result.closed_form_integral == pytest.approx(24.0, rel=1e-14)
    assert result.integral == pytest.approx(24.0, rel=1e-8)
    assert result.norm_constant == pytest.approx(1.0 / math.sqrt(24.0), rel=1e-8)


def test_normalization_refinement_agreement(monkeypatch):
    params = PotentialParams(m=1.0, a1=1.0, b1=0.5)  # a=1, c=1, k=1 at E=0.5
    fine = normalization(params, 0.5)
    monkeypatch.setattr(wavefunction, "_REL_TOLERANCE", 1e-8)
    coarse = normalization(params, 0.5)
    assert math.isfinite(coarse.integral) and coarse.integral > 0
    assert abs(coarse.integral - fine.integral) <= 1e-8 * fine.integral
    assert coarse.error_estimate < 1e-6 * coarse.integral


def test_normalization_splits_at_peak():
    params = PotentialParams(m=1.0, a1=1.0, b1=0.5)
    result = normalization(params, 0.5)
    # peak of psi^2 solves (k/(2(c+1)))*r^2 - (c+1)*r - a = 0
    assert result.peak_radius == pytest.approx(4.0 + 2.0 * math.sqrt(5.0), rel=1e-12)


def test_normalization_rejects_non_integrable():
    with pytest.raises(DomainError):
        normalization(PotentialParams(m=1.0, b1=-0.5), 0.0)  # k < 0


# Bessel value 2(beta/gamma)^(nu/2) K_nu(2 sqrt(beta*gamma)) of a set on which
# the earlier adaptive Simpson rule missed by 2.2e-7 relative.
BESSEL_CASE = PotentialParams(
    m=0.9415216457855116, a1=0.8418166068247241, b1=0.5029485689992929,
    a2=-0.2340218996713619, b2=-0.36454224083941067,
)
BESSEL_ENERGY = 0.9382683753165322
BESSEL_INTEGRAL = 29340.45532668562


def test_normalization_matches_the_bessel_form():
    result = normalization(BESSEL_CASE, BESSEL_ENERGY)
    assert result.closed_form_integral is None
    assert abs(result.integral - BESSEL_INTEGRAL) <= 1e-12 * BESSEL_INTEGRAL


@pytest.mark.parametrize("params, energy, exact", [
    (BESSEL_CASE, BESSEL_ENERGY, BESSEL_INTEGRAL),
    (COULOMB, 1.0, 0.25),
    (PotentialParams(m=1.0, a1=0.5, b1=0.5, a2=0.5, b2=0.5), 1.0, 24.0),
])
def test_normalization_error_estimate_is_honest_and_cheap(params, energy, exact):
    result = normalization(params, energy)
    assert result.error_estimate >= abs(result.integral - exact)
    assert result.error_estimate <= 1e-10 * result.integral
    assert result.evaluations <= 200


def test_normalization_out_of_float_range_raises():
    # c is about 99.5 at E = 0.5: the integral exceeds the largest float.
    with pytest.raises(QuadratureError, match="overflows"):
        normalization(PotentialParams(m=1.0, a1=5000.0, b1=0.5), 0.5)


def test_normalization_gamma_form_beyond_the_gamma_function_range():
    # Gamma(2c+3) alone overflows at c = 90, the normalization integral does not.
    params = PotentialParams(m=1.0, a1=4095.0, b1=5000.0, a2=4095.0, b2=5000.0)
    result = normalization(params, 0.0)  # a = 0, c = 90, k = 1e4
    assert result.closed_form_integral is not None
    assert abs(result.integral - result.closed_form_integral) <= result.error_estimate


def test_normalization_matches_the_gamma_form_on_drawn_sets():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        m=st.floats(0.1, 10.0),
        a1=st.floats(1e-3, 10.0),
        sign=st.sampled_from((1.0, -1.0)),
        b1=st.floats(-5.0, 5.0),
        b2=st.floats(-5.0, 5.0),
        fraction=st.floats(-1.0, 1.0),
    )
    def check(m, a1, sign, b1, b2, fraction):
        # a1 = +-a2 != 0 gives a = 0 with c > 0, where the Gamma form is exact.
        params = PotentialParams(m=m, a1=a1, b1=b1, a2=sign * a1, b2=b2)
        energy = fraction * m
        hypothesis.assume(derived_coefficients(params, energy).k > 1e-3)
        result = normalization(params, energy)
        gap = abs(result.integral - result.closed_form_integral)
        assert gap <= 1e-12 * result.closed_form_integral
        assert result.error_estimate >= gap

    check()
