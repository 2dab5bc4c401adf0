import math
import random

import pytest

from kgkratzer import (
    DomainError,
    FallToCenterError,
    PotentialParams,
    admissibility,
    derived_coefficients,
    model,
    oracle,
    potentials_at,
    solve_levels,
    spectrum,
)


def test_params_require_positive_finite_mass():
    with pytest.raises(DomainError):
        PotentialParams(m=0.0)
    with pytest.raises(DomainError):
        PotentialParams(m=-1.0)
    with pytest.raises(DomainError):
        PotentialParams(m=float("nan"), b1=0.5)
    with pytest.raises(DomainError):
        PotentialParams(m=1.0, b2=float("inf"))


def test_coulomb_reduction():
    params = PotentialParams(m=1.0, b1=1.0)
    coeffs = derived_coefficients(params, energy=1.0, n=0)
    assert coeffs.a == 0.0
    assert coeffs.c == 0.0
    assert coeffs.k == 2.0
    assert coeffs.epsilon_n == -1.0
    assert coeffs.c_diagnostic is None  # a = 0: ratio definition undefined


def test_perfect_square_radicand_gives_exact_c():
    params = PotentialParams(m=1.0, a1=1.0, b1=0.5)
    coeffs = derived_coefficients(params, energy=0.5)
    assert coeffs.a == 1.0
    assert coeffs.c == 1.0  # radicand 2.25 is a perfect square
    assert coeffs.k == 1.0


def test_mixed_coupling_coefficients():
    params = PotentialParams(m=1.0, a1=5.0, b1=0.5, a2=3.0, b2=0.25)
    coeffs = derived_coefficients(params, energy=0.8)
    assert coeffs.a == 4.0  # 3-4-5 triple
    assert math.isclose(coeffs.c, 3.3794329482541646, rel_tol=1e-12)
    assert math.isclose(coeffs.k, 1.4, rel_tol=1e-15)
    # c solves the quadratic c*(c+1) = 2*(m*a1 + E*a2) = 14.8
    assert math.isclose(coeffs.c * (coeffs.c + 1.0), 14.8, rel_tol=1e-12)
    assert coeffs.c_diagnostic == pytest.approx(0.4375, rel=1e-15)


def test_centrifugal_quadratic_identity_randomized():
    rng = random.Random(42)
    for _ in range(500):
        m = rng.uniform(0.5, 2.0)
        a1 = rng.uniform(0.0, 2.0)
        a2 = rng.uniform(-a1, a1) if a1 else 0.0
        energy = rng.uniform(-m, m)
        params = PotentialParams(m=m, a1=a1, a2=a2)
        coeffs = derived_coefficients(params, energy)
        target = 2.0 * (m * a1 + energy * a2)
        assert coeffs.c is not None
        assert abs(coeffs.c * (coeffs.c + 1.0) - target) <= 1e-12 * max(abs(target), 1.0)
        if coeffs.a is not None:
            a_sq = a1 * a1 - a2 * a2
            assert abs(coeffs.a ** 2 - a_sq) <= 1e-14 * max(a_sq, 1.0)


def test_undefined_quantities_are_none_not_nan():
    params = PotentialParams(m=1.0, a1=0.0, a2=1.0)
    coeffs = derived_coefficients(params, energy=-0.5)
    assert coeffs.a is None          # a1^2 < a2^2
    assert coeffs.c is None          # radicand 0.25 - 1 < 0
    assert coeffs.epsilon_n is None
    assert not coeffs.a_defined and not coeffs.c_defined


_PARAMS = PotentialParams(m=1.0, b1=0.5)


@pytest.mark.parametrize("entry", [
    pytest.param(lambda n: derived_coefficients(_PARAMS, 0.5, n=n), id="derived_coefficients"),
    pytest.param(lambda n: spectrum.spectrum_residual(_PARAMS, n, 0.5), id="spectrum_residual"),
    pytest.param(lambda n: solve_levels(_PARAMS, n), id="solve_levels"),
    pytest.param(lambda n: spectrum.closed_form(_PARAMS, n, "coulomb_general"),
                 id="closed_form"),
    pytest.param(lambda n: spectrum.approx_energy(PotentialParams(m=1.0, b1=0.5, b2=0.5), n,
                                                  "equal_series"), id="approx_energy"),
    pytest.param(lambda n: oracle.kg_eigensolve(_PARAMS, n, (0.5, 0.99)), id="kg_eigensolve"),
    # c = 0 here, so n = -1 puts a zero in the old denominator n + c + 1.
    pytest.param(lambda n: spectrum.nonrel_epsilon(_PARAMS, 0.5, n), id="nonrel_epsilon"),
])
def test_level_index_validation(entry):
    for n in (-1, 1.5):
        with pytest.raises(DomainError):
            entry(n)


def test_energy_must_be_finite():
    with pytest.raises(DomainError):
        derived_coefficients(_PARAMS, float("nan"))


def test_potentials_direct_substitution():
    params = PotentialParams(m=1.0, a1=1.0, b1=2.0)
    v_s, _, _ = potentials_at(params, 0.0, 1.0)
    assert v_s == -1.0


def test_scalar_potential_vertex():
    params = PotentialParams(m=1.0, a1=1.0, b1=1.0)
    v_s, _, _ = potentials_at(params, 0.0, 2.0)  # minimum at r = 2*a1/b1
    assert v_s == -0.25
    for r in (1.5, 2.5):
        assert potentials_at(params, 0.0, r)[0] > -0.25


def test_equal_potentials_squares_cancel():
    params = PotentialParams(m=1.0, b1=0.5, b2=0.5)
    v_s, v_v, v_eff = potentials_at(params, 0.6, 1.0)
    assert v_s == v_v == -0.5
    assert v_eff == pytest.approx(-1.6, rel=1e-15)


def test_potentials_scaling_homogeneity():
    rng = random.Random(7)
    for _ in range(50):
        lam = rng.uniform(0.1, 10.0)
        a1, b1 = rng.uniform(0, 2), rng.uniform(-1, 1)
        r = rng.uniform(0.05, 20.0)
        base = PotentialParams(m=1.0, a1=a1, b1=b1)
        scaled = PotentialParams(m=1.0, a1=lam * lam * a1, b1=lam * b1)
        v_base = potentials_at(base, 0.0, r)[0]
        v_scaled = potentials_at(scaled, 0.0, lam * r)[0]
        assert v_scaled == pytest.approx(v_base, rel=1e-12, abs=1e-15)


def test_potentials_reject_nonpositive_radius():
    params = PotentialParams(m=1.0)
    with pytest.raises(DomainError):
        potentials_at(params, 0.0, 0.0)
    with pytest.raises(DomainError):
        potentials_at(params, 0.0, -1.0)


def test_admissibility_imaginary_a_inadmissible():
    params = PotentialParams(m=1.0, a1=0.0, a2=1.0)
    for energy in (-0.5, 0.0, 0.5):
        report = admissibility(params, energy)
        assert not report.a_real
        assert report.overall == "inadmissible"
        assert any("a imaginary" in reason for reason in report.reasons)


def test_admissibility_superluminal_energy():
    params = PotentialParams(m=1.0, b1=0.5, b2=0.25)
    report = admissibility(params, 1.2)
    assert not report.energy_subluminal
    assert report.overall == "inadmissible"


@pytest.mark.parametrize("m", [1e-170, 1e160])
def test_admissibility_window_at_extreme_masses(m):
    # E^2 and m^2 underflow at m = 1e-170 and overflow at m = 1e160; the
    # window test must not square them.
    unit = PotentialParams(m=1.0, b1=0.5)
    params = PotentialParams(m=m, b1=0.5)
    assert admissibility(params, 0.5 * m) == admissibility(unit, 0.5)
    assert admissibility(params, 0.5 * m).energy_subluminal
    assert not admissibility(params, -1.5 * m).energy_subluminal


def test_admissibility_equal_coulomb_boundary():
    params = PotentialParams(m=1.0, b1=0.5, b2=0.5)
    report = admissibility(params, 0.6)
    assert report.k_positive
    assert report.c_value == 0.0
    assert report.overall == "boundary"


def test_admissibility_radicand_zero_is_boundary():
    # 1/4 + 2*(m*a1 + E*a2) = 0 puts c at -1/2 exactly, outside c > 0 and at
    # the closed end of the boundary window.
    exact = admissibility(PotentialParams(m=1.0, a1=-0.125, b1=0.5), 0.5)
    level = admissibility(
        PotentialParams(m=0.6803775192179047, a1=-0.2650206959900866,
                        b1=0.42607903102997047, a2=0.22083695798305997,
                        b2=0.10541048409726628),
        0.25047493945003846,
    )
    for report in (exact, level):
        assert report.c_value == -0.5
        assert not report.c_nonnegative
        assert report.overall == "boundary"
        assert report.reasons == ("c = -1/2 exactly",)


def test_admissibility_strictly_admissible_case():
    params = PotentialParams(m=1.0, a1=5.0, b1=0.5, a2=3.0, b2=0.25)
    report = admissibility(params, 0.8)
    assert report.overall == "admissible"
    assert report.reasons == ()


def test_scalar_dominance_is_advisory_only():
    # Pure scalar coupling violates |b1| < |b2| yet can be admissible.
    params = PotentialParams(m=1.0, a1=1.0, b1=0.5)
    report = admissibility(params, 0.8)
    assert not report.scalar_dominance
    assert report.overall == "admissible"


def test_supercritical_origin_is_inadmissible():
    # The README's --b1 0.6 --b2 0.8 example: c = 0 from the paper's index,
    # but the full equation's 1/r^2 coefficient b1^2 - b2^2 = -0.28 < -1/4.
    params = PotentialParams(m=1.0, b1=0.6, b2=0.8)
    (level,) = [lvl for lvl in solve_levels(params, 0) if lvl.branch == "particle"]
    report = level.admissibility
    assert report.c_value == 0.0
    assert not report.origin_subcritical
    assert report.overall == "inadmissible"
    with pytest.raises(FallToCenterError) as guard:
        oracle._domain(params, level.energy, level.energy)
    assert report.reasons == (str(guard.value),)


@pytest.mark.parametrize("q2, q3, q4, power", [
    (-3.0, -2.0, 1e-300, 4),   # any repulsive 1/r^4 term governs
    (-3.0, 1e-300, 0.0, 3),    # else any repulsive 1/r^3 term
    (-0.2499, 0.0, 0.0, 2),    # else the inverse square, subcritical
])
def test_origin_power_names_the_governing_term(q2, q3, q4, power):
    assert model.origin_power(q2, q3, q4) == power


@pytest.mark.parametrize("q2, q3, q4, message", [
    (1.0, 1.0, -0.5,
     "U ~ -0.5/r^4 at the origin: attractive inverse-quartic, fall to center"),
    (1.0, -0.5, 0.0,
     "U ~ -0.5/r^3 at the origin: attractive inverse-cube, fall to center"),
    (-0.25, 0.0, 0.0,
     "inverse-square coefficient -0.25 <= -1/4 at the origin: "
     "no self-adjoint ground state"),
])
def test_origin_power_rejects_each_supercritical_origin(q2, q3, q4, message):
    with pytest.raises(FallToCenterError) as guard:
        model.origin_power(q2, q3, q4)
    assert str(guard.value) == message


def test_admissible_verdict_means_the_oracle_can_start_at_the_origin():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coupling = st.floats(-1.0, 1.0, allow_subnormal=False)

    # a2 = +-a1 leaves U without a 1/r^4 term, where the 1/r^3 and 1/r^2
    # terms decide whether the origin is subcritical.
    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        m=st.floats(0.5, 2.0),
        a1=st.one_of(st.just(0.0), coupling),
        b1=coupling,
        tie=st.sampled_from((1.0, -1.0, None)),
        free_a2=coupling,
        b2=coupling,
        fraction=st.floats(-0.999, 0.999),
    )
    def check(m, a1, b1, tie, free_a2, b2, fraction):
        a2 = free_a2 if tie is None else tie * a1
        params = PotentialParams(m=m, a1=a1, b1=b1, a2=a2, b2=b2)
        energy = fraction * m
        if admissibility(params, energy).overall in ("admissible", "boundary"):
            oracle._domain(params, energy, energy)

    check()


def test_admissibility_is_deterministic():
    params = PotentialParams(m=1.0, a1=5.0, b1=0.5, a2=3.0, b2=0.25)
    assert admissibility(params, 0.8) == admissibility(params, 0.8)
