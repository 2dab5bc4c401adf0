import decimal
import math
import random

import numpy as np
import pytest

from kgkratzer import (
    ConvergenceError,
    DomainError,
    PotentialParams,
    StructuralConstraintError,
    approx_energy,
    closed_form,
    nonrel_epsilon,
    solve_levels,
    solve_spectrum,
    spectrum,
    spectrum_residual,
)
from kgkratzer._search import _next_trial, bracketed_search

SQRT2 = math.sqrt(2.0)


def particle_energies(levels):
    return [lvl.energy for lvl in levels if lvl.branch == "particle"]


def test_residual_vanishing_couplings():
    params = PotentialParams(m=1.0, b2=1.0)
    assert spectrum_residual(params, 0, 0.0) == -1.0


def test_residual_zero_at_vector_coulomb_root():
    params = PotentialParams(m=1.0, b2=1.0)
    assert abs(spectrum_residual(params, 0, 1.0 / SQRT2)) < 1e-12


def test_residual_nonnegative_at_mass_boundary():
    for params in (
        PotentialParams(m=1.0, b1=0.3, b2=0.7),
        PotentialParams(m=1.0, a1=1.0, b1=0.5),
        PotentialParams(m=1.0, a1=0.5, a2=0.5, b1=0.2, b2=0.6),
    ):
        assert spectrum_residual(params, 0, params.m) >= 0.0


def test_residual_domain_error():
    params = PotentialParams(m=1.0, a2=1.0)
    with pytest.raises(DomainError):
        spectrum_residual(params, 0, -0.5)  # radicand 1 + 8E < 0


def test_pure_vector_coulomb_pair():
    params = PotentialParams(m=1.0, b2=1.0)
    levels = solve_levels(params, 0)
    assert len(levels) == 2
    neg, pos = levels
    assert pos.energy == pytest.approx(1.0 / SQRT2, abs=1e-9)
    assert neg.energy == pytest.approx(-1.0 / SQRT2, abs=1e-9)
    assert pos.branch == "particle"
    assert neg.branch == "antiparticle"


def test_coulomb_general_roots_and_branches():
    params = PotentialParams(m=1.0, b1=0.6, b2=0.8)
    levels = solve_levels(params, 0)
    assert len(levels) == 2
    neg, pos = levels
    assert pos.energy == pytest.approx(0.39717734749907076, abs=1e-9)
    assert neg.energy == pytest.approx(-0.98254320115760734, abs=1e-9)
    # k(E) = 2*(0.6 + E*0.8) is negative at the lower root
    assert neg.branch == "antiparticle"
    assert pos.branch == "particle"


def test_equal_coulomb_single_admissible_root():
    params = PotentialParams(m=1.0, b1=0.5, b2=0.5)
    levels = solve_levels(params, 0)
    assert len(levels) == 1
    assert levels[0].energy == pytest.approx(0.6, abs=1e-9)
    assert levels[0].branch == "particle"
    assert levels[0].admissibility.overall == "boundary"  # a = c = 0 exactly


def test_spectrum_equal_three_levels():
    params = PotentialParams(m=1.0, b1=0.5, b2=0.5)
    run = solve_spectrum(params, 2)
    assert run.failures == ()
    energies = [run.table[(n, "particle")][0].energy for n in range(3)]
    expected = (0.6, 0.88235294117647059, 0.94594594594594595)
    for got, want in zip(energies, expected):
        assert got == pytest.approx(want, abs=1e-9)
    assert energies == sorted(energies)
    assert all(e < params.m for e in energies)


@pytest.mark.parametrize("n_max", [2.5, -1])
def test_spectrum_rejects_an_n_max_that_is_no_level_index(n_max):
    # int() would truncate 2.5 and run n = 0..2 without a word.
    with pytest.raises(DomainError, match="level index"):
        solve_spectrum(PotentialParams(m=1.0, b1=0.5, b2=0.5), n_max)


def test_no_bound_states_without_coulomb_term():
    for a1, a2 in ((0.0, 0.0), (1.0, 0.0), (1.0, 0.5)):
        params = PotentialParams(m=1.0, a1=a1, a2=a2)
        assert solve_levels(params, 0) == []
        assert solve_spectrum(params, 2).table == {}


def test_pure_scalar_symmetric_pair():
    params = PotentialParams(m=1.0, b1=0.5)
    levels = solve_levels(params, 0)
    assert [lvl.energy for lvl in levels] == pytest.approx(
        [-0.86602540378443865, 0.86602540378443865], abs=1e-9
    )
    # scalar-only coupling keeps k = 2*m*b1 > 0 at both roots
    assert {lvl.branch for lvl in levels} == {"particle"}


def test_back_substitution_invariant():
    tolerance = spectrum._ROOT_TOLERANCE
    for params in (
        PotentialParams(m=1.0, b1=0.6, b2=0.8),
        PotentialParams(m=1.5, a1=1.2, b1=0.4, a2=-0.3, b2=0.5),
        PotentialParams(m=1.0, a1=5.0, b1=0.5, a2=3.0, b2=0.25),
    ):
        for n in range(3):
            for lvl in solve_levels(params, n):
                assert lvl.residual < tolerance
                assert abs(lvl.energy) < params.m
                assert abs(spectrum_residual(params, n, lvl.energy)) < tolerance


def test_partial_radicand_domain_is_split():
    # radicand 1 + 8*E*a2 turns negative inside (-m, m); the scan must stay
    # on the valid side and still find the states there.
    params = PotentialParams(m=1.0, a2=0.5, b1=0.5)
    levels = solve_levels(params, 0)
    assert levels, "expected a root on the valid subinterval"
    for lvl in levels:
        assert 1.0 + 8.0 * lvl.energy * params.a2 >= 0.0


def test_root_next_to_radicand_boundary():
    # The valid interval ends where the radicand crosses zero; rounding makes
    # it -4.4e-16 there, and the root in the last scan cell must survive.
    params = PotentialParams(m=0.880349382770468, a1=0.5153775736808409,
                             b1=-1.1053328306387669, a2=-0.9885305893184859,
                             b2=-0.0453924072737637)
    levels = solve_levels(params, 1)
    assert len(levels) == 2
    assert abs(levels[1].energy - 0.58522485301686) < 1e-12


def test_equal_manifold_monotone_energies():
    params = PotentialParams(m=1.0, a1=0.5, b1=0.5, a2=0.5, b2=0.5)
    energies = []
    for n in range(4):
        roots = particle_energies(solve_levels(params, n))
        assert len(roots) == 1
        energies.append(roots[0])
    assert all(e2 > e1 for e1, e2 in zip(energies, energies[1:]))
    assert all(e < params.m for e in energies)


def test_closed_form_pure_scalar():
    params = PotentialParams(m=1.0, b1=0.5)
    result = closed_form(params, 0, "pure_scalar")
    assert sorted(result.energies) == pytest.approx(
        [-0.86602540378443865, 0.86602540378443865], rel=1e-15
    )


def test_closed_form_opposite():
    params = PotentialParams(m=1.0, b1=0.5, b2=-0.5)
    result = closed_form(params, 0, "opposite")
    assert list(result) == pytest.approx([-0.6], rel=1e-15)


def test_closed_form_coulomb_general():
    params = PotentialParams(m=1.0, b1=0.6, b2=0.8)
    result = closed_form(params, 0, "coulomb_general")
    assert sorted(result.energies) == pytest.approx(
        [-0.98254320115760734, 0.39717734749907076], rel=1e-13
    )


def test_closed_form_equal_matches_quadratic_fraction():
    for n in range(4):
        nu = float(n + 1)
        params = PotentialParams(m=1.0, b1=0.5, b2=0.5)
        (energy,) = closed_form(params, n, "equal").energies
        assert energy == pytest.approx(
            (nu ** 2 - 0.25) / (nu ** 2 + 0.25), rel=1e-15
        )


def test_closed_form_filters_out_of_window_roots():
    params = PotentialParams(m=1.0, b1=0.9, b2=-0.9)
    result = closed_form(params, 0, "coulomb_general")
    assert all(abs(e) < 1.0 for e in result.energies)
    assert result.notes  # the E = m root is reported, not silently dropped


def test_closed_form_structural_constraints():
    with pytest.raises(StructuralConstraintError):
        closed_form(PotentialParams(m=1.0, a1=0.1, b1=0.5), 0, "coulomb_general")
    with pytest.raises(StructuralConstraintError):
        closed_form(PotentialParams(m=1.0, b1=0.5, b2=0.1), 0, "pure_scalar")
    with pytest.raises(StructuralConstraintError):
        closed_form(PotentialParams(m=1.0, b1=0.5, b2=0.4), 0, "equal")
    with pytest.raises(StructuralConstraintError):
        closed_form(PotentialParams(m=1.0, a1=0.5, a2=0.5, b1=0.5, b2=0.5), 0, "equal")
    with pytest.raises(StructuralConstraintError):
        closed_form(PotentialParams(m=1.0, b1=0.5), 0, "no_such_case")


def test_closed_forms_are_zeros_of_the_implicit_equation():
    cases = (
        (PotentialParams(m=1.0, b1=0.3, b2=0.7), "coulomb_general"),
        (PotentialParams(m=1.0, a1=1.5, b1=0.8), "pure_scalar"),
        (PotentialParams(m=1.0, b2=0.45), "pure_vector_coulomb"),
        (PotentialParams(m=1.0, b1=0.7, b2=0.7), "equal"),
        (PotentialParams(m=1.0, b1=0.7, b2=-0.7), "opposite"),
    )
    for params, case in cases:
        for n in range(4):
            for energy in closed_form(params, n, case):
                assert abs(spectrum_residual(params, n, energy)) < 1e-10


def test_closed_forms_are_zeros_of_f_and_levels_of_the_solver():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coupling = st.floats(-1.5, 1.5, allow_subnormal=False)

    @hypothesis.settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        case=st.sampled_from(spectrum.CLOSED_FORM_CASES),
        m=st.floats(0.5, 2.0),
        a1=st.floats(-1.0 / 16.0, 2.0),  # 1 + 8*m*a1 >= 0 for m <= 2
        b1=coupling,
        b2=coupling,
        n=st.integers(0, 3),
    )
    def check(case, m, a1, b1, b2, n):
        params = PotentialParams(m=m, **{
            "coulomb_general": {"b1": b1, "b2": b2},
            "pure_scalar": {"a1": a1, "b1": b1},
            "pure_vector_coulomb": {"b2": b2},
            "equal": {"b1": b1, "b2": b1},
            "opposite": {"b1": b1, "b2": -b1},
        }[case])
        levels = [lvl.energy for lvl in solve_levels(params, n)]
        for energy in closed_form(params, n, case):
            assert abs(spectrum_residual(params, n, energy)) <= 1e-12 * m * m
            if abs(energy) < m - 1e-9 * m:
                assert min(abs(energy - level) for level in levels) <= 1e-10 * m

    check()


def test_series_pure_vector():
    params = PotentialParams(m=1.0, a2=0.1, b2=0.2)
    assert approx_energy(params, 0, "pure_vector_series") == pytest.approx(
        0.98611111111111111, rel=1e-15
    )


def test_series_equal_vs_exact():
    params = PotentialParams(m=1.0, b1=0.1, b2=0.1)
    series = approx_energy(params, 0, "equal_series")
    assert series == pytest.approx(0.98, rel=1e-15)
    (exact,) = closed_form(params, 0, "equal").energies
    assert exact == pytest.approx(0.9801980198019802, rel=1e-15)
    assert abs(series - exact) < 3e-4


def test_series_opposite_verbatim():
    params = PotentialParams(m=1.0, b1=SQRT2, b2=-SQRT2)
    # coefficient cancellation: 2*(n+1)^2/b1^2 = 1 forces zero
    assert abs(approx_energy(params, 0, "opposite_series")) < 1e-12
    (exact,) = closed_form(params, 0, "opposite").energies
    assert exact == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_series_opposite_rejects_zero_coupling():
    params = PotentialParams(m=1.0)
    with pytest.raises(DomainError):
        approx_energy(params, 0, "opposite_series")


def test_nonrel_epsilon_values():
    # c = 0, k = 2 at (m=1, E=1, b1=1)
    assert nonrel_epsilon(PotentialParams(m=1.0, b1=1.0), 1.0, 0) == -1.0
    # c = 1, k = 1 at (m=1, E=0.5, a1=1, b1=0.5)
    params = PotentialParams(m=1.0, a1=1.0, b1=0.5)
    assert nonrel_epsilon(params, 0.5, 0) == pytest.approx(-0.0625, rel=1e-15)
    values = [nonrel_epsilon(params, 0.5, n) for n in range(6)]
    assert all(v < 0 for v in values)
    assert values == sorted(values)  # increases toward zero from below


def test_convergence_error_on_tiny_budget(monkeypatch):
    params = PotentialParams(m=1.0, b1=0.5, b2=0.5)
    monkeypatch.setattr(spectrum, "_MAX_ITERATIONS", 1)
    with pytest.raises(ConvergenceError):
        solve_levels(params, 0)
    # solve_spectrum records per-level failures instead of raising
    run = solve_spectrum(params, 1)
    assert len(run.failures) == 2


def test_search_converging_on_its_last_allowed_trial_succeeds(monkeypatch):
    # The default solve of this level narrows its cell in exactly 2 trials.
    params = PotentialParams(m=1.0, b1=0.5, b2=0.5)
    default = solve_levels(params, 0)[0]
    monkeypatch.setattr(spectrum, "_MAX_ITERATIONS", 2)
    (level,) = solve_levels(params, 0)
    assert level.iterations == 2
    assert level == default


def test_search_collapses_onto_an_end_where_g_vanishes():
    def never(e):
        raise AssertionError(f"g evaluated at {e}")

    assert bracketed_search(never, 0.3, 1.0, 0.0, 0.7, 0.5, 1e-9, 50) == (0.3, 0.3, 0.0, 0.0, 0)


def test_next_trial_takes_the_secant_where_two_g_agree():
    # g0 = g1 leaves no inverse quadratic: the secant through the latest two.
    e = _next_trial([-1.0, 0.5, 1.0], [-1.0, -1.0, 2.0], 0.5, 1.0, 1e-3)
    assert e == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_next_trial_bisects_without_an_interpolant():
    # g1 = g2 leaves neither interpolant: the midpoint of the bracket.
    assert _next_trial([0.0, 0.9, 1.0], [-1.0, 2.0, 2.0], 0.0, 1.0, 1e-3) == 0.5


def test_levels_of_a_badly_scaled_polynomial_are_polished():
    # With a2 = 1e-12 the polynomial has a pair of roots near -8.5e11, and
    # the candidate for the upper level, 4e-6 below the window's top, is
    # 8e-7 off: the cell around it must still be found and polished on f.
    params = PotentialParams(m=0.9094436158201368, a1=0.94505995975458,
                             b1=-1.4167334466057717, a2=1e-12,
                             b2=1.408214584975382)
    levels = solve_levels(params, 1)
    assert len(levels) == 2
    assert abs(levels[0].energy - -0.560905995428118) < 1e-12
    assert abs(levels[1].energy - 0.9094396950074799) < 1e-12


def _dense_scan_roots(params, n, points=20001):
    # Independent reference: f on a uniform grid over the solver's window,
    # each sign change narrowed by bisection far below a grid cell.
    m, a1, b1, a2, b2 = params.m, params.a1, params.b1, params.a2, params.b2
    base = 1.0 + 8.0 * m * a1
    lo, hi = -m + 1e-9 * m, m - 1e-9 * m
    if a2 > 0.0:
        lo = max(lo, -base / (8.0 * a2))
    elif a2 < 0.0:
        hi = min(hi, -base / (8.0 * a2))
    elif base < 0.0:
        return [], 0.0

    def f(e):
        s = np.sqrt(np.maximum(base + 8.0 * e * a2, 0.0))
        return e * e - m * m + 4.0 * (m * b1 + e * b2) ** 2 / (2.0 * n + 1.0 + s) ** 2

    grid = np.linspace(lo, hi, points) if lo < hi else np.empty(0)
    values = f(grid)
    i = np.nonzero((values[:-1] <= 0.0) != (values[1:] <= 0.0))[0]
    a, b, f_a = grid[i], grid[i + 1], values[i]
    for _ in range(80):
        mid = 0.5 * (a + b)
        f_mid = f(mid)
        left = (f_mid <= 0.0) == (f_a <= 0.0)
        a, b, f_a = np.where(left, mid, a), np.where(left, b, mid), np.where(left, f_mid, f_a)
    return (0.5 * (a + b)).tolist(), (hi - lo) / (points - 1)


def test_levels_match_an_independent_dense_scan():
    rng = random.Random(20261018)
    checked = 0
    for _ in range(150):
        params = PotentialParams(
            m=rng.uniform(0.5, 2.0), a1=rng.uniform(0.0, 2.0),
            b1=rng.uniform(-1.5, 1.5), a2=rng.uniform(-2.0, 2.0),
            b2=rng.uniform(-1.5, 1.5),
        )
        for n in range(3):
            reference, cell = _dense_scan_roots(params, n)
            if any(b - a < 10.0 * cell for a, b in zip(reference, reference[1:])):
                continue  # a near-tangent pair: the grid cannot resolve it
            energies = [lvl.energy for lvl in solve_levels(params, n)]
            assert len(energies) == len(reference), (params, n)
            for got, want in zip(energies, reference):
                assert abs(got - want) < 1e-12 * params.m, (params, n)
            checked += len(reference)
    assert checked > 300


def test_levels_match_a_dense_scan_for_any_couplings():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        m=st.floats(0.5, 2.0), a1=st.floats(0.0, 2.0), b1=st.floats(-1.5, 1.5),
        a2=st.floats(-2.0, 2.0), b2=st.floats(-1.5, 1.5), n=st.integers(0, 2),
    )
    def check(m, a1, b1, a2, b2, n):
        params = PotentialParams(m=m, a1=a1, b1=b1, a2=a2, b2=b2)
        reference, cell = _dense_scan_roots(params, n)
        # A near-tangent pair is below what the grid can resolve.
        hypothesis.assume(all(b - a >= 10.0 * cell for a, b in zip(reference, reference[1:])))
        energies = [lvl.energy for lvl in solve_levels(params, n)]
        assert len(energies) == len(reference)
        for got, want in zip(energies, reference):
            assert abs(got - want) < 1e-12 * m

    check()


def _from_roots(roots, scale=1.0):
    coefficients = [scale]
    for root in roots:
        coefficients = [*coefficients, 0.0]
        for i in range(len(coefficients) - 1, 0, -1):
            coefficients[i] -= root * coefficients[i - 1]
    return coefficients


@pytest.mark.parametrize("roots, tolerance", [
    ((-0.75, -0.1, 0.3, 0.85, 1.7), 1e-15),
    ((-0.9, -0.45, 0.05, 0.2, 0.6, 0.95), 1e-15),
    ((-3.0, -0.5, 0.4, 2.5, 7.0), 1e-15),  # three roots outside (-1, 1)
    # A double root inside is reported once or twice, never lost, to about
    # the square root of the rounding.
    ((-0.2, 0.1, 0.1, 0.7), 1e-7),
])
def test_real_roots_of_a_polynomial_built_from_its_roots(roots, tolerance):
    got = spectrum._real_roots(_from_roots(roots, scale=-2.5), -1.0, 1.0)
    want = sorted(r for r in roots if -1.0 < r < 1.0)
    assert got == sorted(got)
    assert len(set(want)) <= len(got) <= len(want)
    for root in want:
        assert min(abs(root - x) for x in got) <= tolerance
    for x in got:
        assert min(abs(root - x) for root in want) <= tolerance


def test_real_roots_double_root_on_a_window_end():
    # (x - 1)^2 (x + 0.5)(x - 0.2) on (-1, 1): the end is no root of the
    # open window, and the derivative's root at 1 makes no extra cut.
    got = spectrum._real_roots(_from_roots((1.0, 1.0, -0.5, 0.2)), -1.0, 1.0)
    assert got == pytest.approx([-0.5, 0.2], rel=0.0, abs=1e-15)
    assert spectrum._real_roots(_from_roots((1.0, 1.0, -0.5, 0.2)), -0.5, 1.0) == \
        pytest.approx([0.2], rel=0.0, abs=1e-15)


def test_real_roots_low_degree_and_zero_polynomials():
    real_roots = spectrum._real_roots
    assert real_roots([0.0, 0.0, 0.0], -1.0, 1.0) == []  # P == 0: no isolated root
    assert real_roots([3.0], -1.0, 1.0) == []
    assert real_roots([0.0, 0.0, 2.0, -1.0], -1.0, 1.0) == [0.5]  # leading zeros dropped
    assert real_roots([2.0, -3.0], -1.0, 1.0) == []  # 1.5 lies outside
    assert real_roots([1.0, 0.0, 1.0], -1.0, 1.0) == []  # complex pair
    assert real_roots([1.0, 0.0, 0.0], -1.0, 1.0) == [0.0]  # double root at 0
    assert real_roots([4.0, -4.0, 1.0], -1.0, 1.0) == [0.5, 0.5]
    # Badly scaled: 1e-24 x^2 - x + 0.25.  The textbook formula cancels the
    # small root to zero; the cancellation-free one keeps every digit.
    (small,) = real_roots([1e-24, -1.0, 0.25], -1.0, 1.0)
    assert small == 0.25


def test_the_zero_polynomial_leaves_one_cell():
    # With every coupling zero and n = 0, P vanishes identically; f = E^2 - m^2
    # has no zero inside the window.
    params = PotentialParams(m=1.0)
    assert spectrum._sextic(params, 0) == [0.0] * 7
    assert solve_levels(params, 0) == []


def test_levels_scale_with_the_mass():
    # E/m depends on m only through m*a1 and m*a2: with those fixed, the
    # levels at m = 1e-60, where E^6 underflows, are the levels at m = 1, scaled.
    unit = [lvl.energy for lvl in solve_levels(
        PotentialParams(m=1.0, a1=0.1, b1=0.5, a2=0.05, b2=0.3), 1)]
    assert len(unit) == 2
    m = 1e-60
    params = PotentialParams(m=m, a1=0.1 / m, b1=0.5, a2=0.05 / m, b2=0.3)
    scaled = [lvl.energy / m for lvl in solve_levels(params, 1)]
    assert scaled == pytest.approx(unit, rel=0.0, abs=1e-14)


def test_overflowing_spectrum_equation_raises():
    # At m = 1e160, f(E) ~ m^2 leaves the float range, but the levels are
    # solved in units of m: the pure-scalar pair E = +-m*sqrt(3)/2 is found.
    levels = solve_levels(PotentialParams(m=1e160, b1=0.5), 0)
    assert [lvl.energy for lvl in levels] == pytest.approx(
        [-0.75 ** 0.5 * 1e160, 0.75 ** 0.5 * 1e160], rel=1e-15)
    # With m*a1 = 1e300, f leaves the float range in units of m too: no level
    # can be resolved, and "no level" would be a wrong answer.
    params = PotentialParams(m=1.0, a1=1e300, b1=0.5)
    with pytest.raises(DomainError, match="overflows") as caught:
        solve_levels(params, 0)
    assert str(params) in str(caught.value)


def _coulomb_plane_levels(params, n):
    """The zeros of f in the window where a1 = a2 = 0, to 50 digits.

    There s = 1, so f = 0 is (nu^2 + b2^2) t^2 + 2 b1 b2 t + b1^2 - nu^2 = 0
    in t = E/m, with nu = n + 1.
    """
    with decimal.localcontext() as context:
        context.prec = 50
        m, b1, b2 = (decimal.Decimal(x) for x in (params.m, params.b1, params.b2))
        nu2 = decimal.Decimal((n + 1) ** 2)
        a, half_b, c = nu2 + b2 * b2, b1 * b2, b1 * b1 - nu2
        root = (half_b * half_b - a * c).sqrt()  # c < 0: two real roots
        ts = sorted(((-half_b - root) / a, (-half_b + root) / a))
        return [m * t for t in ts if abs(t) < 1 - decimal.Decimal("1e-9")]


def test_coulomb_plane_levels_match_a_50_digit_reference():
    # The search stops at a bracket of 4*2.3e-16 in E/m, and E = m*(E/m)
    # rounds once more: every level lies within 1e-15*m of the exact zero.
    rng = random.Random(7)
    worst = 0.0
    for i in range(400):
        params = PotentialParams(m=10.0 ** rng.uniform(-3.0, 3.0),
                                 b1=rng.uniform(0.05, 1.0), b2=rng.uniform(-1.0, 1.0))
        n = i % 3
        reference = _coulomb_plane_levels(params, n)
        energies = [lvl.energy for lvl in solve_levels(params, n)]
        assert len(energies) == len(reference) == 2, (params, n)
        for got, want in zip(energies, reference):
            worst = max(worst, float(abs(decimal.Decimal(got) - want)) / params.m)
    assert worst <= 1e-15
