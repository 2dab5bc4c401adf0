import contextlib
import math
import random
import signal
from dataclasses import replace

import pytest

from kgkratzer import (
    ConvergenceError,
    DomainError,
    FallToCenterError,
    NoBoundStateError,
    PotentialParams,
    deviation_report,
    kg_eigensolve,
    kg_match_defect,
    oracle,
    solve_levels,
)
from kgkratzer.model import admissibility, in_units_of_m
from kgkratzer.verify import sample_admissible

EQUAL = PotentialParams(m=1.0, b1=0.5, b2=0.5)
EQUAL_A = PotentialParams(m=1.0, a1=0.5, b1=0.5, a2=0.5, b2=0.5)
OPPOSITE = PotentialParams(m=1.0, b1=0.5, b2=-0.5)

# Exact spectrum of the vector Coulomb problem with the origin index taken
# from the 1/r^2 coefficient of U itself: E = m*g/sqrt(g^2 + b2^2),
# g = n + 1/2 + sqrt(1/4 - b2^2).
def vector_coulomb_exact(b2: float, n: int = 0) -> float:
    g = n + 0.5 + math.sqrt(0.25 - b2 * b2)
    return g / math.sqrt(g * g + b2 * b2)


def test_defect_vanishes_at_manifold_eigenvalue():
    defect, nodes = kg_match_defect(EQUAL, 0.6)
    assert abs(defect) < 1e-6
    assert nodes == 0


def test_defect_changes_sign_across_eigenvalue():
    below, _ = kg_match_defect(EQUAL, 0.55)
    above, _ = kg_match_defect(EQUAL, 0.65)
    assert below * above < 0.0


def test_eigensolve_equal_manifold():
    result = kg_eigensolve(EQUAL, 0, (0.5, 0.7))
    assert result is not None
    assert result.energy == pytest.approx(0.6, abs=1e-6)
    assert result.node_count == 0
    assert result.bracket[1] - result.bracket[0] < 2e-8
    assert abs(result.match_defect) < 1e-5


def test_eigensolve_opposite_manifold():
    result = kg_eigensolve(OPPOSITE, 0, (-0.7, -0.5))
    assert result is not None
    assert result.energy == pytest.approx(-0.6, abs=1e-6)
    assert result.node_count == 0


def test_eigensolve_outside_window_raises():
    with pytest.raises(DomainError):
        kg_eigensolve(EQUAL, 0, (2.0, 3.0))


def test_eigensolve_empty_bracket_returns_none():
    # no n=0 eigenvalue between the n=0 and n=1 levels of the equal manifold
    assert kg_eigensolve(EQUAL, 0, (0.7, 0.85)) is None


def test_oracle_matches_independent_index_not_the_closed_form():
    params = PotentialParams(m=1.0, b2=0.1)
    result = kg_eigensolve(params, 0, (0.97, 0.999))
    assert result is not None
    exact = vector_coulomb_exact(0.1)
    assert result.energy == pytest.approx(exact, abs=2e-7)
    closed_form_value = 1.0 / math.sqrt(1.01)
    assert abs(result.energy - closed_form_value) > 5e-5


def test_deviation_report_manifold():
    report = deviation_report(EQUAL, 0)
    assert report.deviation < 1e-6
    assert report.analytic_energy == pytest.approx(0.6, abs=1e-9)
    assert report.shooting.node_count == 0


def test_deviation_report_transcendental_manifold():
    report = deviation_report(EQUAL_A, 1)
    assert report.analytic_energy == pytest.approx(0.94529694472014552, abs=1e-9)
    assert report.deviation < 1e-5
    assert report.shooting.node_count == 1


def test_deviation_pure_vector_small_coupling():
    report = deviation_report(PotentialParams(m=1.0, b2=0.1), 0)
    expected = abs(1.0 / math.sqrt(1.01) - vector_coulomb_exact(0.1))
    assert report.deviation == pytest.approx(expected, abs=2e-6)
    assert report.deviation < 2e-4


def test_node_counts_follow_level_index():
    for n in range(3):
        report = deviation_report(EQUAL_A, n)
        assert report.shooting.node_count == n


def test_eigenvalues_ordered_by_node_count():
    energies = [deviation_report(EQUAL_A, n).oracle_energy for n in range(3)]
    assert energies == sorted(energies)


def test_fall_to_center_guard():
    for b2 in (0.5, 0.6):
        with pytest.raises(FallToCenterError):
            kg_match_defect(PotentialParams(m=1.0, b2=b2), 0.8)
    # attractive inverse-quartic origin
    with pytest.raises(FallToCenterError):
        kg_match_defect(PotentialParams(m=1.0, a2=1.0, b2=0.1), 0.2)


def test_defect_requires_subluminal_energy():
    with pytest.raises(DomainError):
        kg_match_defect(EQUAL, 1.5)


# Exact particle level on the Coulomb plane a1 = a2 = 0: the equation is
# hydrogen-like with l(l+1) = b1^2 - b2^2, so m^2 - E^2 = (m b1 + E b2)^2/N^2,
# N = n + 1/2 + sqrt(1/4 + b1^2 - b2^2).
def coulomb_plane_exact(b1: float, b2: float, n: int, m: float = 1.0) -> float:
    big_n = n + 0.5 + math.sqrt(0.25 + b1 * b1 - b2 * b2)
    root = big_n * math.sqrt(big_n * big_n + b2 * b2 - b1 * b1)
    energies = [m * (-b1 * b2 + sign * root) / (big_n * big_n + b2 * b2) for sign in (1, -1)]
    return max(e for e in energies if abs(e) < m and m * b1 + e * b2 > 0.0)


@pytest.mark.parametrize("b1, b2", [(0.8, 0.0), (0.8, -0.2), (0.4, 0.2)])
def test_oracle_matches_exact_levels_off_the_manifolds(b1, b2):
    # At (0.8, -0.2), E - V_V changes sign with r, so Delta is not monotone
    # through every ingredient of dU/dE.
    params = PotentialParams(m=1.0, b1=b1, b2=b2)
    for n in range(3):
        report = deviation_report(params, n)
        assert report.oracle_energy == pytest.approx(coulomb_plane_exact(b1, b2, n), abs=1e-7)
        assert report.shooting.node_count == n


@pytest.mark.parametrize("m", [10.0 ** k for k in range(-60, 61, 10)])
def test_oracle_level_holds_at_every_mass_scale(m):
    # The oracle solves in units of m, so its precision is a fraction of m
    # at every scale.
    report = deviation_report(PotentialParams(m=m, b1=0.5, b2=0.3), 0)
    assert abs(report.oracle_energy - coulomb_plane_exact(0.5, 0.3, 0, m)) <= 1e-10 * m
    assert report.shooting.node_count == 0
    lo, hi = report.shooting.bracket
    assert lo <= report.oracle_energy <= hi


@pytest.mark.parametrize("a1, a2, b2", [
    *((10.0 ** -k, 10.0 ** -k, 0.6) for k in range(50, 141, 10)),  # 1/r^3 origin
    (1e-60, 0.0, 0.3), (1e-120, 0.0, 0.3),                        # 1/r^4 origin
])
def test_tiny_couplings_give_the_coulomb_plane_level(a1, a2, b2):
    # The origin terms balance far below r = 1e-30, so the outward sweep's
    # first steps are far shorter than 1e-45; the kernel's step floor is
    # relative to r alone.  The level is the Coulomb-plane one.
    report = deviation_report(PotentialParams(m=1.0, a1=a1, b1=0.5, a2=a2, b2=b2), 0)
    assert report.shooting.node_count == 0
    assert abs(report.oracle_energy - coulomb_plane_exact(0.5, b2, 0)) <= 1e-10


@pytest.mark.parametrize("m", [1e-300, 1e-200, 1e160, 1e300])
def test_both_solvers_give_the_unit_mass_levels_at_extreme_masses(m):
    # Both solve in units of m, so where m^2 leaves the float range the
    # levels are still the m = 1 levels times m, to within rounding.
    unit = PotentialParams(m=1.0, b1=0.5, b2=0.3)
    params = PotentialParams(m=m, b1=0.5, b2=0.3)
    for n in range(3):
        reference = solve_levels(unit, n)
        levels = solve_levels(params, n)
        assert len(levels) == len(reference) == 2
        for level, want in zip(levels, reference):
            assert abs(level.energy / m - want.energy) <= 4.0 * math.ulp(want.energy)
            assert level.residual == want.residual
            assert level.admissibility.overall == want.admissibility.overall
        report, want = deviation_report(params, n), deviation_report(unit, n)
        assert abs(report.analytic_energy / m - want.analytic_energy) \
            <= 4.0 * math.ulp(want.analytic_energy)
        assert abs(report.oracle_energy / m - want.oracle_energy) \
            <= 4.0 * math.ulp(want.oracle_energy)
        assert report.shooting.node_count == n
        assert report.analytic_level.admissibility.overall \
            == want.analytic_level.admissibility.overall


def test_pruefer_mismatch_is_the_node_index():
    # Delta - n changes sign across the n-node level, rising with E where
    # E > V_V (equal manifold) and falling where E < V_V (opposite manifold).
    for params, sign in ((EQUAL, 1.0), (OPPOSITE, -1.0)):
        for n in range(3):
            nu2 = (n + 1.0) ** 2
            level = sign * (nu2 - 0.25) / (nu2 + 0.25)
            dom = oracle._domain(params, level, level)
            _, _, below = oracle._defect_on_domain(params, level - 1e-3, dom)
            _, nodes, at = oracle._defect_on_domain(params, level, dom)
            _, _, above = oracle._defect_on_domain(params, level + 1e-3, dom)
            assert nodes == n
            assert at == pytest.approx(n, abs=1e-6)
            assert sign * (above - below) > 0.0
            assert (below - n) * (above - n) < 0.0


@pytest.mark.parametrize("n", [1, 2])
def test_eigensolve_opposite_manifold_excited(n):
    nu2 = (n + 1.0) ** 2
    level = -(nu2 - 0.25) / (nu2 + 0.25)
    result = kg_eigensolve(OPPOSITE, n, (level - 0.02, level + 0.02))
    assert result is not None
    assert result.energy == pytest.approx(level, abs=1e-7)
    assert result.node_count == n


def test_eigensolve_bracket_with_two_levels_returns_the_n_node_one():
    # (0.5, 0.93) holds the n = 0 level 0.6 and the n = 1 level 15/17.
    for n, level in ((0, 0.6), (1, 15.0 / 17.0)):
        result = kg_eigensolve(EQUAL, n, (0.5, 0.93))
        assert result is not None
        assert result.energy == pytest.approx(level, abs=1e-7)
        assert result.node_count == n


def test_eigensolve_clips_a_supercritical_bracket_end():
    # V_V = V_S with a = -1/2: q2 = -(m + E) exceeds -1/4 only for E < -3m/4,
    # so the upper end of the bracket has no self-adjoint origin.
    params = PotentialParams(m=1.0, a1=-0.5, b1=2.17, a2=-0.5, b2=2.17)
    result = kg_eigensolve(params, 0, (-0.95, -0.5))
    assert result is not None
    big_n = 0.5 + math.sqrt(0.25 - (1.0 + result.energy))
    # The equal-manifold quantization m - E = (m + E) b^2 / N^2.
    assert (1.0 - result.energy) * big_n ** 2 == pytest.approx(
        (1.0 + result.energy) * 2.17 ** 2, abs=1e-7)
    assert result.node_count == 0
    with pytest.raises(FallToCenterError):
        kg_eigensolve(params, 0, (-0.7, -0.5))


def test_eigensolve_clips_a_supercritical_bracket_start():
    # V_V = -V_S with a = -1/4: q2 = -(1 - E)/2 exceeds -1/4 only above
    # E = m/2, so the lower end of the bracket is cut there, and a bracket
    # that reaches past it by less than the cut's margin leaves nothing.
    params = PotentialParams(m=1.0, a1=-0.25, b1=0.5, a2=0.25, b2=-0.5)
    assert oracle._clip(params, (0.2, 0.8)) == (0.500000001, 0.8)
    with pytest.raises(FallToCenterError, match="but a sliver at E=0.5"):
        kg_eigensolve(params, 0, (0.2, 0.5 + 5e-10))


def _count_oracle_work(monkeypatch):
    counts = {"defects": 0, "sweeps": 0, "steps": 0, "outward_sweeps": 0, "outward_steps": 0}
    defect_on_domain, sweep = oracle._defect_on_domain, oracle.sweep

    def counted_defect(*args):
        counts["defects"] += 1
        return defect_on_domain(*args)

    def counted_sweep(*args):
        result = sweep(*args)
        counts["sweeps"] += 1
        counts["steps"] += result[4]
        r0, r1 = args[5], args[6]
        if r1 >= r0:  # the outward sweep, empty where it starts at r_match
            counts["outward_sweeps"] += 1
            counts["outward_steps"] += result[4]
        return result

    monkeypatch.setattr(oracle, "_defect_on_domain", counted_defect)
    monkeypatch.setattr(oracle, "sweep", counted_sweep)
    return counts


def test_deviation_report_work_stays_small(monkeypatch):
    counts = _count_oracle_work(monkeypatch)
    for n in range(3):
        before = counts["defects"]
        report = deviation_report(EQUAL_A, n)
        assert report.shooting.defect_evaluations == counts["defects"] - before
        assert report.shooting.defect_evaluations <= 20
    assert counts["steps"] / counts["sweeps"] <= 1200


def test_deviation_report_counts_every_bracket(monkeypatch):
    # The paper's level 0.6 misses the exact 0.8324 by more than the first
    # bracket's half-width 0.16, so a second, doubled bracket is searched.
    counts = _count_oracle_work(monkeypatch)
    report = deviation_report(PotentialParams(m=1.0, b1=0.8), 0)
    assert report.analytic_energy + 0.4 * (1.0 - report.analytic_energy) < report.oracle_energy
    assert report.shooting.defect_evaluations == counts["defects"]


@pytest.mark.parametrize("params", [EQUAL_A, PotentialParams(m=1.0, b1=0.8, b2=-0.2)])
def test_default_grid_agrees_with_a_tighter_tolerance(monkeypatch, params):
    default = deviation_report(params, 0)
    monkeypatch.setattr(oracle, "_RTOL", 1e-12)
    tight = deviation_report(params, 0)
    assert abs(default.oracle_energy - tight.oracle_energy) < 1e-7


@pytest.mark.parametrize("params", [EQUAL, OPPOSITE, EQUAL_A])
def test_manifold_solves_confirm_the_centred_level_cheaply(monkeypatch, params):
    # The paper's level is exact on these manifolds, so the bracket of the
    # final width centred on it holds the level and no trial is made.
    counts = _count_oracle_work(monkeypatch)
    for n in range(3):
        before = counts["defects"]
        report = deviation_report(params, n)
        assert report.shooting.defect_evaluations == counts["defects"] - before
        assert report.shooting.defect_evaluations <= 6


@pytest.mark.parametrize("b1, b2, budget", [(0.8, 0.0, 15), (0.8, -0.2, 15), (0.4, 0.2, 11)])
def test_offmanifold_solves_stay_within_the_regula_falsi_budget(b1, b2, budget):
    # The budgets are the evaluations Illinois regula falsi spent here.
    report = deviation_report(PotentialParams(m=1.0, b1=b1, b2=b2), 0)
    assert report.shooting.defect_evaluations <= budget


@pytest.mark.parametrize("q2", [-0.2, -0.24, -0.249])
def test_level_near_a_critical_origin_lies_inside_its_bracket(q2):
    # As q2 = b1^2 - b2^2 nears -1/4, the irregular solution r^(1-p) fades
    # outward only as (r_min/r)^(2p-1) with 2p - 1 -> 0, so the outward seed
    # must hold none of it for the level to be as good as its bracket.
    b1 = 0.4
    b2 = math.sqrt(b1 * b1 - q2)
    report = deviation_report(PotentialParams(m=1.0, b1=b1, b2=b2), 0)
    lo, hi = report.shooting.bracket
    assert abs(report.oracle_energy - coulomb_plane_exact(b1, b2, 0)) <= hi - lo


@pytest.mark.parametrize("offset", [1e-4, -1e-4, 1e-2, -1e-2])
@pytest.mark.parametrize("params, n, level", [(EQUAL, 0, 0.6), (OPPOSITE, 1, -15.0 / 17.0)])
def test_off_centre_bracket_returns_the_exact_level(params, n, level, offset):
    result = kg_eigensolve(params, n, (level + offset - 0.05, level + offset + 0.05))
    assert result is not None
    assert result.energy == pytest.approx(level, abs=1e-9)
    assert result.bracket[1] - result.bracket[0] <= 1e-8 * params.m
    assert result.node_count == n


def test_results_carry_plain_floats():
    report = deviation_report(EQUAL, 0)
    assert type(report.shooting.match_defect) is float
    # At E = 0.6, the midpoint of (0.2, 1), U > 0 at every radius, so the
    # matching radius is taken at the minimum of U.
    params = PotentialParams(m=1.0, b1=0.35, b2=-0.21)
    assert type(kg_match_defect(params, 0.6)[0]) is float
    result = kg_eigensolve(params, 0, (0.2, 1.0))
    assert type(result.match_defect) is float
    assert type(result.energy) is float


def test_flat_zero_of_the_mismatch_still_converges(monkeypatch):
    # Interpolation creeps from one side towards a ninth-order zero; the
    # step-halving guard bisects instead of exhausting the refinement budget.
    def flat_mismatch(params, energy, dom):
        return 0.0, 0, (energy - 0.61) ** 9

    monkeypatch.setattr(oracle, "_defect_on_domain", flat_mismatch)
    result = kg_eigensolve(EQUAL, 0, (0.5, 0.7))
    assert result.bracket[1] - result.bracket[0] <= 1e-8
    assert result.energy == pytest.approx(0.61, abs=1e-8)
    assert result.defect_evaluations <= 80


@pytest.mark.parametrize("params, bracket, energy, evaluations", [
    (EQUAL, (0.55, 0.65), 0.5999999999982364, 4),
    (PotentialParams(m=1.0, b1=0.8), (0.6, 0.95), 0.8323518197762562, 10),
])
def test_eigensolve_trial_sequence_is_pinned(params, bracket, energy, evaluations):
    # Exact energies and evaluation counts of the midpoint-first Brent search;
    # any change to its trial sequence moves at least one of them.
    result = kg_eigensolve(params, 0, bracket)
    assert result.energy == energy
    assert result.defect_evaluations == evaluations


@pytest.mark.parametrize("params, exact, tolerance", [
    # The level's decay length is ten times the one at the paper's level.
    (PotentialParams(m=1.0, b1=0.727767182755184, b2=-0.7182370103078528),
     0.9999949958523797, 1e-9),
    (PotentialParams(m=1.7257305155175258, b1=0.4297474872406787, b2=-0.42944526648642717),
     1.725730506762042, 1e-8 * 1.7257305155175258),
])
def test_near_threshold_levels_on_the_coulomb_plane(params, exact, tolerance):
    report = deviation_report(params, 2)
    assert abs(report.oracle_energy - exact) < tolerance
    assert report.shooting.node_count == 2


def test_series_seeded_tail_keeps_sweeps_short(monkeypatch):
    counts = _count_oracle_work(monkeypatch)
    for n in range(3):
        deviation_report(EQUAL_A, n)
    assert counts["steps"] / counts["sweeps"] <= 400


@pytest.mark.parametrize("params, levels, bound", [
    (PotentialParams(m=1.0, b1=0.8), [0], 30),
    (PotentialParams(m=1.0, b1=0.8, b2=-0.2), [0], 30),
    (PotentialParams(m=1.0, b1=0.4, b2=0.2), [0], 30),
    (EQUAL_A, [0, 1, 2], 45),
])
def test_eighth_order_sweeps_stay_short(monkeypatch, params, levels, bound):
    # The DOP853 step takes 12 steps per sweep on the three Coulomb-plane
    # cases and 28 on EQUAL_A; a Cash-Karp 4(5) step took 87-111 and 170.
    counts = _count_oracle_work(monkeypatch)
    for n in levels:
        deviation_report(params, n)
    assert counts["steps"] / counts["sweeps"] <= bound


@pytest.mark.parametrize("b1, b2", [(0.8, 0.0), (0.8, -0.2), (0.4, 0.2)])
def test_inward_sweeps_start_where_the_tail_seed_is_accurate(monkeypatch, b1, b2):
    # With r_max set from the tail seed's error budget these take 11.65,
    # 12.10 and 12.25 steps per sweep; from 12 decay lengths out they took
    # 16.75, 17.35 and 18.12.  The bound is 10% over the largest.
    counts = _count_oracle_work(monkeypatch)
    deviation_report(PotentialParams(m=1.0, b1=b1, b2=b2), 0)
    assert counts["steps"] / counts["sweeps"] <= 13.5


def _seed_guard_cases():
    """(params, energy) of the reduced problem (m = 1): Coulomb-plane levels,
    with q2 within 1e-6 to 1e-1 of -1/4 and near-threshold levels of weak
    couplings among them; levels of both manifolds; admissible sample sets;
    and admissible sets with a1 up to 10, where the tail series at
    kappa r = ln(1/_RTOL)/3.5 is still far from its smallest term."""
    rng = random.Random(26)
    cases = []
    for _ in range(40):
        b1 = rng.uniform(0.1, 1.0)
        b2 = rng.uniform(-1.0, 1.0) * math.sqrt(b1 * b1 + 0.2)
        cases.append((b1, b2, rng.randrange(4)))
    for _ in range(20):
        b1 = rng.uniform(0.3, 1.0)
        b2 = -math.sqrt(b1 * b1 + 0.25 - 10.0 ** rng.uniform(-6.0, -1.0))
        cases.append((b1, b2, rng.randrange(3)))
    for _ in range(20):
        b1 = 10.0 ** rng.uniform(-3.0, -0.5)
        cases.append((b1, rng.uniform(-1.0, 1.0) * b1, rng.randrange(4)))
    cases = [(PotentialParams(m=1.0, b1=b1, b2=b2), coulomb_plane_exact(b1, b2, n))
             for b1, b2, n in cases]
    for _ in range(40):
        a, b, sign = rng.uniform(0.0, 2.0), rng.uniform(0.05, 0.9), rng.choice((1.0, -1.0))
        params = PotentialParams(m=1.0, a1=a, b1=b, a2=sign * a, b2=sign * b)
        cases += [(params, level.energy) for level in solve_levels(params, rng.randrange(3))]
    for _ in range(40):
        params, energy = sample_admissible(rng)
        cases.append((in_units_of_m(params), energy / params.m))
    strong = 0
    while strong < 40:
        a1 = rng.uniform(0.0, 10.0)
        params = PotentialParams(m=1.0, a1=a1, b1=rng.uniform(-0.9, 0.9),
                                 a2=rng.uniform(-a1, a1), b2=rng.uniform(-0.9, 0.9))
        energy = rng.uniform(-1.0, 1.0)
        if admissibility(params, energy).bound_state_ok:
            cases.append((params, energy))
            strong += 1
    return cases


def _inward_log_deriv(params, energy, r_start, r_end):
    """psi'/psi at r_end of the inward sweep started at r_start from the tail seed."""
    kappa2, q1, q2, q3, q4 = oracle.u_series(params, energy)
    seed, _ = oracle._tail_log_deriv(math.sqrt(kappa2), q1, q2, q3, q4, r_start)
    y, dy, _, status, _ = oracle.sweep(kappa2, q1, q2, q3, q4, r_start, r_end, 1.0, seed,
                                       oracle._RTOL, oracle._MAX_STEPS)
    assert status == 0
    return dy / y


def test_inward_seed_is_as_good_as_a_start_twelve_decay_lengths_out():
    # The inward sweep from r_max arrives at r_match with the psi'/psi of a
    # sweep from max(12/kappa, 3 r_turn), the outer radius this replaced.
    # Errors are taken relative to |psi'/psi|, or to kappa where psi'/psi is
    # smaller, near a peak of psi, where a relative error is ill-conditioned.
    # Measured: 1.4e-9 at most, on a set with a1 = 9 where the old start is
    # the less accurate one; 4.1e-11 on the other families.  Started at
    # kappa r = ln(1/_RTOL)/3.5 and never farther out, 3.9e-7.
    cases = _seed_guard_cases()
    assert len(cases) == 200
    worst = 0.0
    for params, energy in cases:
        dom = oracle._domain(params, energy, energy)
        kappa2, q1, q2, _, _ = oracle.u_series(params, energy)
        kappa = math.sqrt(kappa2)
        r_turn = max(-q1 / kappa2, math.sqrt(max(-q2, 0.0)) / kappa, 0.0)
        old = _inward_log_deriv(params, energy, max(12.0 / kappa, 3.0 * r_turn), dom.r_match)
        new = _inward_log_deriv(params, energy, dom.r_max, dom.r_match)
        worst = max(worst, abs(new - old) / max(abs(old), kappa))
    assert worst <= 1e-8


@contextlib.contextmanager
def _alarm(seconds):
    """Raise TimeoutError in the block once it has run for ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("call", [
    # q2 = b1^2 - b2^2 is inf - inf in units of m.
    lambda: oracle._domain(PotentialParams(1.0, 0.0, 1e160, 0.0, 1e160), 0.2, 0.8),
    # q4 = a1^2 - a2^2 is inf - inf.
    lambda: kg_eigensolve(PotentialParams(1.0, 3e154, 0.5, 2e154, 0.3), 0, (0.2, 0.8)),
], ids=["q2-nan-domain", "q4-nan-eigensolve"])
def test_overflowing_couplings_raise_instead_of_hanging(call):
    with _alarm(5), pytest.raises(ConvergenceError):
        call()


def test_an_outer_radius_that_overflows_is_a_domain_error():
    # At b1 = 1.2e154, sigma^2 overflows, so the tail series' first term is
    # infinite, and so is the radius that would damp it to _RTOL.
    with _alarm(5), pytest.raises(DomainError, match="no finite outer radius"):
        oracle._domain(PotentialParams(1.0, 0.0, 1.2e154, 0.0, 0.0), 0.2, 0.8)


@pytest.mark.parametrize("call", [
    lambda: oracle._tail_log_deriv(0.8, -1.0, math.nan, 0.0, 0.0, 8.0),
    lambda: oracle._origin_log_deriv(0.64, -1.0, math.nan, 1e-3),
    lambda: oracle._start_radius(PotentialParams(1.0, 0.0, 1e160, 0.0, 1e160), 0.2, 0.8, 1e-3, 1.0),
], ids=["tail", "origin", "start-radius"])
def test_each_series_sum_fails_on_a_nan_coefficient(call):
    # NaN passes none of the stop tests, so the term budget ends the sum.
    with _alarm(5), pytest.raises(ConvergenceError, match="terms"):
        call()


def test_tail_seed_is_the_log_derivative_of_the_decaying_solution():
    # At an exact level of the equal manifold the series terminates: for
    # (b1, b2) = (0.5, 0.5), n = 1, E = 15/17 and kappa = 8/17,
    # psi = e^(-kappa r) (r^2 - r/kappa).
    kappa2, q1, q2, q3, q4 = oracle.u_series(EQUAL, 15.0 / 17.0)
    kappa = math.sqrt(kappa2)
    for r in (10.0, 40.0):
        exact = -kappa + (2.0 * r - 1.0 / kappa) / (r * r - r / kappa)
        assert oracle._tail_log_deriv(kappa, q1, q2, q3, q4, r)[0] == pytest.approx(exact, rel=1e-14)


def test_widened_bracket_reuses_the_inner_ends(monkeypatch):
    # (0.8, 0) at n = 0 needs the doubled bracket: its inner bracket's ends
    # are known on the shared geometry and are not evaluated again.
    energies = []
    defect_on_domain = oracle._defect_on_domain

    def recorded(params, energy, dom):
        energies.append(energy)
        return defect_on_domain(params, energy, dom)

    monkeypatch.setattr(oracle, "_defect_on_domain", recorded)
    report = deviation_report(PotentialParams(m=1.0, b1=0.8), 0)
    assert report.oracle_energy == pytest.approx(coulomb_plane_exact(0.8, 0.0, 0), abs=1e-7)
    assert len(energies) == len(set(energies))
    assert report.shooting.defect_evaluations == len(energies)
    # Four bracket ends, then only the outer shell above the inner bracket.
    assert min(energies[4:]) > max(energies[:2])


def _seeded_brackets():
    """Subcritical brackets on the Coulomb plane and on both manifolds, with
    q2 = b1^2 - b2^2 near -1/4 and with |q1| >= 5 among them."""
    rng = random.Random(15)
    cases = []
    for _ in range(12):
        m = rng.uniform(0.5, 2.0)
        b1 = rng.uniform(0.1, 1.0)
        b2 = rng.uniform(-1.0, 1.0) * math.sqrt(b1 * b1 + 0.24)
        cases.append(PotentialParams(m=m, b1=b1, b2=b2))
    for sign in (1.0, -1.0):
        for _ in range(4):
            a, b = rng.uniform(0.0, 0.7), rng.uniform(0.3, 0.7)
            cases.append(PotentialParams(m=rng.uniform(0.5, 2.0), a1=a, b1=b,
                                         a2=sign * a, b2=sign * b))
    for q2 in (-0.24, -0.249, -0.2499):
        cases.append(PotentialParams(m=1.0, b1=0.4, b2=math.sqrt(0.16 - q2)))
    # Across (-m, m), |q1| = 2|m*b1 + E*b2| runs up to 11.8 and 19.8 on these two.
    cases.append(PotentialParams(m=1.0, b1=3.0, b2=2.9))
    cases.append(PotentialParams(m=2.0, b1=2.5, b2=-2.45))
    # In units of m, as the oracle solves them.
    brackets = []
    for params in cases:
        unit = in_units_of_m(params)
        centre = rng.uniform(-0.95, 0.95)
        half = rng.uniform(0.01, 0.5)
        brackets.append((unit, oracle._clip(unit, (centre - half, centre + half))))
    return brackets


def _origin_series_excess(kappa2, q1, q2, r):
    """sum_(j>=1) |t_j| of the regular origin series 1 + sum t_j at r, with
    j (2p + j - 1) t_j = (q1 t_(j-1) + kappa2 r t_(j-2)) r."""
    p = 0.5 + math.sqrt(0.25 + q2)
    t1, t2, total = 1.0, 0.0, 0.0
    for j in range(1, 400):
        t = (q1 * t1 + kappa2 * r * t2) * r / (j * (2.0 * p + j - 1.0))
        total += abs(t)
        t1, t2 = t, t1
    return total


@pytest.mark.parametrize("params, bracket", _seeded_brackets())
def test_no_node_below_the_start_radius(params, bracket):
    # The outward sweep starts at r_start from the summed origin series.  At
    # each end of the bracket its terms past the first sum to at most 1/2 in
    # magnitude, a sweep from r_min to r_start meets no node, and it arrives
    # with the series' log derivative.
    dom = oracle._domain(params, *bracket)
    assert dom.r_min < dom.r_start <= dom.r_match
    assert dom.seed is None
    for energy in bracket:
        kappa2, q1, q2, q3, q4 = oracle.u_series(params, energy)
        assert q3 == q4 == 0.0
        assert _origin_series_excess(kappa2, q1, q2, dom.r_start) <= 0.5
        log_deriv = oracle._origin_log_deriv(kappa2, q1, q2, dom.r_min)
        y, dy, nodes, status, _ = oracle.sweep(
            kappa2, q1, q2, q3, q4, dom.r_min, dom.r_start, 1.0, log_deriv,
            1e-12, 200_000)
        assert status == 0
        assert nodes == 0
        series = oracle._origin_log_deriv(kappa2, q1, q2, dom.r_start)
        assert dy / y == pytest.approx(series, rel=1e-9)


def test_outward_sweeps_start_past_the_origin_series(monkeypatch):
    # Started at r_min ~ 6e-4, the outward sweep took 144 steps here; the
    # series covers all but the last stretch before the matching radius.
    counts = _count_oracle_work(monkeypatch)
    deviation_report(PotentialParams(m=1.0, b1=0.8, b2=-0.2), 0)
    assert counts["outward_steps"] / counts["outward_sweeps"] <= 40


def test_coulomb_plane_levels_over_seeded_sets():
    rng = random.Random(60)
    worst = 0.0
    for _ in range(60):
        m = rng.uniform(0.5, 2.0)
        b1 = rng.uniform(0.1, 1.0)
        b2 = rng.uniform(-1.0, 1.0) * math.sqrt(b1 * b1 + 0.2)
        n = rng.randrange(3)
        report = deviation_report(PotentialParams(m=m, b1=b1, b2=b2), n)
        assert report.shooting.node_count == n
        worst = max(worst, abs(report.oracle_energy - coulomb_plane_exact(b1, b2, n, m)) / m)
    assert worst <= 1e-10


def _geometry_cases(family):
    """(params, energy) of the reduced problem (m = 1) on the Coulomb plane,
    on both manifolds, or with a 1/r^4 term and any 1/r^3 term."""
    rng = random.Random({"coulomb": 20, "manifold": 21, "quartic": 22}[family])
    cases = []
    for _ in range(12):
        if family == "coulomb":
            b1 = rng.uniform(0.1, 1.0)
            b2 = rng.uniform(-1.0, 1.0) * math.sqrt(b1 * b1 + 0.2)
            params = PotentialParams(m=1.0, b1=b1, b2=b2)
        elif family == "manifold":
            a, b, sign = rng.uniform(0.0, 0.7), rng.uniform(0.3, 0.7), rng.choice((1.0, -1.0))
            params = PotentialParams(m=1.0, a1=a, b1=b, a2=sign * a, b2=sign * b)
        else:
            a1 = rng.uniform(0.05, 1.0)
            params = PotentialParams(m=1.0, a1=a1, b1=rng.uniform(-1.0, 1.0),
                                     a2=rng.uniform(-0.95, 0.95) * a1, b2=rng.uniform(-1.0, 1.0))
        cases.append((params, rng.uniform(-0.95, 0.95)))
    return cases


def _scanned_match_radius(params, energy, dom, points):
    """r_match by _domain's rules, read off U on a geometric scan of radii
    from max(r_min, 1e-12) to r_max."""
    kappa2, q1, q2, q3, q4 = oracle.u_series(params, energy)
    r_grid = max(dom.r_min, 1e-12)
    ratio = (dom.r_max / r_grid) ** (1.0 / (points - 1))
    radii = [r_grid * ratio ** i for i in range(points)]
    u_vals = [kappa2 + (q1 + (q2 + (q3 + q4 / r) / r) / r) / r for r in radii]
    negative = [i for i, u in enumerate(u_vals) if u < 0.0]
    if negative:
        inner = max(radii[negative[0]], 2.0 * dom.r_min)
        r_match = math.sqrt(inner * radii[negative[-1]])
    else:
        r_match = radii[min(range(points), key=u_vals.__getitem__)]
    return min(max(r_match, 4.0 * dom.r_min), 0.25 * dom.r_max), ratio


@pytest.mark.parametrize("family", ["coulomb", "manifold", "quartic"])
def test_matching_radius_agrees_with_a_fine_scan_of_u(family):
    # _domain takes the edges of U < 0 and the minimum of U from the roots
    # of U as a quartic in 1/r; a scan finds each to within one ratio.
    for params, energy in _geometry_cases(family):
        dom = oracle._domain(params, energy, energy)
        scanned, ratio = _scanned_match_radius(params, energy, dom, 200_000)
        assert abs(math.log(dom.r_match / scanned)) <= math.log(ratio) * (1.0 + 1e-9)


def test_matching_radius_at_the_exact_minimum_of_u():
    # At E = 0.6, U = 0.64 - 0.448/r + 0.0784/r^2 >= 0, with its minimum
    # (zero, a double root) at r = 0.35; a 600-point grid gave 0.3477.
    dom = oracle._domain(PotentialParams(m=1.0, b1=0.35, b2=-0.21), 0.6, 0.6)
    assert dom.r_match == pytest.approx(0.35, abs=1e-12)


def test_matching_radius_spans_every_allowed_interval():
    # At E = 0.6, U = 0.16 (x - 1/2)(x - 1)(x - 2)(x - 4) with x = 1/r, so
    # U < 0 on (0.25, 0.5) and on (1, 2).  The matching radius is the
    # geometric middle of 0.25 and 2.
    params = PotentialParams(m=1.0, a1=0.5, b1=1.2, a2=0.3)
    dom = oracle._domain(params, 0.6, 0.6)
    assert dom.r_match == pytest.approx(math.sqrt(0.25 * 2.0), rel=1e-14)


def test_matching_radius_of_a_constant_u_is_the_smallest_radius():
    # U = kappa^2 at every radius: the tie goes to the smallest radius, as a
    # grid's first-index argmin did, and the clamp lifts it to 4 r_min.
    dom = oracle._domain(PotentialParams(m=1.0), 0.5, 0.5)
    assert dom.r_match == 4.0 * dom.r_min


def _extra_node(monkeypatch, where):
    """Add a node to every evaluation at an energy where ``where`` holds;
    return the list of energies evaluated."""
    energies = []
    defect_on_domain = oracle._defect_on_domain

    def patched(params, energy, dom):
        energies.append(energy)
        defect, nodes, delta = defect_on_domain(params, energy, dom)
        return defect, nodes + where(energy), delta

    monkeypatch.setattr(oracle, "_defect_on_domain", patched)
    return energies


def test_level_is_evaluated_only_where_the_bracket_ends_disagree(monkeypatch):
    params, bracket = PotentialParams(m=1.0, b1=0.8), (0.6, 0.95)
    plain = kg_eigensolve(params, 0, bracket)
    a, b = plain.bracket
    # The upper end of the final bracket carries n + 1 nodes, the level n.
    energies = _extra_node(monkeypatch, lambda e: e == b)
    result = kg_eigensolve(params, 0, bracket)
    assert result.defect_evaluations == plain.defect_evaluations + 1 == len(energies)
    assert energies[-1] == result.energy == plain.energy
    assert result.node_count == 0
    # Every energy above the lower end carries n + 1 nodes, the level too.
    monkeypatch.undo()
    energies = _extra_node(monkeypatch, lambda e: e > a)
    with pytest.raises(ConvergenceError):
        kg_eigensolve(params, 0, bracket)
    assert len(energies) == plain.defect_evaluations + 1
    assert energies[-1] == plain.energy


def test_level_carries_its_node_count_over_seeded_sets(monkeypatch):
    # The node count and defect at E* come from the final bracket's ends; a
    # fresh evaluation at E*, on the geometry the search used, confirms them.
    searched = []
    converge = oracle._converge

    def recorded(params, n, dom, *rest):
        result = converge(params, n, dom, *rest)
        searched.append((params, dom, result))
        return result

    monkeypatch.setattr(oracle, "_converge", recorded)
    rng = random.Random(60)
    for _ in range(60):
        m = rng.uniform(0.5, 2.0)
        b1 = rng.uniform(0.1, 1.0)
        b2 = rng.uniform(-1.0, 1.0) * math.sqrt(b1 * b1 + 0.2)
        n = rng.randrange(3)
        deviation_report(PotentialParams(m=m, b1=b1, b2=b2), n)
        params, dom, result = searched[-1]
        defect, nodes, _ = oracle._defect_on_domain(params, result.energy, dom)
        assert nodes == result.node_count == n
        # The bound test_eigensolve_equal_manifold puts on match_defect.
        assert abs(defect) < 1e-5


@pytest.mark.parametrize("params", [EQUAL, OPPOSITE, EQUAL_A])
def test_manifold_levels_take_two_evaluations(monkeypatch, params):
    # The bracket of the final width round the paper's exact level holds
    # it, so its two ends give the level, its defect and its node count.
    counts = _count_oracle_work(monkeypatch)
    for n in range(3):
        before = counts["defects"]
        report = deviation_report(params, n)
        assert report.shooting.defect_evaluations == counts["defects"] - before == 2
        lo, hi = report.shooting.bracket
        assert lo < report.analytic_energy < hi
        assert hi - lo <= 1e-8 * params.m


def _record(monkeypatch, name):
    """Wrap oracle.<name> so that the arguments of every call are kept."""
    calls = []
    original = getattr(oracle, name)

    def recorded(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(oracle, name, recorded)
    return calls


def _ordinary_search(monkeypatch, params, n):
    """deviation_report's search for the n-node level of ``params``, then the
    same search without the bracket of the final width in front."""
    search = oracle._search
    searches = _record(monkeypatch, "_search")
    report = deviation_report(params, n)
    _, _, brackets = searches[-1]
    return report, lambda: search(params, n, brackets[1:])


@pytest.mark.parametrize("params, n", [(EQUAL, 0), (OPPOSITE, 1), (EQUAL_A, 2)])
def test_confirming_bracket_shares_the_wide_brackets_geometry(monkeypatch, params, n):
    evaluated = _record(monkeypatch, "_defect_on_domain")
    _, ordinary = _ordinary_search(monkeypatch, params, n)
    confirmed = {dom for _, _, dom in evaluated}
    evaluated.clear()
    ordinary()
    assert confirmed == {evaluated[0][2]}


@pytest.mark.parametrize("params, n, exact", [(EQUAL, 0, 0.6), (OPPOSITE, 1, -15.0 / 17.0),
                                              (PotentialParams(m=3.0, b1=0.5, b2=0.5), 1, 45.0 / 17.0)])
def test_missed_confirming_bracket_falls_back_to_the_ordinary_search(monkeypatch, params, n, exact):
    # A paper's level 1e-6*m off the exact one: the bracket of the final
    # width round it misses, and the search that follows is the one made
    # without that bracket, to the last bit.
    select_level = oracle.select_level

    def shifted(levels, branch):
        level = select_level(levels, branch)
        return replace(level, energy=level.energy + 1e-6 * params.m)

    monkeypatch.setattr(oracle, "select_level", shifted)
    missed, ordinary = _ordinary_search(monkeypatch, params, n)
    result = ordinary()
    assert missed.shooting.defect_evaluations == 2 + result.defect_evaluations
    assert missed.shooting == replace(result, defect_evaluations=2 + result.defect_evaluations)
    assert missed.oracle_energy == pytest.approx(exact, abs=1e-9 * params.m)
    assert missed.deviation == pytest.approx(1e-6 * params.m, rel=1e-3)


def test_offmanifold_search_starts_with_the_first_wide_bracket(monkeypatch):
    # Off V_V = +-V_S no bracket of the final width goes first: the first
    # two energies shot are the ends of E +- 0.4*(m - |E|), and no energy
    # shot lies nearer to E than they do.
    evaluated = _record(monkeypatch, "_defect_on_domain")
    report = deviation_report(PotentialParams(m=1.0, b1=0.8), 0)
    energies = [energy for _, energy, _ in evaluated]
    level = report.analytic_energy
    half = 0.4 * (1.0 - abs(level))
    assert energies[:2] == [level - half, level + half]
    assert min(abs(e - level) for e in energies) == pytest.approx(half, rel=1e-12)
    assert report.shooting.defect_evaluations == len(energies)


def test_missing_analytic_level_is_the_spectrum_text_behind_its_label():
    # b1 < 0: k < 0 at every E > 0, so the n = 0 particle level does not exist.
    params = PotentialParams(m=1.0, b1=-0.5)
    with pytest.raises(NoBoundStateError) as info:
        deviation_report(params, 0)
    assert str(info.value) == "analytic: no particle root of the spectrum equation at n=0"
