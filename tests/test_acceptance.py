"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they pass.
"""

import json
import random
import subprocess
import sys
import time
from pathlib import Path

from kgkratzer import (
    PotentialParams,
    approx_energy,
    closed_form,
    deviation_report,
    normalization,
    residual_report,
    solve_levels,
)
from kgkratzer.verify import _closed_form_backsub_worst, _sample_grid, sample_admissible

GOLDEN = Path(__file__).parent / "golden" / "verify_residuals_seed7.json"
SEED = 20260808
N_SETS = 1000


def _line(number, name, ok, detail):
    print(f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _random_reports(seed=SEED, cases=N_SETS, points=50):
    rng = random.Random(seed)
    for _ in range(cases):
        params, energy = sample_admissible(rng)
        radii = _sample_grid(params, energy, points)
        yield params, energy, residual_report(params, energy, radii)


def test_criterion_01_chi_identity():
    worst = max(r.chi_identity_max for _, _, r in _random_reports())
    ok = worst < 1e-9
    _line(1, "chi identity over 1000 random admissible sets", ok,
          f"worst={worst:.3e}, tol=1e-9")
    assert ok


def test_criterion_02_structured_phi_residual():
    worst_structure = 0.0
    worst_quartic = 0.0
    for _, _, report in _random_reports():
        worst_structure = max(worst_structure, report.phi_structure_max)
        worst_quartic = max(worst_quartic, report.quartic_cancellation)
    ok = worst_structure < 1e-10 and worst_quartic < 1e-12
    _line(2, "phi residual equals M3/r^3 + M2/r^2", ok,
          f"structure={worst_structure:.3e} tol=1e-10, "
          f"quartic={worst_quartic:.3e} tol=1e-12")
    assert ok


def test_criterion_03_composite_factorization():
    rng = random.Random(SEED + 1)
    worst = 0.0
    tested = 0
    attempts = 0
    while tested < 300 and attempts < N_SETS:
        attempts += 1
        params, _ = sample_admissible(rng)
        roots = [lvl for lvl in solve_levels(params, 0)
                 if lvl.branch == "particle" and lvl.admissibility.bound_state_ok]
        if not roots:
            continue
        energy = roots[-1].energy
        report = residual_report(params, energy, _sample_grid(params, energy, 30))
        worst = max(worst, report.composite_factorization_max)
        tested += 1
    ok = tested >= 300 and worst < 1e-8
    _line(3, "composite residual factorizes through (M3, M2) at solved E", ok,
          f"worst={worst:.3e} over {tested} solved sets, tol=1e-8")
    assert ok


def test_criterion_04_closed_form_implicit_equivalence():
    worst, _atlas = _closed_form_backsub_worst()
    ok = worst < 1e-10
    _line(4, "closed forms are zeros of the implicit equation", ok,
          f"worst |f(E)|={worst:.3e}, tol=1e-10")
    assert ok


MANIFOLD_CASES = (
    PotentialParams(m=1.0, b1=0.5, b2=0.5),
    PotentialParams(m=1.0, a1=0.5, b1=0.5, a2=0.5, b2=0.5),
    PotentialParams(m=1.0, b1=0.5, b2=-0.5),
    PotentialParams(m=1.0, a1=0.5, b1=0.5, a2=-0.5, b2=-0.5),
)


def test_criterion_05_oracle_exact_on_manifolds():
    worst = 0.0
    slowest = 0.0
    for params in MANIFOLD_CASES:
        for n in range(3):
            start = time.perf_counter()
            report = deviation_report(params, n)
            slowest = max(slowest, time.perf_counter() - start)
            worst = max(worst, report.deviation)
    ok = worst < 1e-5 and slowest < 10.0
    _line(5, "shooting eigenvalues match closed forms on V_V = +-V_S", ok,
          f"worst deviation={worst:.3e} tol=1e-5, slowest solve={slowest:.2f}s")
    assert ok


def test_criterion_06_oracle_deviation_scaling():
    deviations = []
    for b2 in (0.3, 0.2, 0.1):
        report = deviation_report(PotentialParams(m=1.0, b2=b2), 0)
        deviations.append(report.deviation)
    decreasing = all(b < a for a, b in zip(deviations, deviations[1:]))
    ok = decreasing and deviations[-1] < 2e-4
    _line(6, "pure-vector deviations shrink with the coupling", ok,
          "deviations=" + ", ".join(f"{d:.3e}" for d in deviations)
          + " (tol at b2=0.1: 2e-4)")
    assert ok


def test_criterion_07_pure_scalar_symmetry():
    worst = 0.0
    for a1 in (0.0, 0.7, 2.0):
        for b1 in (0.3, 0.6, 0.9):
            params = PotentialParams(m=1.0, a1=a1, b1=b1)
            for n in range(3):
                energies = sorted(lvl.energy for lvl in solve_levels(params, n))
                for low, high in zip(energies, reversed(energies)):
                    worst = max(worst, abs(low + high))
    ok = worst < 1e-12
    _line(7, "pure-scalar spectra symmetric under E -> -E", ok,
          f"worst asymmetry={worst:.3e}, tol=1e-12")
    assert ok


def test_criterion_08_node_counts():
    counts = []
    for n in range(4):
        report = deviation_report(
            PotentialParams(m=1.0, a1=0.5, b1=0.5, a2=0.5, b2=0.5), n
        )
        counts.append(report.shooting.node_count)
    ok = counts == [0, 1, 2, 3]
    _line(8, "oracle eigenfunctions carry exactly n nodes", ok,
          f"node counts={counts}")
    assert ok


def test_criterion_09_normalization_cross_check():
    hydrogenic = normalization(PotentialParams(m=1.0, b1=1.0), 1.0)  # c=0, k=2
    rel_1 = abs(hydrogenic.integral - 0.25) / 0.25
    c1 = normalization(PotentialParams(m=1.0, a1=0.5, b1=0.5, a2=0.5, b2=0.5), 1.0)
    rel_2 = abs(c1.integral - 24.0) / 24.0
    params = PotentialParams(m=1.0, b1=0.4, b2=0.2)
    level = max(lvl.energy for lvl in solve_levels(params, 0))
    generic = normalization(params, level)
    rel_3 = abs(generic.integral - generic.closed_form_integral) / generic.closed_form_integral
    worst = max(rel_1, rel_2, rel_3)
    ok = worst < 1e-8
    _line(9, "quadrature matches the Gamma closed form for a = 0", ok,
          f"worst rel err={worst:.3e} (integrals {hydrogenic.integral:.12f}, "
          f"{c1.integral:.9f}), tol=1e-8")
    assert ok


def test_criterion_10_series_consistency():
    gaps_equal = []
    for b1 in (0.1, 0.05):
        params = PotentialParams(m=1.0, b1=b1, b2=b1)
        series = approx_energy(params, 0, "equal_series")
        (exact,) = closed_form(params, 0, "equal").energies
        gaps_equal.append(abs(series - exact))
    gaps_vector = []
    for b2 in (0.2, 0.1, 0.05):
        params = PotentialParams(m=1.0, a2=0.1, b2=b2)
        series = approx_energy(params, 0, "pure_vector_series")
        root = max(lvl.energy for lvl in solve_levels(params, 0))
        gaps_vector.append(abs(series - root))
    ok = (
        gaps_equal[0] < 3e-4
        and gaps_equal[1] < gaps_equal[0]
        and all(b < a for a, b in zip(gaps_vector, gaps_vector[1:]))
    )
    _line(10, "series approximations converge toward the exact forms", ok,
          f"equal gaps={gaps_equal[0]:.3e}->{gaps_equal[1]:.3e} (tol 3e-4), "
          "vector gaps=" + ", ".join(f"{g:.3e}" for g in gaps_vector))
    assert ok


def test_criterion_11_cli_determinism_golden():
    args = [sys.executable, "-m", "kgkratzer", "verify",
            "--suite", "residuals", "--seed", "7", "--cases", "200"]
    first = subprocess.run(args, capture_output=True, text=True)
    second = subprocess.run(args, capture_output=True, text=True)
    golden = GOLDEN.read_text()
    ok = (
        first.returncode == 0
        and first.stdout == second.stdout
        and first.stdout == golden
        and json.loads(first.stdout)["results"]["passed"] is True
    )
    _line(11, "verify --suite residuals --seed 7 is byte-identical to golden", ok,
          f"bytes={len(first.stdout)}, exit={first.returncode}")
    assert ok
