"""The benchmark's workloads: seeded inputs, operations and output checks.

Every workload draws its inputs from ``random.Random("<workload>/<seed>")``
alone, runs closed-loop operations (one at a time, in one process, the next
starting when the previous returns) through the package's public functions
or its command line, and checks every output against ``refs``, which imports
nothing from the package.

This module imports neither numpy nor the package at import time, so that a
fresh interpreter can time ``build()`` as the workload's set-up: the import of
the package plus the generation of the inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import refs

M = 1.0  # rest mass of the oracle and command-line inputs


@dataclass
class Op:
    """One operation: ``key`` names its case, ``call`` runs it, ``check`` judges it."""

    key: str
    call: Callable[[], Any]
    check: Callable[[Any], list]


def _f_problems(label, m, a1, b1, a2, b2, n, energy, rel):
    """Problems if ``energy`` is not a zero of the paper's f(E) to ``rel``."""
    try:
        f = refs.paper_f(m, a1, b1, a2, b2, n, energy)
        scale = refs.paper_f_scale(m, a1, b1, a2, b2, n, energy)
    except ValueError as exc:
        return [f"{label}: f(E) undefined at E={energy!r}: {exc}"]
    if not abs(f) <= rel * scale:
        return [f"{label}: f({energy!r}) = {f!r} for n={n} is not a zero"]
    return []


def _particle_ground_root(m, a1, b1, a2, b2, points=200):
    """Largest zero of f(E) at n = 0 with m b1 + E b2 > 0, or None.

    A coarse scan of (-m, m) followed by bisection of each sign change; used
    to pick inputs and as the reference the program's level must reproduce.
    """
    lo_edge, hi_edge = -m * (1.0 - 1e-9), m * (1.0 - 1e-9)
    grid = [lo_edge + (hi_edge - lo_edge) * i / points for i in range(points + 1)]
    values = [refs.paper_f(m, a1, b1, a2, b2, 0, e) for e in grid]
    best = None
    for e0, e1, f0, f1 in zip(grid, grid[1:], values, values[1:]):
        if (f0 > 0.0) == (f1 > 0.0):
            continue
        lo, hi, f_lo = e0, e1, f0
        while True:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            f_mid = refs.paper_f(m, a1, b1, a2, b2, 0, mid)
            if (f_mid > 0.0) == (f_lo > 0.0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        if m * b1 + root * b2 > 0.0 and (best is None or root > best):
            best = root
    return best


# --------------------------------------------------------------------------
# oracle-manifold and oracle-offmanifold


@dataclass(frozen=True)
class _OracleCase:
    key: str
    couplings: tuple   # (a1, b1, a2, b2)
    n: int
    exact: float
    on_manifold: bool


class _OracleWorkload:
    """deviation_report where the exact Klein-Gordon energy is known."""

    warmup = ()

    def __init__(self, seed):
        import kgkratzer

        self._kg = kgkratzer
        cases = self._cases(random.Random(f"{self.name}/{seed}"))
        self.sequence = [self._op(case) for case in cases]
        self.trace_block = [self.sequence[i] for i in self.trace_indices]

    def _op(self, case):
        a1, b1, a2, b2 = case.couplings
        params = self._kg.PotentialParams(m=M, a1=a1, b1=b1, a2=a2, b2=b2)

        def call():
            return self._kg.oracle.deviation_report(params, case.n)

        def check(report):
            problems = []
            if not abs(report.oracle_energy - case.exact) <= 1e-5:
                problems.append(f"{case.key}: oracle E={report.oracle_energy!r}, "
                                f"exact {case.exact!r}")
            if report.shooting.node_count != case.n:
                problems.append(f"{case.key}: {report.shooting.node_count} nodes, want {case.n}")
            problems += _f_problems(case.key, M, a1, b1, a2, b2, case.n,
                                    report.analytic_energy, 1e-11)
            if case.on_manifold and not abs(report.analytic_energy - case.exact) <= 1e-9:
                problems.append(f"{case.key}: paper level {report.analytic_energy!r} is "
                                f"not the exact {case.exact!r} on the manifold")
            return problems

        return Op(case.key, call, check)


class OracleManifold(_OracleWorkload):
    """V_V = +-V_S, with and without the 1/r^2 terms, n = 0..2: the paper's level is exact."""

    name = "oracle-manifold"
    whole_rounds = False          # the twelve cases cost the same to within ~10%
    trace_indices = (0, 5, 9)

    @staticmethod
    def _cases(rng):
        cases = []
        for sign, label in ((1.0, "equal"), (-1.0, "opposite")):
            for with_a in (False, True):
                for n in range(3):
                    b = rng.uniform(0.35, 0.65)
                    a = rng.uniform(0.3, 0.7) if with_a else 0.0
                    cases.append(_OracleCase(
                        key=f"{label}/{'a' if with_a else 'coulomb'}/n{n}",
                        couplings=(a, b, sign * a, sign * b), n=n,
                        exact=refs.manifold_energy(M, a, b, n, sign), on_manifold=True,
                    ))
        return cases


# Off-manifold Coulomb-plane cases (b1, b2), n = 0.  deviation_report first
# searches E_paper +- 0.4 (m - |E_paper|); the exact level lies 1.4-1.5 such
# half-widths away for the first two (a second, doubled bracket is needed)
# and 0.3-0.6 for the third, across the whole +-0.03 jitter box.
OFF_MANIFOLD_CENTRES = ((0.8, 0.0), (0.8, -0.2), (0.4, 0.2))
OFF_MANIFOLD_JITTER = 0.03


class OracleOffManifold(_OracleWorkload):
    """a1 = a2 = 0 with b1 != +-b2: the paper's level misses, the bracket must widen."""

    name = "oracle-offmanifold"
    whole_rounds = True           # two-bracket and one-bracket cases in a fixed mix
    trace_indices = (0, 1, 2)

    @staticmethod
    def _cases(rng):
        cases = []
        for b1_centre, b2_centre in OFF_MANIFOLD_CENTRES:
            b1 = b1_centre + rng.uniform(-OFF_MANIFOLD_JITTER, OFF_MANIFOLD_JITTER)
            b2 = b2_centre + rng.uniform(-OFF_MANIFOLD_JITTER, OFF_MANIFOLD_JITTER)
            cases.append(_OracleCase(
                key=f"b1={b1_centre}/b2={b2_centre}",
                couplings=(0.0, b1, 0.0, b2), n=0,
                exact=max(refs.coulomb_plane_levels(M, b1, b2, 0)), on_manifold=False,
            ))
        return cases


# --------------------------------------------------------------------------
# analytic-atlas

ATLAS_POOL = 300
ATLAS_NMAX = 10
ATLAS_RADII = tuple(10.0 ** (-2.0 + 4.0 * i / 49) for i in range(50))
MANIFOLD_RADII = (0.5, 1.0, 2.0)


@dataclass(frozen=True)
class _AtlasSet:
    index: int
    m: float
    couplings: tuple   # (a1, b1, a2, b2)
    energy: float      # the sampled admissible energy
    ground: float      # reference particle ground state, n = 0
    plane_ground: float  # the same for the a1 = a2 = 0 projection


def _draw_admissible(rng):
    """One draw the way the package's verify.sample_admissible draws.

    Accepted when every hard bound-state flag holds at the sampled energy
    (a real, centrifugal radicand >= 0, k > 0, E^2 < m^2) and, in addition,
    the n = 0 particle level exists both for the set and for its projection
    onto a1 = a2 = 0, since the atlas needs both ground states.
    """
    while True:
        m = rng.uniform(0.5, 2.0)
        a1 = rng.uniform(0.0, 2.0)
        a2 = rng.uniform(-a1, a1) if a1 > 0.0 else 0.0
        b1 = rng.uniform(-0.9, 0.9)
        b2 = rng.uniform(-0.9, 0.9)
        energy = rng.uniform(-m, m)
        if (a1 * a1 >= a2 * a2 and 0.25 + 2.0 * (m * a1 + energy * a2) >= 0.0
                and m * b1 + energy * b2 > 0.0 and energy * energy < m * m):
            ground = _particle_ground_root(m, a1, b1, a2, b2)
            plane_ground = _particle_ground_root(m, 0.0, b1, 0.0, b2)
            if ground is not None and plane_ground is not None:
                return m, (a1, b1, a2, b2), energy, ground, plane_ground


class AnalyticAtlas:
    """solve_spectrum, closed forms, residual_report and normalization per set."""

    name = "analytic-atlas"
    whole_rounds = True

    def __init__(self, seed):
        import kgkratzer

        self._kg = kgkratzer
        rng = random.Random(f"{self.name}/{seed}")
        self.sequence = [self._op(_AtlasSet(index, *_draw_admissible(rng)))
                         for index in range(ATLAS_POOL)]
        self.warmup = self.sequence[:10]
        self.trace_block = self.sequence[:60]

    @staticmethod
    def _projections(s):
        """The degenerate families the set projects onto, as (case, couplings)."""
        a1, b1, a2, b2 = s.couplings
        return (
            ("coulomb_general", (0.0, b1, 0.0, b2)),
            ("pure_scalar", (a1, b1, 0.0, 0.0)),
            ("pure_vector_coulomb", (0.0, 0.0, 0.0, b2)),
            ("equal", (0.0, b1, 0.0, b1)),
            ("opposite", (0.0, b1, 0.0, -b1)),
        )

    def _op(self, s):
        kg = self._kg
        params = kg.PotentialParams(s.m, *s.couplings)
        plane = kg.PotentialParams(s.m, 0.0, s.couplings[1], 0.0, s.couplings[3])
        projected = [(case, couplings, kg.PotentialParams(s.m, *couplings))
                     for case, couplings in self._projections(s)]
        a1, b1 = s.couplings[0], s.couplings[1]
        manifolds = [kg.PotentialParams(s.m, a1, b1, sign * a1, sign * b1)
                     for sign in (1.0, -1.0)]

        def call():
            run = kg.spectrum.solve_spectrum(params, ATLAS_NMAX)
            closed = [(case, couplings, n, kg.spectrum.closed_form(p, n, case))
                      for case, couplings, p in projected for n in range(ATLAS_NMAX + 1)]
            ground = max(lvl.energy for lvl in run.table[(0, "particle")])
            report = kg.wavefunction.residual_report(params, ground, ATLAS_RADII)
            norm = kg.wavefunction.normalization(plane, s.plane_ground)
            on_manifold = [kg.wavefunction.residual_report(p, s.energy, MANIFOLD_RADII)
                           for p in manifolds]
            return run, closed, ground, report, norm, on_manifold

        def check(output):
            return self._check(s, *output)

        return Op(f"set{s.index}", call, check)

    def _check(self, s, run, closed, ground, report, norm, on_manifold):
        m = s.m
        a1, b1, a2, b2 = s.couplings
        label = f"atlas set {s.index}"
        problems = [f"{label}: level failure {failure}" for failure in run.failures]
        for lvl in run.levels():
            problems += _f_problems(label, m, a1, b1, a2, b2, lvl.n, lvl.energy, 1e-11)
            k = 2.0 * (m * b1 + lvl.energy * b2)
            if abs(k) > 1e-12 and lvl.branch != ("particle" if k > 0.0 else "antiparticle"):
                problems.append(f"{label}: level E={lvl.energy!r} labelled {lvl.branch}, k={k}")
        grounds = [lvl.energy for lvl in run.table[(0, "particle")]]
        if not any(abs(e - s.ground) <= 1e-10 * m for e in grounds):
            problems.append(f"{label}: particle n=0 levels {grounds} miss the reference "
                            f"root {s.ground!r}")
        for case, (c1, d1, c2, d2), n, result in closed:
            for e in result.energies:
                problems += _f_problems(f"{label} {case}", m, c1, d1, c2, d2, n, e, 1e-10)
            if case in ("equal", "opposite") and d1 > 0.0:
                want = refs.coulomb_plane_levels(m, d1, d2, n)
                got = sorted(result.energies)
                if len(got) != len(want) or any(abs(x - y) > 1e-12 * m
                                                 for x, y in zip(got, want)):
                    problems.append(f"{label}: closed_form {case} n={n} gives {got}, "
                                    f"exact {want}")
        m3, m2, scale3, scale2 = refs.mismatch(m, a1, b1, a2, b2, ground)
        if not (abs(report.m3 - m3) <= 1e-12 * scale3 and abs(report.m2 - m2) <= 1e-12 * scale2):
            problems.append(f"{label}: M3/M2 = {report.m3!r}/{report.m2!r}, "
                            f"recomputed {m3!r}/{m2!r}")
        if len(report.eq4_samples) != len(ATLAS_RADII):
            problems.append(f"{label}: {len(report.eq4_samples)} residual samples")
        _, c, k = refs.local_coefficients(m, 0.0, b1, 0.0, b2, s.plane_ground)
        want = refs.gamma_norm_integral(c, k)
        if not abs(norm.integral - want) <= 1e-8 * want:
            problems.append(f"{label}: a = 0 normalization {norm.integral!r}, "
                            f"Gamma form {want!r}")
        for sign, manifold_report in zip((1.0, -1.0), on_manifold):
            _, _, scale3, scale2 = refs.mismatch(m, a1, b1, sign * a1, sign * b1, s.energy)
            if not (abs(manifold_report.m3) <= 1e-14 * scale3
                    and abs(manifold_report.m2) <= 1e-14 * scale2):
                problems.append(f"{label}: M3/M2 = {manifold_report.m3!r}/"
                                f"{manifold_report.m2!r} on V_V = +-V_S")
        return problems


# --------------------------------------------------------------------------
# cli-cold


class CliCold:
    """Fresh ``python -m kgkratzer`` processes for the documented commands."""

    name = "cli-cold"
    whole_rounds = True

    def __init__(self, seed):
        import kgkratzer  # the import a cold command pays is this workload's set-up

        # The child processes import the same copy of the package.
        self._src = os.path.dirname(os.path.dirname(kgkratzer.__file__))
        rng = random.Random(f"{self.name}/{seed}")
        commands = []   # (key, argv, checker)

        while True:
            a1 = rng.uniform(0.2, 1.0)
            a2 = rng.uniform(-0.5 * a1, 0.5 * a1)
            b1 = rng.uniform(0.3, 0.8)
            b2 = rng.uniform(-0.5, 0.5)
            ground = _particle_ground_root(M, a1, b1, a2, b2)
            if ground is not None:
                break
        commands.append(("spectrum",
                         ["spectrum", *self._flags(M, a1, b1, a2, b2), "--nmax", "20"],
                         self._check_spectrum((M, a1, b1, a2, b2), ground)))

        commands.append(("verify-residuals",
                         ["verify", "--suite", "residuals", "--seed", "7", "--cases", "200"],
                         self._check_residuals))
        commands.append(("verify-manifolds", ["verify", "--suite", "manifolds"],
                         self._check_manifolds))
        commands.append(("verify-limits", ["verify", "--suite", "limits"], self._check_passed))

        scan_a1 = rng.uniform(0.2, 1.0)
        scan_a2 = rng.uniform(-0.5 * scan_a1, 0.5 * scan_a1)
        scan_b2 = rng.uniform(-0.5, 0.5)
        commands.append(("scan",
                         ["scan", "--m", repr(M), "--a1", repr(scan_a1), "--a2", repr(scan_a2),
                          "--b2", repr(scan_b2), "--param", "b1", "--from", "0.1",
                          "--to", "0.9", "--steps", "200"],
                         self._check_scan((M, scan_a1, scan_a2, scan_b2))))

        wave_b1 = rng.uniform(0.3, 0.8)
        wave_b2 = rng.uniform(-0.4, 0.4)
        commands.append(("wavefunction",
                         ["wavefunction", *self._flags(M, 0.0, wave_b1, 0.0, wave_b2),
                          "--e", "auto", "--rmin", "0.1", "--rmax", "20",
                          "--points", "2000", "--normalize"],
                         self._check_wavefunction((M, 0.0, wave_b1, 0.0, wave_b2))))

        equal_b = rng.uniform(0.2, 0.9)
        equal_n = rng.randrange(3)
        commands.append(("energy-closed-equal",
                         ["energy", "--m", repr(M), "--b1", repr(equal_b), "--b2", repr(equal_b),
                          "--n", str(equal_n), "--method", "closed:equal"],
                         self._check_equal(equal_b, equal_n)))

        self.sequence = [self._cold_op(*command) for command in commands]
        self.warmup = self.sequence[-1:]
        self.trace_block = [self._warm_op(*command) for command in commands]

    @staticmethod
    def _flags(m, a1, b1, a2, b2):
        return ["--m", repr(m), "--a1", repr(a1), "--b1", repr(b1),
                "--a2", repr(a2), "--b2", repr(b2)]

    def _cold_op(self, key, argv, checker):
        env = dict(os.environ, PYTHONPATH=self._src)

        def call():
            proc = subprocess.run([sys.executable, "-m", "kgkratzer", *argv],
                                  capture_output=True, text=True, env=env, timeout=120)
            if proc.returncode != 0:
                raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[:300]}")
            return proc.stdout

        return Op(key, call, lambda stdout: self._judge(key, stdout, checker))

    def _warm_op(self, key, argv, checker):
        """The same command through ``kgkratzer.cli.main`` in this process."""
        import kgkratzer.cli as cli_module

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_module.main(argv)
            if code != 0:
                raise RuntimeError(f"exit {code}: {err.getvalue().strip()[:300]}")
            return out.getvalue()

        return Op(key, call, lambda stdout: self._judge(key, stdout, checker))

    @staticmethod
    def _judge(key, stdout, checker):
        try:
            document = json.loads(stdout)
        except ValueError as exc:
            return [f"{key}: stdout is not JSON: {exc}"]
        return [f"{key}: {problem}" for problem in checker(document["results"])]

    @staticmethod
    def _check_spectrum(params, ground):
        def check(results):
            levels = results["levels"]
            problems = []
            for lvl in levels:
                problems += _f_problems("level", *params, lvl["n"], float(lvl["E"]), 1e-11)
            grounds = [float(lvl["E"]) for lvl in levels
                       if lvl["n"] == 0 and lvl["branch"] == "particle"]
            if not any(abs(e - ground) <= 1e-10 for e in grounds):
                problems.append(f"particle n=0 levels {grounds} miss the reference {ground!r}")
            if sorted({lvl["n"] for lvl in levels}) != list(range(21)):
                problems.append("levels do not cover n = 0..20")
            return problems
        return check

    @staticmethod
    def _check_passed(results):
        return [] if results["passed"] is True else ["suite did not pass"]

    @classmethod
    def _check_residuals(cls, results):
        problems = cls._check_passed(results)
        atlas = results["m3_m2_atlas"]
        if len(atlas) != 200:
            problems.append(f"{len(atlas)} atlas entries, want 200")
        for entry in atlas:
            values = [float(entry[key]) for key in ("m", "a1", "b1", "a2", "b2", "energy")]
            m3, m2, scale3, scale2 = refs.mismatch(*values)
            if not (abs(float(entry["m3"]) - m3) <= 1e-12 * scale3
                    and abs(float(entry["m2"]) - m2) <= 1e-12 * scale2):
                problems.append(f"atlas M3/M2 {entry['m3']}/{entry['m2']} != {m3!r}/{m2!r}")
        return problems

    @classmethod
    def _check_manifolds(cls, results):
        problems = cls._check_passed(results)
        atlas = results["m3_m2_atlas"]
        if not atlas:
            problems.append("empty manifold atlas")
        for entry in atlas:
            if abs(float(entry["m3"])) > 1e-14 or abs(float(entry["m2"])) > 1e-14:
                problems.append(f"{entry['case']}: M3/M2 = {entry['m3']}/{entry['m2']} "
                                "on V_V = +-V_S")
        return problems

    @staticmethod
    def _check_scan(base):
        m, a1, a2, b2 = base

        def check(results):
            rows = results["rows"]
            problems = [] if rows else ["no scan rows"]
            for row in rows:
                problems += _f_problems(f"b1={row['value']}", m, a1, float(row["value"]), a2, b2,
                                        row["n"], float(row["E"]), 1e-11)
            return problems
        return check

    @staticmethod
    def _check_wavefunction(params):
        m, a1, b1, a2, b2 = params

        def check(results):
            energy = float(results["energy"])
            problems = _f_problems("energy", m, a1, b1, a2, b2, 0, energy, 1e-11)
            ground = _particle_ground_root(m, a1, b1, a2, b2)
            if ground is None or abs(energy - ground) > 1e-10:
                problems.append(f"energy {energy!r} is not the particle ground state {ground!r}")
            _, c, k = refs.local_coefficients(m, a1, b1, a2, b2, energy)
            norm = 1.0 / math.sqrt(refs.gamma_norm_integral(c, k))
            got_norm = float(results["norm_constant"])
            if not abs(got_norm - norm) <= 1e-8 * norm:
                problems.append(f"norm constant {got_norm!r}, Gamma form {norm!r}")
            rows = results["rows"]
            if len(rows) != 2000:
                problems.append(f"{len(rows)} rows, want 2000")
            for row in rows:
                r = float(row["r"])
                chi, phi = refs.ground_state(m, a1, b1, a2, b2, energy, r)
                got = (float(row["chi"]), float(row["phi"]), float(row["psi"]))
                want = (chi, phi, norm * chi * phi)
                # psi carries the quadrature's constant, hence the looser bound.
                if any(abs(x - y) > tol * abs(y)
                       for x, y, tol in zip(got, want, (1e-12, 1e-12, 1e-8))):
                    problems.append(f"row r={row['r']}: chi/phi/psi {got} != {want}")
                    break
            return problems
        return check

    @staticmethod
    def _check_equal(b, n):
        def check(results):
            energy = float(results["E"])
            want = refs.coulomb_plane_levels(M, b, b, n)
            problems = _f_problems("closed:equal", M, 0.0, b, 0.0, b, n, energy, 1e-12)
            if len(want) != 1 or abs(energy - want[0]) > 1e-12:
                problems.append(f"E={energy!r}, exact {want}")
            return problems
        return check


WORKLOADS = {
    "oracle-manifold": OracleManifold,
    "oracle-offmanifold": OracleOffManifold,
    "analytic-atlas": AnalyticAtlas,
    "cli-cold": CliCold,
}


def build(name, seed):
    """Import the package and generate one workload's inputs: the set-up."""
    return WORKLOADS[name](seed)
