#!/usr/bin/env python3
"""Benchmark the compiled integration kernel against the pure-Python fallback.

The shooting integrator is the only hot loop in the package: one defect
evaluation integrates the radial equation several hundred adaptive steps in
each direction.  An eigensolve needs 5 defect evaluations when its bracket is
centred on the level, as ``deviation_report`` centres it on an exact analytic
level, and more when the midpoint misses: the off-centre brackets below take
9-11.  Everything else (root scans, residual algebra, quadrature) is
negligible by comparison.

Usage: python benchmarks/bench_backends.py [--repeat N]
"""

from __future__ import annotations

import argparse
import time

from kgkratzer import GridConfig, PotentialParams, _radial_py
from kgkratzer import oracle

try:
    from kgkratzer import _radial_cy

    BACKENDS = [("cython", _radial_cy), ("python", _radial_py)]
except ImportError:
    print("compiled kernel not built; benchmarking the fallback only")
    BACKENDS = [("python", _radial_py)]

EQUAL_A = PotentialParams(m=1.0, a1=0.5, b1=0.5, a2=0.5, b2=0.5)
VECTOR = PotentialParams(m=1.0, b2=0.3)


def bench_raw_sweeps(module, repeat: int) -> tuple[float, int]:
    """Time `repeat` outward sweeps of a representative trial energy."""
    energy = 0.85
    kappa2 = 1.0 - energy * energy
    q1 = -2.0 * (0.5 + energy * 0.5)
    q2 = 2.0 * (0.5 + energy * 0.5)
    total_steps = 0
    start = time.perf_counter()
    for _ in range(repeat):
        _, _, _, status, steps = module.sweep(
            kappa2, q1, q2, 0.0, 0.0,
            1e-4, 60.0, 1.0, 1.5e4, 0.015, 1e-10, 10 ** 7,
        )
        assert status == 0
        total_steps += steps
    return time.perf_counter() - start, total_steps


def bench_eigensolve(module, params, n, bracket) -> tuple[float, float]:
    """Time one full eigensolve with the given kernel patched in."""
    saved_sweep, saved_u = oracle.sweep, oracle.u_eval
    oracle.sweep, oracle.u_eval = module.sweep, module.u_eval
    try:
        start = time.perf_counter()
        result = oracle.kg_eigensolve(params, n, bracket, GridConfig())
        elapsed = time.perf_counter() - start
        assert result is not None
        return elapsed, result.energy
    finally:
        oracle.sweep, oracle.u_eval = saved_sweep, saved_u


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=20,
                        help="raw sweeps per backend (default 20)")
    args = parser.parse_args()

    print(f"{'benchmark':<34}" + "".join(f"{name:>14}" for name, _ in BACKENDS)
          + ("   speedup" if len(BACKENDS) == 2 else ""))

    rows = []
    raw = [bench_raw_sweeps(module, args.repeat) for _, module in BACKENDS]
    rows.append(("raw sweep, ms/call",
                 [1e3 * t / args.repeat for t, _ in raw]))

    cases = [
        ("eigensolve equal manifold n=0", EQUAL_A, 0, (0.80, 0.95)),
        ("eigensolve equal manifold n=2", EQUAL_A, 2, (0.93, 0.99)),
        ("eigensolve vector coulomb n=0", VECTOR, 0, (0.90, 0.99)),
    ]
    energies = {}
    for label, params, n, bracket in cases:
        timings = []
        for name, module in BACKENDS:
            elapsed, energy = bench_eigensolve(module, params, n, bracket)
            timings.append(1e3 * elapsed)
            energies.setdefault(label, {})[name] = energy
        rows.append((label + ", ms", timings))

    for label, timings in rows:
        line = f"{label:<34}" + "".join(f"{t:>14.2f}" for t in timings)
        if len(timings) == 2:
            line += f"{timings[1] / timings[0]:>9.1f}x"
        print(line)

    if len(BACKENDS) == 2:
        print("\neigenvalue agreement between backends:")
        for label, values in energies.items():
            gap = abs(values["cython"] - values["python"])
            print(f"  {label}: |dE| = {gap:.3e}")


if __name__ == "__main__":
    main()
