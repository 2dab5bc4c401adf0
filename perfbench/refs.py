"""Reference values for the benchmark's correctness checks.

Every formula here is written from the physics of the Klein-Gordon equation
with Kratzer potentials (natural units, s-wave),

    psi'' = [(m + V_S)^2 - (E - V_V)^2] psi,
    V_S = a1/r^2 - b1/r,   V_V = a2/r^2 - b2/r,

and imports nothing from ``kgkratzer``: the benchmark must be able to catch
the program being wrong.  Run ``python3 perfbench/refs.py`` to execute the
self-test of these references on its own; ``perfbench/run.py`` runs the same
self-test at the start of every run.
"""

from __future__ import annotations

import math

_EPS = 2.220446049250313e-16


def paper_f(m, a1, b1, a2, b2, n, energy):
    """The paper's implicit spectrum function; its zeros are the levels.

    f(E) = E^2 - m^2 + 4 (m b1 + E b2)^2 / (2n + 1 + sqrt(1 + 8 (m a1 + E a2)))^2
    """
    d = 2.0 * n + 1.0 + math.sqrt(1.0 + 8.0 * (m * a1 + energy * a2))
    s = m * b1 + energy * b2
    return energy * energy - m * m + 4.0 * s * s / (d * d)


def paper_f_scale(m, a1, b1, a2, b2, n, energy):
    """Largest term of f(E); a zero of f is judged relative to it."""
    d = 2.0 * n + 1.0 + math.sqrt(1.0 + 8.0 * (m * a1 + energy * a2))
    s = m * b1 + energy * b2
    return max(energy * energy, m * m, 4.0 * s * s / (d * d))


def coulomb_plane_levels(m, b1, b2, n):
    """Exact Klein-Gordon energies on a1 = a2 = 0, ascending.

    The radial equation is hydrogen-like with l(l+1) = b1^2 - b2^2, so
    m^2 - E^2 = (m b1 + E b2)^2 / N^2 with N = n + 1/2 + sqrt(1/4 + b1^2 - b2^2).
    Solving the quadratic gives E = m (-b1 b2 +- N sqrt(N^2 + b2^2 - b1^2)) / (N^2 + b2^2);
    a root is physical when |E| < m and the Coulomb strength m b1 + E b2 > 0.
    """
    q = b1 * b1 - b2 * b2
    if q <= -0.25:
        raise ValueError(f"b1^2 - b2^2 = {q} <= -1/4: fall to center")
    big_n = n + 0.5 + math.sqrt(0.25 + q)
    disc = big_n * big_n + b2 * b2 - b1 * b1
    if disc < 0.0:
        return []
    denom = big_n * big_n + b2 * b2
    roots = [m * (-b1 * b2 + sign * big_n * math.sqrt(disc)) / denom for sign in (-1.0, 1.0)]
    return sorted(e for e in roots
                  if abs(e) < m * (1.0 - 1e-12) and m * b1 + e * b2 > 1e-12 * m)


def manifold_energy(m, a, b, n, sign):
    """Exact energy on V_V = sign * V_S with V_S = a/r^2 - b/r (a >= 0, b > 0).

    With V_V = +-V_S the V^2 terms cancel: psi'' = [m^2 - E^2 + 2 (m +- E) V_S] psi,
    hydrogen-like with l(l+1) = 2a (m +- E).  Hence
        m -+ E = (m +- E) b^2 / N^2,   N = n + 1/2 + sqrt(1/4 + 2a (m +- E)),
    solved here by bisection on (-m, m).
    """
    if a < 0.0 or b <= 0.0 or sign not in (1.0, -1.0):
        raise ValueError("manifold reference needs a >= 0, b > 0 and sign = +-1")

    def g(e):
        along = m + sign * e      # m + E on V_V = V_S, m - E on V_V = -V_S
        across = m - sign * e
        big_n = n + 0.5 + math.sqrt(0.25 + 2.0 * a * along)
        return across - along * b * b / (big_n * big_n)

    lo, hi = -m, m
    g_lo = g(lo)
    if g_lo == 0.0 or (g_lo > 0.0) == (g(hi) > 0.0):
        raise ValueError("manifold reference: no sign change on (-m, m)")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        g_mid = g(mid)
        if g_mid == 0.0:
            return mid
        if (g_mid > 0.0) == (g_lo > 0.0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def local_coefficients(m, a1, b1, a2, b2, energy):
    """(a, c, k): decay strength, centrifugal index and Coulomb strength.

    a = sqrt(a1^2 - a2^2), c = -1/2 + sqrt(1/4 + 2 (m a1 + E a2)), k = 2 (m b1 + E b2).
    """
    a = math.sqrt(a1 * a1 - a2 * a2)
    c = -0.5 + math.sqrt(0.25 + 2.0 * (m * a1 + energy * a2))
    k = 2.0 * (m * b1 + energy * b2)
    return a, c, k


def mismatch(m, a1, b1, a2, b2, energy):
    """(M3, M2, scale3, scale2) of the factorized state's residual.

    M3 = 2 a c + 2 (a1 b1 - a2 b2),  M2 = -a k / (c + 1) - (b1^2 - b2^2);
    the scales are the largest terms, against which a difference is judged.
    """
    a, c, k = local_coefficients(m, a1, b1, a2, b2, energy)
    m3 = 2.0 * a * c + 2.0 * (a1 * b1 - a2 * b2)
    m2 = -a * k / (c + 1.0) - (b1 * b1 - b2 * b2)
    scale3 = max(abs(2.0 * a * c), 2.0 * abs(a1 * b1), 2.0 * abs(a2 * b2), 1e-300)
    scale2 = max(abs(a * k / (c + 1.0)), b1 * b1, b2 * b2, 1e-300)
    return m3, m2, scale3, scale2


def ground_state(m, a1, b1, a2, b2, energy, r):
    """(chi, phi) of psi = r^(c+1) exp(-k r / (2 (c + 1))) * exp(-a / r)."""
    a, c, k = local_coefficients(m, a1, b1, a2, b2, energy)
    chi = r ** (c + 1.0) * math.exp(-k * r / (2.0 * (c + 1.0)))
    return chi, math.exp(-a / r)


def gamma_norm_integral(c, k):
    """Integral of psi^2 over (0, inf) when a = 0: Gamma(2c+3) ((c+1)/k)^(2c+3)."""
    return math.gamma(2.0 * c + 3.0) * ((c + 1.0) / k) ** (2.0 * c + 3.0)


def self_test():
    """Check the references against each other and against known limits.

    Returns a list of failure messages; empty means every check held.
    """
    failures = []

    def expect(ok, message):
        if not ok:
            failures.append(message)

    # Coulomb plane at b1 = b2 = b: E = m (nu^2 - b^2) / (nu^2 + b^2), nu = n + 1.
    for m in (0.5, 1.0, 1.7):
        for b in (0.1, 0.45, 0.9):
            for n in range(4):
                nu = n + 1.0
                want = m * (nu * nu - b * b) / (nu * nu + b * b)
                got = coulomb_plane_levels(m, b, b, n)
                expect(len(got) == 1 and abs(got[0] - want) <= 4 * _EPS * m,
                       f"coulomb plane at b1=b2={b}, n={n}: {got} != {want}")

    # Manifold roots satisfy the paper's f(E) to 1e-12; at a = 0 they equal
    # the Coulomb-plane energies.
    for m in (0.7, 1.0, 1.9):
        for a in (0.0, 0.35, 1.2):
            for b in (0.2, 0.55, 0.85):
                for sign in (1.0, -1.0):
                    for n in range(3):
                        e = manifold_energy(m, a, b, n, sign)
                        f = paper_f(m, a, b, sign * a, sign * b, n, e)
                        scale = paper_f_scale(m, a, b, sign * a, sign * b, n, e)
                        expect(abs(f) <= 1e-12 * scale,
                               f"manifold root {e} leaves f = {f} (a={a}, b={b}, sign={sign})")
                        if a == 0.0:
                            coulomb = coulomb_plane_levels(m, b, sign * b, n)
                            expect(len(coulomb) == 1 and abs(coulomb[0] - e) <= 1e-14 * m,
                                   f"manifold a=0 root {e} != Coulomb plane {coulomb}")

    # M3 and M2 vanish identically on V_V = +-V_S.
    for a in (0.0, 0.5, 1.5):
        for b in (0.2, 0.8):
            for sign in (1.0, -1.0):
                m3, m2, s3, s2 = mismatch(1.0, a, b, sign * a, sign * b, 0.3)
                expect(abs(m3) <= 1e-15 * s3 and abs(m2) <= 1e-15 * s2,
                       f"M3/M2 = {m3}/{m2} on the manifold a={a}, b={b}, sign={sign}")

    # The Gamma form equals the integral of r^(2c+2) exp(-k r/(c+1)) done
    # numerically: the trapezoidal rule in t = log r, whose integrand decays
    # double-exponentially, converges geometrically.
    for c, k in ((0.0, 0.3), (0.4, 1.3), (1.7, 2.5)):
        h, total = 0.01, 0.0
        for i in range(-4000, 2001):
            r = math.exp(i * h)
            total += r ** (2.0 * c + 3.0) * math.exp(-k * r / (c + 1.0))
        total *= h
        want = gamma_norm_integral(c, k)
        expect(abs(total / want - 1.0) <= 1e-10,
               f"Gamma form {want} != trapezoid {total} at c={c}, k={k}")
    return failures


if __name__ == "__main__":
    problems = self_test()
    for line in problems:
        print("FAIL:", line)
    print("reference self-test:", "FAIL" if problems else "ok")
    raise SystemExit(1 if problems else 0)
