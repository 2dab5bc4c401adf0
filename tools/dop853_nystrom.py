#!/usr/bin/env python3
"""Print the Nystrom-form DOP853 stages that ``kgkratzer._radial.sweep`` inlines.

    python tools/dop853_nystrom.py

For psi'' = f(r, psi) the first-order DOP853 step on (psi, psi') reduces to

    psi_i   = psi + c_i h psi' + h^2 sum_k (A^2)_ik f_k,   f_k = U(r_k) psi_k
    psi_new = psi + h psi' + h^2 (b A) . f
    dpsi    = psi' + h b . f

and the 5th- and 3rd-order error estimates of psi and psi' are h^2 (E A) . f
and h E . f, because E5 and E3 each sum to zero.  The tableau is read as
decimal text from SciPy's 30-digit ``dop853_coefficients.py`` (Hairer,
Norsett & Wanner, Solving ODEs I, sec. II.10), the products are formed in
50-digit mpmath arithmetic and each is rounded once to the nearest double.
Needs scipy and mpmath; the package itself uses neither.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import mpmath

mpmath.mp.dps = 50

STAGES = 12


def _tableau():
    """(c, A, b, E5, E3) as mpf values from the decimal text of SciPy's file."""
    spec = importlib.util.find_spec("scipy.integrate._ivp")
    source = (Path(spec.origin).parent / "dop853_coefficients.py").read_text()
    tree = ast.parse(source)
    a = {}
    e3_corrections = {}
    e5 = [mpmath.mpf(0)] * (STAGES + 1)
    c = None

    def number(node):
        return mpmath.mpf(ast.get_source_segment(source, node).replace(" ", ""))

    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name):
            if stmt.targets[0].id == "C":
                c = [number(elt) for elt in stmt.value.args[0].elts]
        elif isinstance(stmt, (ast.Assign, ast.AugAssign)):
            target = stmt.targets[0] if isinstance(stmt, ast.Assign) else stmt.target
            if not isinstance(target, ast.Subscript):
                continue
            name = target.value.id
            if name == "A":
                a[ast.literal_eval(target.slice)] = number(stmt.value)
            elif name == "E5":
                e5[ast.literal_eval(target.slice)] = number(stmt.value)
            elif name == "E3" and isinstance(stmt, ast.AugAssign):
                e3_corrections[ast.literal_eval(target.slice)] = number(stmt.value)
    matrix = [[a.get((i, j), mpmath.mpf(0)) for j in range(STAGES)] for i in range(STAGES)]
    b = [a.get((STAGES, j), mpmath.mpf(0)) for j in range(STAGES)]
    e3 = [b[j] - e3_corrections.get(j, 0) for j in range(STAGES)]
    return c[:STAGES], matrix, b, e5[:STAGES], e3


def _times(row, matrix):
    return [mpmath.fsum(row[j] * matrix[j][k] for j in range(STAGES)) for k in range(STAGES)]


def _combination(weights):
    """Terms of sum_k w_k f_k as Python source.  A weight below 1e-25 is a zero
    of the exact tableau that its 30-digit decimals leave as rounding residue."""
    terms = [(repr(float(w)), k) for k, w in enumerate(weights) if abs(w) > 1e-25]
    parts = []
    for i, (text, k) in enumerate(terms):
        if i == 0:
            parts.append(f"{text} * f{k}")
        elif text.startswith("-"):
            parts.append(f"- {text[1:]} * f{k}")
        else:
            parts.append(f"+ {text} * f{k}")
    return parts


def _wrap(head, parts, tail, indent):
    """head + parts + tail, broken before a part that would pass 88 columns."""
    lines = [head + parts[0]]
    for part in parts[1:]:
        if len(lines[-1]) + 1 + len(part) + len(tail) > 88:
            lines.append(" " * indent + part)
        else:
            lines[-1] += " " + part
    lines[-1] += tail
    return lines


def main():
    c, matrix, b, e5, e3 = _tableau()
    # The sums hold to the tableau's 28 to 30 digits.
    for name, vector in (("b", b), ("E5", e5), ("E3", e3)):
        total = mpmath.fsum(vector)
        expected = 1 if name == "b" else 0
        if abs(total - expected) > mpmath.mpf(10) ** -26:
            raise SystemExit(f"sum of {name} is {total}, not {expected}")
    square = [_times(row, matrix) for row in matrix]
    pad = " " * 8
    lines = []
    for i in range(1, STAGES):
        ci = repr(float(c[i]))
        radius = "r + h" if c[i] == 1 else f"r + {ci} * h"
        lines.append(f"{pad}s = {radius}")
        if i == STAGES - 1:
            lines.append(f"{pad}u_end = kappa2 + (q1 + (q2 + (q3 + q4 / s) / s) / s) / s")
            lines.append(f"{pad}f{i} = u_end * (")
        else:
            lines.append(f"{pad}f{i} = (kappa2 + (q1 + (q2 + (q3 + q4 / s) / s) / s) / s) * (")
        drift = "hdy" if c[i] == 1 else f"{ci} * hdy"
        parts = _combination(square[i])
        if not parts:
            lines.append(f"{pad}    y + {drift})")
            continue
        lines += _wrap(f"{pad}    y + {drift} + h2 * (", parts, "))", len(pad) + 8)
    for name, weights, lead in (
        ("y_new", _times(b, matrix), "y + hdy + h2 * ("),
        ("v_new", b, "dy + h * ("),
        ("e5_y", _times(e5, matrix), "h2 * ("),
        ("e5_v", e5, "h * ("),
        ("e3_y", _times(e3, matrix), "h2 * ("),
        ("e3_v", e3, "h * ("),
    ):
        lines += _wrap(f"{pad}{name} = {lead}", _combination(weights), ")", len(pad) + 4)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
