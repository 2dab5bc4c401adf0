"""Command-line front end: spectra, wavefunction tables, verification reports.

Output contract:
* JSON documents have the top-level shape {"request", "results",
  "diagnostics", "version"} with every float rendered as a decimal string of
  17 significant digits and keys emitted in sorted order, so identical
  requests produce byte-identical bytes.
* CSV output is the JSON result rows projected onto a header: RFC-4180-style,
  one header row, and in each cell the row's JSON string for that column, or
  an empty cell where the JSON holds null or has no such key.
* Diagnostics go to stderr, one line each, prefixed WARN: or ERROR:.

Exit codes: 0 success, 2 invalid parameters, 3 no bound state found,
4 convergence failure (and 1 for a verification suite that ran but failed).

Integer flags are bounded so that no request can ask for unbounded work or
memory: spectrum --nmax and --n (on energy, wavefunction and scan) in
[0, 1000], wavefunction --points in [2, 1000000], scan --steps in
[1, 10000] and verify --cases in [0, 100000].  A value outside its range
exits 2, and so does a config value that its flag's type cannot hold.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict

from . import __version__
from .errors import (
    ConvergenceError,
    DomainError,
    FallToCenterError,
    NoBoundStateError,
)
from .model import PotentialParams, admissibility, in_units_of_m
from .oracle import deviation_report
from .spectrum import (
    CLOSED_FORM_CASES,
    SERIES_CASES,
    approx_energy,
    classify_branch,
    closed_form,
    select_level,
    solve_levels,
    solve_spectrum,
    spectrum_residual,
)
from .verify import run_suite
from .wavefunction import eval_ground_state, normalization

_PARAM_KEYS = ("m", "a1", "b1", "a2", "b2")


def _fmt(value):
    """17-significant-digit decimal string; round-trip stable across platforms."""
    value = float(value)
    if value == 0.0:
        value = 0.0  # normalize -0.0
    return format(value, ".17g")


def _stringify(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, dict):
        return {key: _stringify(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_stringify(item) for item in obj]
    return obj


class _Diagnostics:
    def __init__(self):
        self.lines: list[str] = []

    def warn(self, message: str):
        line = f"WARN: {message}"
        self.lines.append(line)
        print(line, file=sys.stderr)

    def error(self, message: str):
        line = f"ERROR: {message}"
        self.lines.append(line)
        print(line, file=sys.stderr)


def _load_config(path):
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise DomainError(f"config file {path} must contain a JSON object")
    return data


def _integer(value) -> int:
    """int() that refuses to truncate: 2.0 reads as 2, 1.9 is an error."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("not an integer")
    return int(value)


def _resolve(ns, config, key, default=None, cast=None):
    """Flag wins over config file; config wins over the built-in default.

    A JSON null in the config counts as absent, so the default applies.
    """
    value = getattr(ns, key.replace("-", "_"), None)
    if value is None:
        value = config.get(key)
    if value is None:
        value = default
    if value is None or cast is None:
        return value
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"config key {key!r}: cannot read {value!r}: {exc}") from exc


def _count(ns, config, key, least, cap, default=None) -> int:
    """An integer flag, resolved like any other, that must lie in [least, cap]."""
    value = _resolve(ns, config, key, default=default, cast=_integer)
    if value is None:
        raise DomainError(f"--{key} is required")
    if not least <= value <= cap:
        raise DomainError(f"--{key} must be in [{least}, {cap}], got {value}")
    return value


def _params_from(ns, config, **overrides) -> PotentialParams:
    """Couplings from flags, config and defaults; ``overrides`` win over all."""
    values = {}
    for key in _PARAM_KEYS:
        value = overrides.get(key)
        if value is None:
            default = None if key == "m" else 0.0
            value = _resolve(ns, config, key, default=default, cast=float)
        if value is None:
            raise DomainError(f"missing required parameter --{key}")
        values[key] = value
    return PotentialParams(**values)


def _require_real_a(params: PotentialParams):
    if abs(params.a1) < abs(params.a2):
        raise DomainError("a imaginary: a1^2 < a2^2")


def _level_dict(level) -> dict:
    return {
        "n": level.n,
        "branch": level.branch,
        "E": level.energy,
        "method": level.method,
        "residual": level.residual,
        "iterations": level.iterations,
        "admissibility": asdict(level.admissibility),
    }


def _request(ns, config, subcommand, params, fmt=None, **options) -> dict:
    """The request block: --format and --output resolved once, unset values dropped."""
    request = {
        "subcommand": subcommand,
        "format": fmt or _resolve(ns, config, "format", default="json"),
        "output": _resolve(ns, config, "output") or None,
        "params": params,
        **options,
    }
    return {key: value for key, value in request.items() if value is not None}


def _emit(request: dict, results, diag, header=(), rows=()):
    """Write the JSON document, or the rows projected onto the CSV header.

    A CSV cell is the row's JSON string for its column; csv writes None, a
    null or missing value, as an empty cell.
    """
    if request["format"] == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows([_stringify(row.get(key)) for key in header] for row in rows)
        payload = buffer.getvalue()
    else:
        document = {"request": request, "results": results,
                    "diagnostics": diag.lines, "version": __version__}
        payload = json.dumps(_stringify(document), indent=2, sort_keys=True) + "\n"
    output = request.get("output")
    if output:
        with open(output, "w", encoding="utf-8", newline="") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)


def _cmd_spectrum(ns, config, diag) -> int:
    params = _params_from(ns, config)
    _require_real_a(params)
    n_max = _count(ns, config, "nmax", 0, 1000)
    branch = _resolve(ns, config, "branch", default="all")

    run = solve_spectrum(params, n_max)
    levels = run.levels()
    if branch != "all":
        levels = [lvl for lvl in levels if lvl.branch == branch]
    for n, message in run.failures:
        diag.warn(f"level n={n}: {message}")

    rows = [_level_dict(lvl) for lvl in levels]
    _emit(_request(ns, config, "spectrum", asdict(params), nmax=n_max, branch=branch),
          {"levels": rows}, diag, ("n", "branch", "E", "method", "residual"), rows)
    if run.failures:
        return 4
    if not levels:
        diag.error("no bound state found in the requested range")
        return 3
    return 0


def _parse_method(raw: str):
    if raw == "implicit" or raw == "oracle":
        return raw, None
    for prefix, cases in (("closed:", CLOSED_FORM_CASES), ("approx:", SERIES_CASES)):
        if raw.startswith(prefix):
            case = raw[len(prefix):]
            if case not in cases:
                raise DomainError(f"unknown case {case!r} for {prefix[:-1]} method")
            return prefix[:-1], case
    raise DomainError(
        f"unknown method {raw!r}; expected implicit, closed:<case>, "
        "approx:<case> or oracle"
    )


def _level(params, n, branch):
    """The level of ``branch`` that the spectrum reports at n."""
    level = select_level(solve_levels(params, n), branch)
    if level is None:
        raise NoBoundStateError(f"no {branch} root of the spectrum equation at n={n}")
    return level


def _cmd_energy(ns, config, diag) -> int:
    params = _params_from(ns, config)
    n = _count(ns, config, "n", 0, 1000)
    method_raw = _resolve(ns, config, "method", default="implicit")
    branch = _resolve(ns, config, "branch", default="particle")
    compare = _resolve(ns, config, "compare")
    method, case = _parse_method(method_raw)
    if method in ("implicit", "oracle") or compare == "oracle":
        _require_real_a(params)

    record: dict = {"n": n}
    if method == "implicit":
        level = _level(params, n, branch)
        record.update(_level_dict(level))
        energy = level.energy
    elif method == "closed":
        result = closed_form(params, n, case)
        for note in result.notes:
            diag.warn(note)
        chosen = [e for e in result.energies if classify_branch(params, e) == branch]
        if not chosen:
            raise NoBoundStateError(
                f"closed form {case!r} yields no {branch} level at n={n}"
            )
        energy = max(chosen) if branch == "particle" else min(chosen)
        record.update({"branch": branch, "E": energy, "method": "closed_form",
                       "case": case,
                       "admissibility": asdict(admissibility(params, energy))})
    elif method == "approx":
        energy = approx_energy(params, n, case)
        record.update({"branch": classify_branch(params, energy), "E": energy,
                       "method": "series_approx", "case": case})
    else:  # oracle
        report = deviation_report(params, n, branch=branch)
        energy = report.oracle_energy
        record.update({"branch": branch, "E": energy, "method": "oracle",
                       "node_count": report.shooting.node_count,
                       "match_defect": report.shooting.match_defect})

    try:
        record["residual"] = abs(spectrum_residual(in_units_of_m(params), n, energy / params.m))
    except DomainError:
        pass

    if compare == "oracle" and method != "oracle":
        try:
            report = deviation_report(params, n, branch=branch)
        except (FallToCenterError, NoBoundStateError) as exc:
            # The oracle cannot integrate a supercritical origin, or finds no
            # level with n nodes; the analytic result stands on its own, with
            # no comparison.
            diag.warn(str(exc))
            record["E_oracle"] = record["deviation"] = None
        else:
            record["E_oracle"] = report.oracle_energy
            record["deviation"] = abs(energy - report.oracle_energy)

    _emit(_request(ns, config, "energy", asdict(params), n=n, method=method_raw,
                   branch=branch, compare=compare),
          record, diag,
          ("n", "branch", "E", "method", "residual", "E_oracle", "deviation"), [record])
    return 0


def _cmd_wavefunction(ns, config, diag) -> int:
    params = _params_from(ns, config)
    _require_real_a(params)
    raw_e = _resolve(ns, config, "e", default="auto")
    n = _count(ns, config, "n", 0, 1000, default=0)
    r_min = _resolve(ns, config, "rmin", cast=float)
    r_max = _resolve(ns, config, "rmax", cast=float)
    points = _count(ns, config, "points", 2, 1_000_000, default=101)
    normalize = bool(_resolve(ns, config, "normalize", default=False))
    if r_min is None or r_max is None:
        raise DomainError("--rmin and --rmax are required")
    if not (0.0 < r_min < r_max):
        raise DomainError(f"need 0 < rmin < rmax, got rmin={r_min}, rmax={r_max}")

    energy = _level(params, n, "particle").energy if raw_e == "auto" else float(raw_e)

    norm_constant = normalization(params, energy).norm_constant if normalize else None
    scale = 1.0 if norm_constant is None else norm_constant

    step = (r_max - r_min) / (points - 1)
    rows = []
    for i in range(points):
        r = r_min + i * step
        g = eval_ground_state(params, energy, r)
        rows.append({"r": r, "chi": g.chi, "phi": g.phi, "psi": scale * g.psi,
                     "W": g.w, "dW": g.dw})

    results = {"energy": energy, "rows": rows}
    if norm_constant is not None:
        results["norm_constant"] = norm_constant
    _emit(_request(ns, config, "wavefunction", asdict(params), e=raw_e, n=n,
                   rmin=r_min, rmax=r_max, points=points, normalize=normalize or None),
          results, diag, ("r", "chi", "phi", "psi", "W", "dW"), rows)
    return 0


def _cmd_verify(ns, config, diag) -> int:
    suite = _resolve(ns, config, "suite")
    if suite is None:
        raise DomainError("--suite is required (residuals, manifolds or limits)")
    seed = _resolve(ns, config, "seed", default=0, cast=_integer)
    cases = _count(ns, config, "cases", 0, 100_000, default=200)
    try:
        report = run_suite(suite, seed=seed, cases=cases)
    except ValueError as exc:
        raise DomainError(str(exc)) from exc
    # The request echoes the seed and case count only where the suite drew
    # its cases with them, as its report does.
    draws = {key: report[key] for key in ("seed", "cases") if key in report}
    _emit(_request(ns, config, "verify", None, fmt="json", suite=suite, **draws),
          report, diag)
    return 0 if report["passed"] else 1


def _cmd_scan(ns, config, diag) -> int:
    name = _resolve(ns, config, "param")
    if name not in _PARAM_KEYS:
        raise DomainError(f"--param must be one of {_PARAM_KEYS}, got {name!r}")
    start = _resolve(ns, config, "from", cast=float)
    stop = _resolve(ns, config, "to", cast=float)
    if start is None or stop is None:
        raise DomainError("--from, --to and --steps are required")
    steps = _count(ns, config, "steps", 1, 10_000)
    n = _count(ns, config, "n", 0, 1000, default=0)
    base = {key: _resolve(ns, config, key, cast=float) for key in _PARAM_KEYS}
    values = [start + (stop - start) * i / steps for i in range(steps + 1)]

    rows = []
    skipped = failed = 0
    for value in values:
        try:
            levels = solve_levels(_params_from(ns, config, **{name: value}), n)
        except DomainError as exc:
            diag.warn(f"{name}={_fmt(value)} skipped: {exc}")
            skipped += 1
            continue
        except ConvergenceError as exc:
            diag.warn(f"{name}={_fmt(value)} failed: {exc}")
            failed += 1
            continue
        for lvl in levels:
            rows.append({"param": name, "value": value, "n": lvl.n,
                         "branch": lvl.branch, "E": lvl.energy,
                         "residual": lvl.residual})

    params = {key: value for key, value in base.items() if value is not None}
    _emit(_request(ns, config, "scan", params, param=name, n=n,
                   **{"from": start, "to": stop, "steps": steps}),
          {"rows": rows}, diag, ("param", "value", "n", "branch", "E", "residual"), rows)
    if failed:
        return 4
    if skipped == len(values):
        diag.error("every scan point had invalid parameters")
        return 2
    return 0


def _add_param_flags(parser):
    for key in _PARAM_KEYS:
        parser.add_argument(f"--{key}", type=float, default=None)
    parser.add_argument("--format", choices=("json", "csv"), default=None)
    parser.add_argument("--output", default=None)
    parser.add_argument("--config", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgk",
        description="Relativistic Kratzer bound states: spectra, wavefunctions "
                    "and independent numerical verification.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_spectrum = sub.add_parser("spectrum", help="solve levels n = 0..nmax")
    _add_param_flags(p_spectrum)
    p_spectrum.add_argument("--nmax", type=int, default=None)
    p_spectrum.add_argument("--branch", choices=("all", "particle", "antiparticle"),
                            default=None)

    p_energy = sub.add_parser("energy", help="one level by any method")
    _add_param_flags(p_energy)
    p_energy.add_argument("--n", type=int, default=None)
    p_energy.add_argument("--method", default=None)
    p_energy.add_argument("--branch", choices=("particle", "antiparticle"), default=None)
    p_energy.add_argument("--compare", choices=("oracle",), default=None)

    p_wave = sub.add_parser("wavefunction", help="tabulate the ground-state factors")
    _add_param_flags(p_wave)
    p_wave.add_argument("--e", default=None, help="energy value or 'auto'")
    p_wave.add_argument("--n", type=int, default=None)
    p_wave.add_argument("--rmin", type=float, default=None)
    p_wave.add_argument("--rmax", type=float, default=None)
    p_wave.add_argument("--points", type=int, default=None)
    p_wave.add_argument("--normalize", action="store_const", const=True, default=None)

    p_verify = sub.add_parser("verify", help="run a self-verification suite")
    p_verify.add_argument("--suite", choices=("residuals", "manifolds", "limits"),
                          default=None)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--cases", type=int, default=None)
    p_verify.add_argument("--output", default=None)
    p_verify.add_argument("--config", default=None)

    p_scan = sub.add_parser("scan", help="sweep one coupling")
    _add_param_flags(p_scan)
    p_scan.add_argument("--param", default=None)
    p_scan.add_argument("--from", dest="from", type=float, default=None)
    p_scan.add_argument("--to", type=float, default=None)
    p_scan.add_argument("--steps", type=int, default=None)
    p_scan.add_argument("--n", type=int, default=None)

    return parser


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "energy": _cmd_energy,
    "wavefunction": _cmd_wavefunction,
    "verify": _cmd_verify,
    "scan": _cmd_scan,
}


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    diag = _Diagnostics()
    config = {}
    config_path = getattr(ns, "config", None)
    try:
        if config_path:
            config = _load_config(config_path)
        return _COMMANDS[ns.subcommand](ns, config, diag)
    except NoBoundStateError as exc:
        diag.error(str(exc))
        return 3
    except ConvergenceError as exc:
        diag.error(str(exc))
        return 4
    except (DomainError, ValueError, OSError) as exc:
        diag.error(str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
