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

One parser reads every input.  The values of a --config JSON object are
parsed as the subcommand's own flags, with the same types, bounds and
choices; flags win over them, a key with no such flag is ignored, and null
counts as absent.  Integer flags are bounded so that no request can ask for
unbounded work or memory: spectrum --nmax and --n (on energy, wavefunction
and scan) in [0, 1000], wavefunction --points in [2, 1000000], scan --steps
in [1, 10000] and verify --cases in [0, 100000].
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
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


def _finite(text: str) -> float:
    with contextlib.suppress(ValueError):
        if math.isfinite(value := float(text)):
            return value
    raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")


def _integer(text: str) -> int:
    """An integer read exactly; integral text such as 2.0 or 1e3 reads too, 1.9 does not."""
    with contextlib.suppress(ValueError):
        return int(text)
    with contextlib.suppress(ValueError):
        if float(text).is_integer():
            return int(float(text))
    raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")


def _integer_in(least: int, cap: int):
    """The ``type`` of an integer flag that must lie in [least, cap]."""
    def parse(text: str) -> int:
        value = _integer(text)
        if not least <= value <= cap:
            raise argparse.ArgumentTypeError(f"must be in [{least}, {cap}], got {value}")
        return value
    return parse


def _read_config(parser, path):
    """Parse the config file with ``parser``'s flags, and make its values their defaults.

    Nulls and keys with no flag are skipped.  A switch takes true or false; any
    other flag a string or a number, read as its text (str() of a float is its repr).
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            config = json.load(handle)
        except RecursionError:
            raise DomainError(f"config file {path} is nested too deeply") from None
    if not isinstance(config, dict):
        raise DomainError(f"config file {path} must contain a JSON object")
    values = argparse.Namespace()
    for key, value in config.items():
        action = parser._option_string_actions.get(f"--{key}")
        if value is None or action is None or action.dest in ("help", "config"):
            continue
        switch = action.nargs == 0
        try:
            if isinstance(value, bool) != switch or isinstance(value, (list, dict)):
                expected = "true or false" if switch else "a string or a number"
                raise DomainError(f"expected {expected}, got {json.dumps(value)}")
            tokens = ([f"--{key}"] if value else []) if switch else [f"--{key}={value}"]
            parser.parse_args(tokens, values)
        except DomainError as exc:
            raise DomainError(f"config key {key!r}: {exc}") from None
    parser.set_defaults(**vars(values))


def _params_from(ns, **overrides) -> PotentialParams:
    """Couplings from the flags, 0 where unset; ``overrides`` win."""
    values = {**{key: getattr(ns, key) for key in _PARAM_KEYS}, **overrides}
    if values["m"] is None:
        raise DomainError("missing required parameter --m")
    return PotentialParams(**{key: 0.0 if value is None else value
                              for key, value in values.items()})


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


def _request(ns, subcommand, params, **options) -> dict:
    """The request block, with unset values dropped."""
    request = {
        "subcommand": subcommand,
        "format": ns.format,
        "output": ns.output or None,
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


def _cmd_spectrum(ns, diag) -> int:
    params = _params_from(ns)
    _require_real_a(params)
    if ns.nmax is None:
        raise DomainError("--nmax is required")

    run = solve_spectrum(params, ns.nmax)
    levels = run.levels()
    if ns.branch != "all":
        levels = [lvl for lvl in levels if lvl.branch == ns.branch]
    for n, message in run.failures:
        diag.warn(f"level n={n}: {message}")

    rows = [_level_dict(lvl) for lvl in levels]
    _emit(_request(ns, "spectrum", asdict(params), nmax=ns.nmax, branch=ns.branch),
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


def _cmd_energy(ns, diag) -> int:
    params = _params_from(ns)
    if ns.n is None:
        raise DomainError("--n is required")
    n, branch, compare = ns.n, ns.branch, ns.compare
    method, case = _parse_method(ns.method)
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

    _emit(_request(ns, "energy", asdict(params), n=n, method=ns.method,
                   branch=branch, compare=compare),
          record, diag,
          ("n", "branch", "E", "method", "residual", "E_oracle", "deviation"), [record])
    return 0


def _cmd_wavefunction(ns, diag) -> int:
    params = _params_from(ns)
    _require_real_a(params)
    if ns.rmin is None or ns.rmax is None:
        raise DomainError("--rmin and --rmax are required")
    if not (0.0 < ns.rmin < ns.rmax):
        raise DomainError(f"need 0 < rmin < rmax, got rmin={ns.rmin}, rmax={ns.rmax}")

    energy = _level(params, ns.n, "particle").energy if ns.e == "auto" else float(ns.e)

    norm_constant = normalization(params, energy).norm_constant if ns.normalize else None
    scale = 1.0 if norm_constant is None else norm_constant

    step = (ns.rmax - ns.rmin) / (ns.points - 1)
    rows = []
    for i in range(ns.points):
        r = ns.rmin + i * step
        g = eval_ground_state(params, energy, r)
        rows.append({"r": r, "chi": g.chi, "phi": g.phi, "psi": scale * g.psi,
                     "W": g.w, "dW": g.dw})

    results = {"energy": energy, "rows": rows}
    if norm_constant is not None:
        results["norm_constant"] = norm_constant
    _emit(_request(ns, "wavefunction", asdict(params), e=ns.e, n=ns.n, rmin=ns.rmin,
                   rmax=ns.rmax, points=ns.points, normalize=ns.normalize or None),
          results, diag, ("r", "chi", "phi", "psi", "W", "dW"), rows)
    return 0


def _cmd_verify(ns, diag) -> int:
    if ns.suite is None:
        raise DomainError("--suite is required (residuals, manifolds or limits)")
    try:
        report = run_suite(ns.suite, seed=ns.seed, cases=ns.cases)
    except ValueError as exc:
        raise DomainError(str(exc)) from exc
    # The request echoes the seed and case count only where the suite drew
    # its cases with them, as its report does.
    draws = {key: report[key] for key in ("seed", "cases") if key in report}
    _emit(_request(ns, "verify", None, suite=ns.suite, **draws), report, diag)
    return 0 if report["passed"] else 1


def _cmd_scan(ns, diag) -> int:
    name, start, stop, steps, n = ns.param, getattr(ns, "from"), ns.to, ns.steps, ns.n
    if None in (name, start, stop, steps):
        raise DomainError("--param, --from, --to and --steps are required")
    values = [start + (stop - start) * i / steps for i in range(steps + 1)]

    rows = []
    skipped = failed = 0
    for value in values:
        try:
            levels = solve_levels(_params_from(ns, **{name: value}), n)
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

    params = {key: getattr(ns, key) for key in _PARAM_KEYS if getattr(ns, key) is not None}
    _emit(_request(ns, "scan", params, param=name, n=n,
                   **{"from": start, "to": stop, "steps": steps}),
          {"rows": rows}, diag, ("param", "value", "n", "branch", "E", "residual"), rows)
    if failed:
        return 4
    if skipped == len(values):
        diag.error("every scan point had invalid parameters")
        return 2
    return 0


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose errors are one ERROR: line and exit 2, as every error is."""

    def error(self, message):
        raise DomainError(message)


def _add_param_flags(parser):
    for key in _PARAM_KEYS:
        parser.add_argument(f"--{key}", type=float, default=None)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--output", default=None)
    parser.add_argument("--config", default=None)


def build_parser() -> argparse.ArgumentParser:
    """The ``kgk`` parser; ``parser.subcommands`` maps each name to its own parser."""
    parser = _Parser(
        prog="kgk",
        description="Relativistic Kratzer bound states: spectra, wavefunctions "
                    "and independent numerical verification.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    parser.subcommands = sub.choices

    p_spectrum = sub.add_parser("spectrum", help="solve levels n = 0..nmax")
    _add_param_flags(p_spectrum)
    p_spectrum.add_argument("--nmax", type=_integer_in(0, 1000), default=None)
    p_spectrum.add_argument("--branch", choices=("all", "particle", "antiparticle"),
                            default="all")
    p_spectrum.set_defaults(command=_cmd_spectrum)

    p_energy = sub.add_parser("energy", help="one level by any method")
    _add_param_flags(p_energy)
    p_energy.add_argument("--n", type=_integer_in(0, 1000), default=None)
    p_energy.add_argument("--method", default="implicit")
    p_energy.add_argument("--branch", choices=("particle", "antiparticle"), default="particle")
    p_energy.add_argument("--compare", choices=("oracle",), default=None)
    p_energy.set_defaults(command=_cmd_energy)

    p_wave = sub.add_parser("wavefunction", help="tabulate the ground-state factors")
    _add_param_flags(p_wave)
    p_wave.add_argument("--e", default="auto", help="energy value or 'auto'")
    p_wave.add_argument("--n", type=_integer_in(0, 1000), default=0)
    p_wave.add_argument("--rmin", type=_finite, default=None)
    p_wave.add_argument("--rmax", type=_finite, default=None)
    p_wave.add_argument("--points", type=_integer_in(2, 1_000_000), default=101)
    p_wave.add_argument("--normalize", action="store_true")
    p_wave.set_defaults(command=_cmd_wavefunction)

    p_verify = sub.add_parser("verify", help="run a self-verification suite")
    p_verify.add_argument("--suite", choices=("residuals", "manifolds", "limits"))
    p_verify.add_argument("--seed", type=_integer, default=0)
    p_verify.add_argument("--cases", type=_integer_in(0, 100_000), default=200)
    p_verify.add_argument("--output", default=None)
    p_verify.add_argument("--config", default=None)
    p_verify.set_defaults(command=_cmd_verify, format="json")

    p_scan = sub.add_parser("scan", help="sweep one coupling")
    _add_param_flags(p_scan)
    p_scan.add_argument("--param", choices=_PARAM_KEYS, default=None)
    p_scan.add_argument("--from", dest="from", type=float, default=None)
    p_scan.add_argument("--to", type=float, default=None)
    p_scan.add_argument("--steps", type=_integer_in(1, 10_000), default=None)
    p_scan.add_argument("--n", type=_integer_in(0, 1000), default=0)
    p_scan.set_defaults(command=_cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    diag = _Diagnostics()
    try:
        ns = parser.parse_args(argv)
        if ns.config:
            _read_config(parser.subcommands[ns.subcommand], ns.config)
            ns = parser.parse_args(argv)
        return ns.command(ns, diag)
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
