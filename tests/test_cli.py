import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden" / "verify_residuals_seed7.json"


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "kgkratzer", *args],
        capture_output=True, text=True, **kwargs,
    )


def test_spectrum_csv_equal_levels():
    result = run_cli(
        "spectrum", "--m", "1", "--a1", "0", "--b1", "0.5",
        "--a2", "0", "--b2", "0.5", "--nmax", "2", "--format", "csv",
    )
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "n,branch,E,method,residual"
    assert len(lines) == 4
    energies = [float(line.split(",")[2]) for line in lines[1:]]
    expected = (0.6, 0.88235294117647059, 0.94594594594594595)
    for got, want in zip(energies, expected):
        assert abs(got - want) < 1e-9
    assert all(line.split(",")[1] == "particle" for line in lines[1:])


def test_invalid_couplings_exit_2():
    result = run_cli(
        "energy", "--m", "1", "--a1", "0", "--b1", "0", "--a2", "1",
        "--b2", "0", "--n", "0", "--method", "implicit",
    )
    assert result.returncode == 2
    assert result.stderr.startswith("ERROR:")
    assert "a imaginary" in result.stderr


@pytest.mark.parametrize("m, a1, a2", [("1", "1", "2"), ("1e-200", "1e200", "2e200")])
def test_imaginary_a_exits_2_at_every_mass(m, a1, a2):
    # At m = 1e-200 the squares of a1 and a2 overflow in the caller's units;
    # the gate must not depend on them.
    result = run_cli(
        "energy", "--m", m, "--a1", a1, "--b1", "0.5", "--a2", a2, "--b2", "0.3",
        "--n", "0",
    )
    assert result.returncode == 2
    assert result.stderr == "ERROR: a imaginary: a1^2 < a2^2\n"


def test_no_bound_state_exit_3():
    result = run_cli("spectrum", "--m", "1", "--nmax", "1")
    assert result.returncode == 3
    assert "ERROR:" in result.stderr


def test_unknown_flag_exit_2():
    result = run_cli("spectrum", "--m", "1", "--nmax", "1", "--bogus", "3")
    assert result.returncode == 2


@pytest.mark.parametrize("args", [
    ("spectrum", "--m", "1", "--b1", "0.5", "--b2", "0.5", "--nmax", "1001"),
    ("scan", "--m", "1", "--param", "b1", "--from", "0.1", "--to", "0.5",
     "--steps", "10001"),
    ("wavefunction", "--m", "1", "--b1", "0.5", "--b2", "0.5", "--e", "0.6",
     "--rmin", "0.1", "--rmax", "5", "--points", "1000001"),
    ("verify", "--suite", "residuals", "--cases", "100001"),
    ("energy", "--m", "1", "--b1", "0.5", "--b2", "0.5", "--n", "1001"),
    # Too large for a float: it must not reach the residual's arithmetic.
    ("energy", "--m", "1", "--b1", "0.5", "--b2", "0.5", "--n", "1" + "0" * 400),
    ("wavefunction", "--m", "1", "--b1", "0.5", "--b2", "0.5", "--e", "0.6",
     "--n", "1001", "--rmin", "0.1", "--rmax", "5", "--points", "10"),
    ("scan", "--m", "1", "--b2", "0.5", "--param", "b1", "--from", "0.1", "--to", "0.5",
     "--steps", "2", "--n", "1001"),
    # Below the lower bound.
    ("scan", "--m", "1", "--b2", "0.5", "--param", "b1", "--from", "0.1", "--to", "0.5",
     "--steps", "2", "--n", "-1"),
    ("wavefunction", "--m", "1", "--b1", "0.5", "--b2", "0.5", "--e", "0.6",
     "--n", "-1", "--rmin", "0.1", "--rmax", "5", "--points", "10"),
    ("verify", "--suite", "manifolds", "--cases", "-1"),
    # The fixed-grid suites ignore --cases, but its range still holds.
    ("verify", "--suite", "limits", "--cases", "100001"),
])
def test_size_flag_above_cap_exit_2(args):
    result = run_cli(*args)
    assert result.returncode == 2
    assert result.stderr.startswith("ERROR:")
    assert len(result.stderr.splitlines()) == 1
    assert result.stdout == ""


def test_energy_json_record():
    result = run_cli(
        "energy", "--m", "1", "--b1", "0.6", "--b2", "0.8", "--n", "0",
        "--method", "implicit", "--branch", "antiparticle",
    )
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert set(doc) == {"request", "results", "diagnostics", "version"}
    record = doc["results"]
    assert record["branch"] == "antiparticle"
    assert abs(float(record["E"]) - (-0.98254320115760734)) < 1e-9
    assert float(record["residual"]) < 1e-12


def test_energy_closed_form_and_series():
    result = run_cli(
        "energy", "--m", "1", "--b1", "0.5", "--b2", "-0.5", "--n", "0",
        "--method", "closed:opposite",
    )
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert abs(float(doc["results"]["E"]) + 0.6) < 1e-12

    result = run_cli(
        "energy", "--m", "1", "--a2", "0.1", "--b2", "0.2", "--n", "0",
        "--method", "approx:pure_vector_series",
    )
    doc = json.loads(result.stdout)
    assert abs(float(doc["results"]["E"]) - 0.98611111111111111) < 1e-12


def test_energy_compare_oracle_reports_deviation():
    result = run_cli(
        "energy", "--m", "1", "--b1", "0.5", "--b2", "0.5", "--n", "0",
        "--method", "implicit", "--compare", "oracle",
    )
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert float(doc["results"]["deviation"]) < 1e-5


def test_energy_compare_oracle_at_a_large_mass():
    result = run_cli(
        "energy", "--m", "1e60", "--b1", "0.5", "--b2", "0.3", "--n", "0",
        "--compare", "oracle",
    )
    assert result.returncode == 0, result.stderr
    # The exact Coulomb-plane level is 0.76794776677... m.
    doc = json.loads(result.stdout)
    assert float(doc["results"]["E_oracle"]) == pytest.approx(7.679477667701e59, rel=1e-10)


def test_energy_compare_oracle_on_a_tiny_cubic_origin_exits_cleanly():
    # q3 = 2e-216, where r_min^1.5 underflows to 0: the cubic seed must not
    # divide by it, and a level the oracle cannot reach ends in a documented
    # exit code.
    result = run_cli(
        "energy", "--m", "1", "--a1", "1e-215", "--b1", "0.5", "--a2", "1e-215",
        "--b2", "0.6", "--n", "0", "--compare", "oracle",
    )
    assert result.returncode in (0, 3, 4)
    assert "Traceback" not in result.stderr


def test_energy_admissibility_is_judged_in_units_of_m():
    # The m = 1 set (0.1, 0.5, 0.05, 0.3) at m = 1e-300, where a1^2 - a2^2
    # in the caller's units is inf - inf: the level is judged in units of m.
    result = run_cli(
        "energy", "--m", "1e-300", "--a1", "1e299", "--b1", "0.5", "--a2", "5e298",
        "--b2", "0.3", "--n", "0",
    )
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["results"]["admissibility"]["overall"] == "admissible"


def test_wavefunction_table_auto_energy():
    result = run_cli(
        "wavefunction", "--m", "1", "--b1", "0.5", "--b2", "0.5",
        "--e", "auto", "--rmin", "0.5", "--rmax", "2.5", "--points", "5",
        "--format", "csv",
    )
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "r,chi,phi,psi,W,dW"
    assert len(lines) == 6
    for line in lines[1:]:
        r, chi, phi, psi, w, dw = map(float, line.split(","))
        assert abs(psi - chi * phi) < 1e-15


def test_wavefunction_no_level_exit_3():
    result = run_cli(
        "wavefunction", "--m", "1", "--e", "auto",
        "--rmin", "0.5", "--rmax", "2.0", "--points", "3",
    )
    assert result.returncode == 3


def test_wavefunction_normalize_overflow_exit_4():
    # c is about 99.5, so the psi^2 integral exceeds the float range.
    result = run_cli(
        "wavefunction", "--m", "1", "--a1", "5000", "--b1", "0.5", "--e", "0.5",
        "--rmin", "1", "--rmax", "2", "--points", "2", "--normalize",
    )
    assert result.returncode == 4
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("ERROR: ") and "overflows" in lines[0]


def test_scan_csv_rows():
    result = run_cli(
        "scan", "--m", "1", "--b2", "0.5", "--param", "b1",
        "--from", "0.2", "--to", "0.4", "--steps", "2", "--format", "csv",
    )
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "param,value,n,branch,E,residual"
    assert len(lines) > 3


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(
        {"m": 1.0, "b1": 0.5, "b2": 0.5, "nmax": 0, "format": "csv"}
    ))
    result = run_cli("spectrum", "--config", str(config))
    assert result.returncode == 0
    assert abs(float(result.stdout.strip().splitlines()[1].split(",")[2]) - 0.6) < 1e-9

    # explicit flag beats the config value
    result = run_cli("spectrum", "--config", str(config), "--b1", "0.1", "--b2", "0.1")
    row = result.stdout.strip().splitlines()[1]
    assert abs(float(row.split(",")[2]) - 0.9801980198019802) < 1e-9


@pytest.mark.parametrize("nmax", ["1e400", "[1]"])
def test_config_value_that_cannot_be_cast_exit_2(tmp_path, nmax):
    # json reads 1e400 as inf, which int() cannot hold; [1] is no number at all.
    config = tmp_path / "run.json"
    config.write_text(f'{{"m": 1.0, "b1": 0.5, "b2": 0.5, "nmax": {nmax}}}')
    result = run_cli("spectrum", "--config", str(config))
    assert result.returncode == 2
    assert result.stderr.startswith("ERROR: config key 'nmax'")
    assert result.stdout == ""


@pytest.mark.parametrize("args, key", [
    pytest.param(("wavefunction", "--m", "1", "--b1", "0.5", "--b2", "0.5",
                  "--rmin", "0.1", "--rmax", "20"), "points", id="wavefunction-points"),
    pytest.param(("verify", "--suite", "residuals", "--seed", "7"), "cases",
                 id="verify-cases"),
    pytest.param(("scan", "--m", "1", "--b2", "0.5", "--param", "b1", "--from", "0.1",
                  "--to", "0.9", "--steps", "4"), "n", id="scan-n"),
])
def test_config_null_takes_the_default(tmp_path, args, key):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({key: None}))
    with_null = run_cli(*args, "--config", str(config))
    assert with_null.returncode == 0, with_null.stderr
    assert with_null.stdout == run_cli(*args).stdout


def test_config_integer_with_a_fraction_exit_2(tmp_path):
    # int() would truncate 1.9 to 1 and run n = 0..1 without a word.
    config = tmp_path / "run.json"
    config.write_text('{"m": 1.0, "b1": 0.5, "b2": 0.5, "nmax": 1.9}')
    result = run_cli("spectrum", "--config", str(config))
    assert result.returncode == 2
    assert result.stderr.startswith("ERROR: config key 'nmax'")
    assert result.stdout == ""

    config.write_text('{"m": 1.0, "b1": 0.5, "b2": 0.5, "nmax": 1.0}')
    result = run_cli("spectrum", "--config", str(config), "--format", "csv")
    assert result.returncode == 0
    assert len(result.stdout.splitlines()) == 3


def test_no_command_imports_numpy():
    # kgkratzer runs on the standard library alone: no command loads numpy.
    script = """
import contextlib, io, sys
import kgkratzer.cli as cli
couplings = ["--m", "1", "--b1", "0.5", "--b2", "0.5"]
for argv in (
    ["spectrum", *couplings, "--nmax", "2"],
    ["scan", "--m", "1", "--b2", "0.5", "--param", "b1", "--from", "0.1", "--to", "0.9",
     "--steps", "4"],
    ["wavefunction", *couplings, "--e", "auto", "--rmin", "0.1", "--rmax", "20",
     "--points", "5"],
    ["energy", *couplings, "--n", "0", "--method", "closed:equal"],
    ["energy", *couplings, "--n", "0", "--compare", "oracle"],
    ["verify", "--suite", "limits"],
    ["verify", "--suite", "residuals", "--cases", "2"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv
"""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("args, rows_key, nulls", [
    pytest.param(("spectrum", "--m", "1", "--b1", "0.6", "--b2", "0.8", "--nmax", "0"),
                 "levels", (), id="spectrum"),
    pytest.param(("energy", "--m", "1", "--b1", "0.5", "--b2", "0.5", "--n", "1",
                  "--compare", "oracle"), None, (), id="energy-oracle"),
    # A supercritical origin: the oracle fields are null in JSON.
    pytest.param(("energy", "--m", "1", "--b1", "0.6", "--b2", "0.8", "--n", "0",
                  "--compare", "oracle"), None, ("E_oracle", "deviation"),
                 id="energy-oracle-supercritical"),
    pytest.param(("wavefunction", "--m", "1", "--b1", "0.5", "--b2", "0.5", "--rmin", "0.1",
                  "--rmax", "20", "--points", "7", "--normalize"), "rows", (),
                 id="wavefunction-normalize"),
    pytest.param(("scan", "--m", "1", "--b2", "0.5", "--param", "b1", "--from", "0.1",
                  "--to", "0.9", "--steps", "4"), "rows", (), id="scan"),
])
def test_json_and_csv_carry_identical_numbers(capsys, args, rows_key, nulls):
    from kgkratzer import cli

    assert cli.main(list(args)) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert cli.main([*args, "--format", "csv"]) == 0
    header, *lines = csv.reader(io.StringIO(capsys.readouterr().out))
    rows = results[rows_key] if rows_key else [results]
    assert len(lines) == len(rows) > 0
    for row, cells in zip(rows, lines):
        assert len(cells) == len(header)
        assert {key for key in header if row.get(key) is None} == set(nulls)
        for key, cell in zip(header, cells):
            value = row.get(key)
            assert cell == ("" if value is None else str(value))


@pytest.mark.parametrize("name, args", [
    ("cli_spectrum_csv.csv", "spectrum --m 1 --a1 0 --b1 0.5 --a2 0 --b2 0.5 --nmax 2 "
                             "--format csv"),
    ("cli_energy_closed_equal.json", "energy --m 1 --b1 0.5 --b2 0.5 --n 0 "
                                     "--method closed:equal"),
    ("cli_wavefunction_normalize.json", "wavefunction --m 1 --b1 0.5 --b2 0.5 --e auto "
                                        "--rmin 0.1 --rmax 20 --points 200 --normalize"),
    ("cli_scan_steps16.json", "scan --m 1 --b2 0.5 --param b1 --from 0.1 --to 0.9 --steps 16"),
    ("verify_manifolds.json", "verify --suite manifolds"),
    ("verify_limits.json", "verify --suite limits"),
    ("verify_manifolds.json", "verify --suite manifolds --seed 5 --cases 3"),
    ("verify_limits.json", "verify --suite limits --seed 5 --cases 3"),
])
def test_cli_output_matches_its_golden_file(capsys, name, args):
    # The README's examples that run no oracle, and the two small verify
    # suites, pinned byte for byte.  Oracle commands are left out: a change
    # to the integrator may legitimately move their last bits.  The two
    # small suites run fixed grids, so --seed and --cases leave their bytes
    # as they are.
    from kgkratzer import cli

    assert cli.main(args.split()) == 0
    expected = (GOLDEN.parent / name).read_bytes().decode("utf-8")
    assert capsys.readouterr().out == expected


def test_output_file_writing(tmp_path):
    target = tmp_path / "out.json"
    result = run_cli(
        "spectrum", "--m", "1", "--b1", "0.5", "--b2", "0.5", "--nmax", "0",
        "--output", str(target),
    )
    assert result.returncode == 0
    assert result.stdout == ""
    doc = json.loads(target.read_text())
    assert doc["results"]["levels"]


def test_verify_deterministic_and_green():
    first = run_cli("verify", "--suite", "residuals", "--seed", "7", "--cases", "200")
    second = run_cli("verify", "--suite", "residuals", "--seed", "7", "--cases", "200")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    report = json.loads(first.stdout)
    assert report["results"]["passed"] is True


def test_verify_matches_committed_golden():
    result = run_cli("verify", "--suite", "residuals", "--seed", "7", "--cases", "200")
    assert result.returncode == 0
    assert result.stdout == GOLDEN.read_text()


def test_verify_other_suites_pass():
    for suite in ("manifolds", "limits"):
        result = run_cli("verify", "--suite", suite)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["results"]["passed"] is True


def test_energy_compare_oracle_supercritical_origin_warns():
    # b1^2 - b2^2 = -0.28 < -1/4: the oracle cannot integrate from the
    # origin, so the analytic level is reported without a comparison.
    args = ("energy", "--m", "1", "--b1", "0.6", "--b2", "0.8", "--n", "0",
            "--method", "implicit", "--compare", "oracle")
    result = run_cli(*args)
    assert result.returncode == 0
    warnings = [line for line in result.stderr.splitlines() if line.startswith("WARN: oracle:")]
    assert len(warnings) == 1
    doc = json.loads(result.stdout)
    assert doc["results"]["E_oracle"] is None
    assert doc["results"]["deviation"] is None
    assert doc["diagnostics"] == warnings
    assert abs(float(doc["results"]["E"]) - 0.39717734749907074) < 1e-12

    result = run_cli(*args, "--format", "csv")
    assert result.returncode == 0
    header, row = result.stdout.strip().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["E_oracle"] == "" and cells["deviation"] == ""
    assert cells["E"] == doc["results"]["E"]


def test_energy_compare_oracle_without_an_n_node_level_warns():
    # A deep inner pocket of U takes the low node counts, so the oracle has
    # no 0-node level; the analytic level is reported without a comparison.
    args = ("energy", "--m", "1.7432830671823407", "--a1", "0.322877221052863",
            "--b1", "0.8117740311744638", "--a2", "-0.30796305659425927",
            "--b2", "0.050863311075824535", "--n", "0", "--compare", "oracle")
    result = run_cli(*args)
    assert result.returncode == 0
    warnings = [line for line in result.stderr.splitlines() if line.startswith("WARN: oracle:")]
    assert len(warnings) == 1
    assert "no 0-node eigenvalue" in warnings[0]
    doc = json.loads(result.stdout)
    assert doc["results"]["E_oracle"] is None
    assert doc["results"]["deviation"] is None
    assert doc["diagnostics"] == warnings
    assert doc["results"]["E"] == "1.2897096761991262"


def test_scan_without_mass_warns_per_point_then_exits_2():
    result = run_cli("scan", "--b2", "0.5", "--param", "b1", "--from", "0.1",
                     "--to", "0.3", "--steps", "2")
    assert result.returncode == 2
    assert result.stderr.splitlines() == [
        "WARN: b1=0.10000000000000001 skipped: missing required parameter --m",
        "WARN: b1=0.20000000000000001 skipped: missing required parameter --m",
        "WARN: b1=0.29999999999999999 skipped: missing required parameter --m",
        "ERROR: every scan point had invalid parameters",
    ]


def test_spectrum_warns_for_a_failed_level_and_exits_4(monkeypatch, capsys):
    from kgkratzer import ConvergenceError, cli, spectrum

    solve_levels = spectrum.solve_levels

    def fail_at_one(params, n):
        if n == 1:
            raise ConvergenceError("no convergence")
        return solve_levels(params, n)

    monkeypatch.setattr(spectrum, "solve_levels", fail_at_one)
    code = cli.main(["spectrum", "--m", "1", "--b1", "0.5", "--b2", "0.5",
                     "--nmax", "2", "--format", "csv"])
    out, err = capsys.readouterr()
    assert code == 4
    assert err == "WARN: level n=1: no convergence\n"
    assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["0", "2"]


def test_spectrum_level_on_the_radicand_zero():
    # The n = 0 level sits where 1 + 8*(m*a1 + E*a2) = 0; f has an infinite
    # slope there, so |f| stays above the root tolerance at any bracket.
    result = run_cli(
        "spectrum", "--m", "0.6803775192179047", "--a1", "-0.2650206959900866",
        "--b1", "0.42607903102997047", "--a2", "0.22083695798305997",
        "--b2", "0.10541048409726628", "--nmax", "0", "--format", "csv",
    )
    assert result.returncode == 0
    assert result.stderr == ""
    energies = [line.split(",")[2] for line in result.stdout.splitlines()[1:]]
    assert energies[0] == "0.25047493945003846"


def test_spectrum_tolerance_warning_names_the_level_once(monkeypatch, capsys):
    from kgkratzer import cli, spectrum

    monkeypatch.setattr(spectrum, "_ROOT_TOLERANCE", 1e-30)
    code = cli.main(["spectrum", "--m", "1", "--b1", "0.5", "--b2", "0.5",
                     "--nmax", "0", "--format", "csv"])
    _, err = capsys.readouterr()
    assert code == 4
    assert err.startswith("WARN: level n=0: |f| = ")
    assert err.count("n=0") == 1


@pytest.mark.parametrize("scale, scaled, reference", [
    # f scales as m^2: at m = 100 |f| at the polished levels is ~2e-12.
    (100.0, ("--m", "100", "--b1", "0.5", "--b2", "0.3", "--nmax", "1"),
     ("--m", "1", "--b1", "0.5", "--b2", "0.3", "--nmax", "1")),
    # At m = 1e-100, f ~ 1e-200 and a product of two f values underflows.
    (1e-40, ("--m", "1e-100", "--a1", "1e99", "--b1", "0.5", "--a2", "5e98", "--b2", "0.3",
             "--nmax", "0"),
     ("--m", "1e-60", "--a1", "1e59", "--b1", "0.5", "--a2", "5e58", "--b2", "0.3",
      "--nmax", "0")),
])
def test_spectrum_levels_scale_with_the_mass(capsys, scale, scaled, reference):
    from kgkratzer import cli

    levels = []
    for args in (scaled, reference):
        assert cli.main(["spectrum", *args, "--format", "csv"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        levels.append([float(row.split(",")[2]) for row in rows])
    assert len(levels[0]) == len(levels[1]) > 0
    for level, reference_level in zip(*levels):
        assert level == pytest.approx(scale * reference_level, rel=1e-13)


SRC = Path(__file__).resolve().parents[1] / "src"
_SPECTRUM = ("spectrum", "--m", "1", "--b1", "0.5", "--b2", "0.5")
_ENERGY = ("energy", "--m", "1", "--b1", "0.5", "--b2", "0.5", "--n", "0")
_WAVEFUNCTION = ("wavefunction", "--m", "1", "--b1", "0.5", "--b2", "0.5",
                 "--rmin", "0.1", "--rmax", "2", "--points", "3")


@pytest.mark.parametrize("args, config, error", [
    pytest.param(_ENERGY, {"method": 5}, "ERROR: unknown method '5'", id="method-5"),
    pytest.param((*_SPECTRUM, "--nmax", "0"), {"format": "xml"},
                 "ERROR: config key 'format'", id="format-xml"),
    pytest.param((*_SPECTRUM, "--nmax", "0"), {"branch": "bogus"},
                 "ERROR: config key 'branch'", id="branch-bogus"),
    pytest.param(_ENERGY, {"compare": "nope"}, "ERROR: config key 'compare'", id="compare-nope"),
    pytest.param(_WAVEFUNCTION, {"normalize": "no"}, "ERROR: config key 'normalize'",
                 id="normalize-no"),
    pytest.param(_SPECTRUM, {"nmax": True}, "ERROR: config key 'nmax'", id="nmax-true"),
    # A number for a text flag reads as its text: "output": 5 names the file 5.
    pytest.param((*_SPECTRUM, "--nmax", "0"), {"output": 5}, None, id="output-5"),
])
def test_config_value_is_read_as_its_flag_is(tmp_path, args, config, error):
    # The command runs in tmp_path, where a relative PYTHONPATH finds no package.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    (tmp_path / "run.json").write_text(json.dumps(config))
    result = run_cli(*args, "--config", "run.json", cwd=tmp_path, env=env)
    assert result.stdout == ""
    if error is None:
        (tmp_path / "flag").mkdir()
        twin = run_cli(*args, "--output", "5", cwd=tmp_path / "flag", env=env)
        assert result.returncode == twin.returncode == 0
        assert (tmp_path / "5").read_bytes() == (tmp_path / "flag" / "5").read_bytes()
    else:
        assert result.returncode == 2
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith(error)


@pytest.mark.parametrize("args", [
    pytest.param((*_SPECTRUM, "--nmax", "abc"), id="integer-flag-not-a-number"),
    pytest.param((*_SPECTRUM, "--nmax", "0", "--format", "xml"), id="choice-not-offered"),
    pytest.param((*_SPECTRUM, "--nmax", "0", "--bogus", "3"), id="unknown-flag"),
    pytest.param((), id="no-subcommand"),
])
def test_argument_error_is_one_error_line_and_exit_2(capsys, args):
    from kgkratzer import cli

    assert cli.main(list(args)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("ERROR: ")


@pytest.mark.parametrize("args", [("-h",), ("spectrum", "-h")])
def test_help_is_printed_with_exit_0(args):
    result = run_cli(*args)
    assert result.returncode == 0
    assert result.stdout.startswith("usage: kgk")
    assert result.stderr == ""


@pytest.mark.parametrize("flag, value", [("--rmax", "inf"), ("--rmin", "nan"), ("--rmax", "1e400")])
def test_non_finite_radius_is_refused_by_its_flag(capsys, flag, value):
    from kgkratzer import cli

    radii = {"--rmin": "0.1", "--rmax": "20", flag: value}
    code = cli.main(["wavefunction", "--m", "1", "--b1", "0.5", "--b2", "0.5", "--e", "auto",
                     "--points", "3", *(token for item in radii.items() for token in item)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == f"ERROR: argument {flag}: expected a finite number, got {value!r}\n"


def test_integral_nmax_flag_reads_as_an_integer(capsys):
    from kgkratzer import cli

    assert cli.main([*_SPECTRUM, "--nmax", "1"]) == 0
    expected = capsys.readouterr().out
    assert cli.main([*_SPECTRUM, "--nmax", "1.0"]) == 0
    assert capsys.readouterr().out == expected


def _as_config(flags):
    """A config object that says what ``flags`` say: JSON values where they parse."""
    config = {}
    for token in flags:
        if token.startswith("--"):
            key = token[2:]
            config[key] = True
            continue
        try:
            config[key] = json.loads(token)
        except ValueError:
            config[key] = token
    return config


@pytest.mark.parametrize("args", [
    # The commands of test_cli_output_matches_its_golden_file.
    "spectrum --m 1 --a1 0 --b1 0.5 --a2 0 --b2 0.5 --nmax 2 --format csv",
    "energy --m 1 --b1 0.5 --b2 0.5 --n 0 --method closed:equal",
    "wavefunction --m 1 --b1 0.5 --b2 0.5 --e auto --rmin 0.1 --rmax 20 --points 200 --normalize",
    "scan --m 1 --b2 0.5 --param b1 --from 0.1 --to 0.9 --steps 16",
    "verify --suite manifolds",
    "verify --suite limits",
    "verify --suite manifolds --seed 5 --cases 3",
    "verify --suite limits --seed 5 --cases 3",
    # A number for a text flag, and a seed no float can hold.
    "wavefunction --m 1 --b1 0.5 --b2 0.5 --e 0.6 --rmin 0.1 --rmax 2 --points 3",
    "verify --suite residuals --seed 36893488147419103233 --cases 1",
])
def test_config_file_gives_the_bytes_its_flags_give(tmp_path, capsys, args):
    from kgkratzer import cli

    subcommand, *flags = args.split()
    assert cli.main([subcommand, *flags]) == 0
    expected = capsys.readouterr().out
    config = tmp_path / "run.json"
    config.write_text(json.dumps(_as_config(flags)))
    assert cli.main([subcommand, "--config", str(config)]) == 0
    assert capsys.readouterr().out == expected


def test_config_key_without_a_flag_is_ignored(tmp_path, capsys):
    from kgkratzer import cli

    args = [*_SPECTRUM, "--nmax", "0"]
    assert cli.main(args) == 0
    expected = capsys.readouterr()
    # Other subcommands' flags (--n would abbreviate --nmax on the command
    # line), a key no subcommand has, and the help and config flags.
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"n": [1], "points": "x", "suite": 3, "bogus": {"a": 1},
                                  "help": True, "config": "missing.json"}))
    assert cli.main([*args, "--config", str(config)]) == 0
    assert capsys.readouterr() == expected


def test_config_nested_too_deeply_exits_2(tmp_path):
    config = tmp_path / "run.json"
    config.write_text('{"m": ' + "[" * 100_000 + "]" * 100_000 + "}")
    result = run_cli(*_SPECTRUM, "--nmax", "0", "--config", str(config))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"ERROR: config file {config} is nested too deeply\n"


@pytest.mark.parametrize("args, flag", [
    ("energy --m 1 --b1 0.5 --a2 -5e-2 --b2 0.3 --n 0", "--a2"),
    ("energy --m 1 --a1 0.1 --b1 0.5 --a2 -5e-2 --b2 0.3 --n 0", "--a2"),
    ("energy --m 1 --a1 1e3 --b1 0.5 --a2 -1E+3 --b2 0.3 --n 0", "--a2"),
    ("spectrum --m 1 --a1 -.5e-1 --b1 0.5 --b2 0.3 --nmax 0", "--a1"),
    ("scan --m 1 --b2 0.5 --param b1 --from -1e-3 --to 0.9 --steps 4", "--from"),
])
def test_negative_number_after_a_flag_is_its_value(capsys, args, flag):
    from kgkratzer import cli

    tokens = args.split()
    at = tokens.index(flag)
    joined = [*tokens[:at], f"{flag}={tokens[at + 1]}", *tokens[at + 2:]]
    outcomes = []
    for argv in (tokens, joined):
        code = cli.main(argv)
        outcomes.append((code, *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    assert "expected one argument" not in outcomes[0][2]


def test_negative_infinity_after_a_flag_is_refused_as_not_finite(capsys):
    from kgkratzer import cli

    assert cli.main("energy --m 1 --b1 0.5 --a2 -inf --b2 0.3 --n 0".split()) == 2
    assert capsys.readouterr().err == "ERROR: a2 must be finite, got -inf\n"


@pytest.mark.parametrize("args, code, error", [
    # A closed form with a negative centrifugal radicand has no level; a series has no value.
    pytest.param("energy --m 1 --a1 -1 --b1 0.5 --n 0 --method closed:pure_scalar", 3,
                 "ERROR: closed form 'pure_scalar' yields no particle level at n=0",
                 id="pure-scalar-negative-radicand"),
    pytest.param("energy --m 1 --a1 -1 --a2 -1 --b1 0.5 --b2 0.5 --n 0 "
                 "--method approx:equal_series", 2,
                 "ERROR: centrifugal radicand 1/4 + 2*(m*a1 + E*a2) = -3.75 negative at E=1.0",
                 id="equal-series-negative-radicand"),
    # Overflow and division by zero name the case.
    pytest.param("energy --m 1 --b1 1e200 --n 0 --method closed:coulomb_general", 2,
                 "ERROR: case 'coulomb_general' overflows a float at ", id="closed-overflow"),
    pytest.param("energy --m 1 --b2 1e200 --n 0 --method approx:pure_vector_series", 2,
                 "ERROR: case 'pure_vector_series' overflows a float at ", id="series-overflow"),
    pytest.param("energy --m 1 --a2 -0.5 --b2 0.3 --n 0 --method approx:pure_vector_series", 2,
                 "ERROR: case 'pure_vector_series' divides by zero at ", id="series-zero-division"),
    pytest.param("energy --m 1 --b1 0.5 --n 0 --method closed:bogus", 2,
                 "ERROR: unknown closed-form case 'bogus'", id="unknown-case"),
    # The ground state where r*r underflows, and where r^(c+1) overflows but chi does not.
    pytest.param("wavefunction --m 1 --b1 0.5 --b2 0.5 --e auto --rmin 1e-200 --rmax 1 "
                 "--points 2", 0, None, id="ground-state-tiny-radius"),
    pytest.param("wavefunction --m 1 --a1 0.5 --a2 0.5 --b1 0.5 --b2 0.5 --e auto --rmin 1 "
                 "--rmax 1e300 --points 2", 0, None, id="ground-state-huge-radius"),
    pytest.param("wavefunction --m 1 --a1 0.5 --a2 0.3 --b1 0.5 --b2 0.5 --e auto "
                 "--rmin 1e-170 --rmax 1 --points 2", 2,
                 "ERROR: the ground state at r=1e-170 leaves the float range",
                 id="ground-state-out-of-range"),
    # The n = 0 level lies in the boundary window c < 0, which the ground state refuses.
    pytest.param("wavefunction --m 1 --a1 -0.05 --b1 0.5 --b2 0.3 --e auto --rmin 0.1 "
                 "--rmax 1 --points 2 --normalize", 2,
                 "ERROR: ground state needs c >= 0 and k > 0, got c=-0.11",
                 id="ground-state-boundary-window"),
])
def test_analytic_command_ends_in_one_error_line_or_succeeds(capsys, args, code, error):
    from kgkratzer import cli

    assert cli.main(args.split()) == code
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("ERROR:")]
    if error is None:
        assert errors == []
    else:
        assert len(errors) == 1 and errors[0].startswith(error)


_NO_LEVEL = "--m 1 --b1 -0.5 --n 0"
_NO_LEVEL_ERROR = "no particle root of the spectrum equation at n=0"


@pytest.mark.parametrize("args, error", [
    pytest.param(f"energy {_NO_LEVEL}", _NO_LEVEL_ERROR, id="implicit"),
    pytest.param(f"energy {_NO_LEVEL} --method oracle", f"analytic: {_NO_LEVEL_ERROR}",
                 id="oracle"),
    pytest.param(f"energy {_NO_LEVEL} --compare oracle", _NO_LEVEL_ERROR, id="compare-oracle"),
    pytest.param(f"wavefunction {_NO_LEVEL} --e auto --rmin 0.1 --rmax 1 --points 2",
                 _NO_LEVEL_ERROR, id="wavefunction"),
])
def test_missing_level_reads_the_same_on_every_path(capsys, args, error):
    # One text, spectrum.no_level's; the oracle labels the analytic solve's failures.
    from kgkratzer import cli

    assert cli.main(args.split()) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"ERROR: {error}\n"


def test_verify_argument_error_exits_2_from_main(capsys):
    from kgkratzer import cli

    assert cli.main("verify --suite residuals --cases 0".split()) == 2
    assert capsys.readouterr().err == "ERROR: residuals suite needs cases >= 1\n"
