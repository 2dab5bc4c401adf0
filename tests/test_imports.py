"""The import contract: a command loads only the modules it runs.

Each test runs in a fresh interpreter, since this process has long since
imported every module of the package.
"""

import subprocess
import sys

import pytest


def _run(script):
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_cli_import_leaves_the_oracle_verify_and_wavefunction_unloaded():
    out = _run("""
import sys
import kgkratzer.cli
print(*sorted(name for name in sys.modules if name.startswith("kgkratzer.")))
""")
    loaded = out.split()
    for name in ("oracle", "_radial", "verify", "wavefunction"):
        assert f"kgkratzer.{name}" not in loaded, loaded


def test_every_public_name_resolves_after_import():
    _run("""
import kgkratzer
assert kgkratzer.kernel_backend() == "python"
for name in kgkratzer.__all__:
    assert getattr(kgkratzer, name) is not None, name
assert callable(kgkratzer.oracle.deviation_report)
assert callable(kgkratzer.wavefunction.residual_report)
assert kgkratzer.deviation_report is kgkratzer.oracle.deviation_report
namespace = {}
exec("from kgkratzer import *", namespace)
assert set(kgkratzer.__all__) <= set(namespace)
try:
    kgkratzer.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("an unknown name resolved")
""")


@pytest.mark.parametrize("name, argv", [
    ("run_suite", ["verify", "--suite", "limits"]),
    ("deviation_report", ["energy", "--m", "1", "--b1", "0.5", "--b2", "0.5", "--n", "0",
                          "--compare", "oracle"]),
    ("normalization", ["wavefunction", "--m", "1", "--b1", "0.5", "--b2", "0.5",
                       "--rmin", "0.1", "--rmax", "20", "--points", "3", "--normalize"]),
    ("eval_ground_state", ["wavefunction", "--m", "1", "--b1", "0.5", "--b2", "0.5",
                           "--rmin", "0.1", "--rmax", "20", "--points", "3"]),
])
def test_a_wrapper_set_on_the_cli_module_is_what_the_command_calls(name, argv):
    # The benchmark's tracer wraps these by name, before their first use.
    _run(f"""
import contextlib, io
import kgkratzer.cli as cli
original = getattr(cli, {name!r})
calls = []
def wrapper(*args, **kwargs):
    calls.append(args)
    return original(*args, **kwargs)
setattr(cli, {name!r}, wrapper)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main({argv!r}) == 0
assert calls, "the command did not call the wrapper"
setattr(cli, {name!r}, original)
""")
