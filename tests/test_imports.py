"""The modules a fresh process loads for each subcommand.

Every ``tcsim figure`` call is a process of its own, so a layer imported
without being used costs each of them its compile and set-up time.  These
tests run a fresh interpreter on ``src`` without bytecode, as the benchmark
does, and read its ``sys.modules`` after the command."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PRESET_SHA256 = ROOT / "perfbench" / "preset_sha256.json"
LAZY = ("tcsim.oracle", "tcsim.analysis", "tcsim.jc", "configparser")

# runs cli.main on argv[1:] with its output sent away, then prints the loaded module names
_REPORT = """\
import contextlib, io, json, sys
from tcsim import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def _env():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONSTARTUP", None)
    return env


def _run(*args, cwd):
    return subprocess.run([sys.executable, *args], env=_env(), cwd=cwd, capture_output=True,
                          text=True, check=True)


def _modules_after(argv, cwd) -> set[str]:
    report = json.loads(_run("-c", _REPORT, *argv, cwd=cwd).stdout)
    assert report["code"] == 0
    return set(report["modules"])


def test_import_of_the_package_and_the_cli_loads_no_unused_layer(tmp_path):
    code = "import json, sys; import {}; print(json.dumps(sorted(sys.modules)))"
    package = set(json.loads(_run("-c", code.format("tcsim"), cwd=tmp_path).stdout))
    assert {name for name in package if name.startswith("tcsim")} == {"tcsim"}
    loaded = set(json.loads(_run("-c", code.format("tcsim.cli"), cwd=tmp_path).stdout))
    assert {name for name in loaded if name.startswith("tcsim")} == {
        "tcsim", "tcsim.cli", "tcsim.errors", "tcsim.scenario", "tcsim.series", "tcsim.states", "tcsim.tc"}
    assert not loaded & set(LAZY)


def test_figure_loads_neither_the_oracle_nor_the_analysis_nor_the_ini_parser(tmp_path):
    loaded = _modules_after(["figure", "2c", "--points", "11", "--out-dir", str(tmp_path)], tmp_path)
    assert not loaded & set(LAZY)
    assert "tcsim.tc" in loaded


@pytest.mark.parametrize("argv, layer", [
    (["oracle-check", "--preset", "2c"], "tcsim.oracle"),
    (["analyze", "{dir}/fig2c.csv"], "tcsim.analysis"),
    (["figure", "1", "--points", "11", "--out-dir", "{dir}"], "tcsim.jc"),
])
def test_a_subcommand_loads_the_layer_it_runs(tmp_path, argv, layer):
    _modules_after(["figure", "2c", "--points", "101", "--out-dir", str(tmp_path)], tmp_path)
    argv = [arg.format(dir=tmp_path) for arg in argv]
    assert layer in _modules_after(argv, tmp_path)


def test_run_of_a_scenario_file_loads_the_ini_parser(tmp_path):
    path = tmp_path / "sc.ini"
    path.write_text("[oscillator]\nkind = number\nN = 1\n[environment]\np = 0.5\n"
                    "[couplings]\nlambda1 = 1\nlambda2 = 0.1\n"
                    "[grid]\nt_start = 0\nt_end = 1\npoints = 11\n", encoding="utf-8")
    loaded = _modules_after(["run", str(path), "--out", str(tmp_path / "out.csv")], tmp_path)
    assert "configparser" in loaded
    assert not loaded & {"tcsim.oracle", "tcsim.analysis", "tcsim.jc"}


def test_module_entry_point_reaches_the_pinned_digest_on_the_jc_route(tmp_path):
    pinned = json.loads(PRESET_SHA256.read_text(encoding="utf-8"))
    _run("-m", "tcsim.cli", "figure", "1", "--out-dir", str(tmp_path), cwd=tmp_path)
    assert hashlib.sha256((tmp_path / "fig1.csv").read_bytes()).hexdigest() == pinned["1"]
