import codecs
import hashlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import tcsim.tc as tc
from tcsim.cli import (
    _CSV_BLOCK_ROWS,
    _load_csv,
    closed_series,
    csv_lines,
    main,
    oracle_series,
    svg_lines,
    write_text,
)
from tcsim.errors import ScenarioParseError, ValidationError
from tcsim.scenario import (
    PRESET_IDS,
    Scenario,
    load_scenario,
    parse_scenario,
    preset,
    scenario_from_header,
)
from tcsim.series import PHASE_LIMIT, TimeSeries
from tcsim.states import TimeGrid, binomial_state

GOOD_SCENARIO = """\
[oscillator]
kind = number
N = 1
[environment]
p = 0.5
[couplings]
lambda1 = 1.0
lambda2 = 0.1
[grid]
t_start = 0
t_end = 30
points = 3001
[oracle]
enabled = true
omega = 0.0
"""


# ------------------------------------------------------------------ parsing


def test_parse_good_scenario():
    sc = parse_scenario(GOOD_SCENARIO)
    assert sc.kind == "number" and sc.params == (("N", 1),)
    assert sc.environment.p == 0.5 and sc.couplings.lambda2 == 0.1
    assert sc.grid.n_points == 3001
    assert sc.oracle_enabled and sc.effective_n_max() == 3


def test_load_scenario_skips_a_utf8_byte_order_mark(tmp_path):
    path = tmp_path / "bom.ini"
    path.write_bytes(codecs.BOM_UTF8 + GOOD_SCENARIO.encode("utf-8"))
    assert load_scenario(path) == parse_scenario(GOOD_SCENARIO, label=str(path))


def test_scenario_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "latin1.ini"
    path.write_bytes(GOOD_SCENARIO.replace("p = 0.5", "p = 0.5 ; \xb5").encode("latin-1"))
    assert main(["run", str(path)]) == 2
    assert f"cannot read scenario {str(path)!r}" in capsys.readouterr().err


def test_scenario_syntax_errors_name_the_file(tmp_path, capsys):
    path = tmp_path / "headless.ini"
    path.write_text("p = 0.5\n" + GOOD_SCENARIO, encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert f"file: {str(path)!r}, line: 1" in capsys.readouterr().err


def test_parse_rejects_unknown_key():
    bad = GOOD_SCENARIO.replace("p = 0.5", "p = 0.5\nq = 3")
    with pytest.raises(ScenarioParseError):
        parse_scenario(bad)


def test_parse_rejects_unknown_section():
    with pytest.raises(ScenarioParseError):
        parse_scenario(GOOD_SCENARIO + "\n[extras]\nfoo = 1\n")


def test_parse_rejects_missing_section():
    bad = "\n".join(
        line for line in GOOD_SCENARIO.splitlines() if line not in ("[environment]", "p = 0.5")
    )
    with pytest.raises(ScenarioParseError):
        parse_scenario(bad)


def test_parse_rejects_bad_kind_and_mismatched_keys():
    with pytest.raises(ScenarioParseError, match="unknown oscillator kind 'squeezed'"):
        parse_scenario(GOOD_SCENARIO.replace("kind = number", "kind = squeezed"))
    with pytest.raises(ScenarioParseError, match=re.escape("keys ['M'] do not apply to kind = number")):
        parse_scenario(GOOD_SCENARIO.replace("N = 1", "M = 4"))  # number needs N
    with pytest.raises(ScenarioParseError, match=re.escape("[oscillator] needs a kind")):
        parse_scenario(GOOD_SCENARIO.replace("kind = number\n", ""))
    with pytest.raises(ScenarioParseError, match=re.escape("kind = binomial requires keys ['q']")):
        parse_scenario(GOOD_SCENARIO.replace("kind = number\nN = 1", "kind = binomial\nM = 4"))
    with pytest.raises(ScenarioParseError, match="amplitudes = '' is not a non-empty list of numbers"):
        parse_scenario(GOOD_SCENARIO.replace("kind = number\nN = 1", "kind = custom\namplitudes ="))


def test_parse_binomial_and_custom_kinds():
    binomial = GOOD_SCENARIO.replace("kind = number\nN = 1", "kind = binomial\nM = 7\nq = 0.85")
    sc = parse_scenario(binomial)
    assert sc.params == (("M", 7), ("q", 0.85))
    custom = GOOD_SCENARIO.replace(
        "kind = number\nN = 1", "kind = custom\namplitudes = 0.6 0.8"
    )
    sc = parse_scenario(custom)
    assert sc.params == (("amplitudes", (0.6, 0.8)),)
    [(w, dist)] = sc.oscillator_components()
    assert w == 1.0 and np.allclose(dist.amplitudes, [0.6, 0.8])


def test_presets_carry_reference_parameters():
    assert set(PRESET_IDS) == {"1", "2a", "2b", "2c", "3", "4", "5", "6"}
    two_c = preset("2c")
    assert (two_c.kind, two_c.params, two_c.environment.p) == ("number", (("N", 1),), 0.5)
    assert (two_c.couplings.lambda1, two_c.couplings.lambda2) == (1.0, 0.1)
    four = preset("4")
    assert (four.params, four.couplings.lambda2) == ((("M", 100), ("q", 0.1)), 0.0)
    six = preset("6")
    assert (six.params, six.couplings.lambda2, six.environment.p) == ((("M", 11), ("q", 0.95)), 0.1, 0.5)
    three = preset("3")
    assert (three.grid.t_end, three.grid.n_points) == (100.0, 10001)
    one = preset("1")
    assert (one.kind, one.params, one.couplings.lambda2) == ("mixture01", (("f", 0.5),), 0.0)
    assert [preset(i).label for i in PRESET_IDS] == list(PRESET_IDS)
    with pytest.raises(ScenarioParseError):
        preset("2")
    with pytest.raises(ScenarioParseError):
        preset("9")


EVERY_KEY_SCENARIO = """\
[oscillator]
kind = custom
amplitudes = 0.6 0.8
[environment]
p = 0.25
[couplings]
lambda1 = 1.5
lambda2 = 0.2
[grid]
t_start = 0.5
t_end = 12
points = 11
[oracle]
enabled = yes
omega = 0.7
"""


def _emitted_header(sc):
    stub = TimeSeries(np.array([0.0, 1.0]), np.zeros(2))
    return [line for line in csv_lines(sc, stub, None) if line.startswith("#")]


def test_header_round_trip():
    for sc in [preset(pid) for pid in PRESET_IDS] + [parse_scenario(EVERY_KEY_SCENARIO)]:
        rebuilt = scenario_from_header(_emitted_header(sc))
        assert rebuilt.label == "csv-header"
        assert replace(rebuilt, label=sc.label) == sc


def test_header_lists_every_key_in_table_order():
    sc = parse_scenario(EVERY_KEY_SCENARIO)
    assert (sc.oracle_enabled, sc.oracle_omega) == (True, 0.7)
    assert sc.to_lines() == [
        "[oscillator] kind = custom",
        "[oscillator] amplitudes = 0.59999999999999998 0.80000000000000004",
        "[environment] p = 0.25",
        "[couplings] lambda1 = 1.5",
        "[couplings] lambda2 = 0.20000000000000001",
        "[grid] t_start = 0.5",
        "[grid] t_end = 12",
        "[grid] points = 11",
        "[oracle] enabled = true",
        "[oracle] omega = 0.69999999999999996",
    ]


def test_oracle_keys_default_to_the_scenario_defaults():
    defaults = {field.name: field.default for field in fields(Scenario)
                if field.name.startswith("oracle_")}
    assert defaults == {"oracle_enabled": False, "oracle_omega": 0.0}
    without = GOOD_SCENARIO[: GOOD_SCENARIO.index("[oracle]")]
    sc = parse_scenario(without)
    assert {name: getattr(sc, name) for name in defaults} == defaults
    partial = parse_scenario(without + "[oracle]\nomega = 0.5\n")
    assert (partial.oracle_enabled, partial.oracle_omega) == (False, 0.5)


def test_oracle_truncation_is_not_a_scenario_key(tmp_path, capsys):
    # the truncation is worked out from the oscillator support, where it is exact
    assert parse_scenario(GOOD_SCENARIO.replace("N = 1", "N = 11")).effective_n_max() == 13
    path = tmp_path / "n_max.ini"
    path.write_text(GOOD_SCENARIO.replace("omega = 0.0", "omega = 0.0\nn_max = 13"), encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == "error: unknown keys in [oracle]: ['n_max']\n"


def _as_header(text):
    """The `# [section] key = value` lines of a scenario document, as a CSV header holds them."""
    header, section = [], ""
    for line in text.splitlines():
        if line.startswith("["):
            section = line
        else:
            header.append(f"# {section} {line}")
    return header


@pytest.mark.parametrize("enabled, flag", [
    ("true", True), ("Yes", True), ("1", True), ("false", False), ("no", False), ("0", False),
])
def test_oracle_enabled_accepts_the_documented_booleans(enabled, flag):
    assert parse_scenario(GOOD_SCENARIO.replace("enabled = true", f"enabled = {enabled}")).oracle_enabled is flag


@pytest.mark.parametrize("old, new, message", [
    ("enabled = true", "enabled = maybe", r"^\[oracle\] enabled = 'maybe' is not a boolean$"),
    ("omega = 0.0", "omega = 0.0\nomgea = 1", r"^unknown keys in \[oracle\]: \['omgea'\]$"),
    ("points = 3001\n", "", r"^\[grid\] needs points$"),
    ("N = 1", "N = one", r"^\[oscillator\] N = 'one' is not an integer$"),
])
def test_scenario_errors_name_the_section_and_key(old, new, message):
    text = GOOD_SCENARIO.replace(old, new)
    with pytest.raises(ScenarioParseError, match=message):
        parse_scenario(text)
    # the CSV header read-back checks its lines against the same table
    with pytest.raises(ScenarioParseError, match=message):
        scenario_from_header(_as_header(text))


def test_a_probability_out_of_range_is_rejected_at_parse():
    text = GOOD_SCENARIO.replace("p = 0.5", "p = 1.5")
    for read in (parse_scenario, lambda document: scenario_from_header(_as_header(document))):
        with pytest.raises(ValidationError, match=r"^p = 1\.5 must lie in \[0, 1\]$"):
            read(text)


def test_the_first_section_in_error_is_reported(tmp_path, capsys):
    # [environment] comes before [grid] in the format table, so its bad p wins
    path = tmp_path / "two.ini"
    path.write_text(GOOD_SCENARIO.replace("p = 0.5", "p = 2").replace("points = 3001", "points = abc"),
                    encoding="utf-8")
    assert main(["run", str(path)]) == 3
    assert capsys.readouterr().err == "error: p = 2.0 must lie in [0, 1]\n"


@pytest.mark.parametrize("kind, key, value, message", [
    ("number", "N", -3, r"^number state index must be a non-negative integer, got -3$"),
    ("mixture01", "f", 1.5, r"^f = 1\.5 must lie in \[0, 1\]$"),
], ids=["number N = -3", "mixture01 f = 1.5"])
def test_an_oscillator_value_out_of_range_is_rejected_when_the_scenario_is_built(kind, key, value, message):
    text = GOOD_SCENARIO.replace("kind = number\nN = 1", f"kind = {kind}\n{key} = {value}")
    for read in (parse_scenario, lambda document: scenario_from_header(_as_header(document))):
        with pytest.raises(ValidationError, match=message):
            read(text)
    with pytest.raises(ValidationError, match=message):  # so that to_lines never writes the value
        replace(preset("2c"), kind=kind, params=((key, value),))


def test_a_bad_oscillator_value_is_reported_before_a_bad_grid(tmp_path, capsys):
    # [oscillator] is the first section, so its bad f wins over the grid's bad points
    path = tmp_path / "two.ini"
    path.write_text(GOOD_SCENARIO.replace("kind = number\nN = 1", "kind = mixture01\nf = 1.5")
                    .replace("points = 3001", "points = abc"), encoding="utf-8")
    assert main(["run", str(path)]) == 3
    assert capsys.readouterr().err == "error: f = 1.5 must lie in [0, 1]\n"


def test_a_zero_lambda1_is_rejected_when_the_scenario_is_built(tmp_path, capsys):
    text = GOOD_SCENARIO.replace("lambda1 = 1.0", "lambda1 = 0")
    message = r"^lambda1 must be positive for a nontrivial scenario$"
    for read in (parse_scenario, lambda document: scenario_from_header(_as_header(document))):
        with pytest.raises(ValidationError, match=message):
            read(text)
    path = tmp_path / "zero.ini"
    path.write_text(text, encoding="utf-8")
    assert main(["run", str(path)]) == 3
    assert capsys.readouterr().err == "error: lambda1 must be positive for a nontrivial scenario\n"
    # lambda1 > 0 is checked when the scenario is made, after every section is read, so
    # a value of a later section that does not parse is reported first
    path.write_text(text.replace("points = 3001", "points = abc"), encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == "error: [grid] points = 'abc' is not an integer\n"


def test_the_held_config_follows_the_fields():
    grid = TimeGrid(0.0, 5.0, 11)
    sc = replace(preset("2c"), grid=grid)
    assert sc.config.grid == grid
    assert len(closed_series(sc)) == 11


@pytest.mark.parametrize("args, builds", [
    (["oracle-check", "{path}"], 2), (["oracle-check", "--preset", "6"], 1),
    (["run", "{path}", "--out", "{out}"], 2),
], ids=["oracle-check-file", "oracle-check-preset-6", "run-file"])
def test_a_command_prepares_the_oscillator_state_once_per_scenario(tmp_path, monkeypatch, capsys, args,
                                                                     builds):
    # a document builds it twice: once when [oscillator] is read, before the later
    # sections, and once when the Scenario, which holds it, is made
    text = GOOD_SCENARIO.replace("kind = number\nN = 1", "kind = binomial\nM = 400\nq = 0.5")
    path, out = tmp_path / "wide.ini", tmp_path / "wide.csv"
    path.write_text(text.replace("points = 3001", "points = 11"), encoding="utf-8")
    calls = []
    monkeypatch.setattr("tcsim.scenario.binomial_state", lambda *a: calls.append(a) or binomial_state(*a))
    assert main([arg.format(path=path, out=out) for arg in args]) == 0
    capsys.readouterr()
    assert len(calls) == builds


def test_header_rejects_a_repeated_key():
    header = _emitted_header(preset("2c"))
    with pytest.raises(ScenarioParseError, match=r"^\[couplings\] lambda2 appears twice in the header$"):
        scenario_from_header(header + ["# [couplings] lambda2 = 0.5"])
    with pytest.raises(ScenarioParseError, match="no scenario metadata"):
        scenario_from_header(["# tcsim", "t,zeta"])


# ----------------------------------------------------------------- commands


def test_run_writes_csv(tmp_path):
    scenario_path = tmp_path / "fig2c.ini"
    scenario_path.write_text(GOOD_SCENARIO, encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main(["run", str(scenario_path), "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    header = [line for line in lines if line.startswith("#")]
    assert any("kind = number" in line for line in header)
    assert "t,zeta,zeta_oracle,abs_err" in lines
    data = [line for line in lines if not line.startswith("#")][1:]
    assert len(data) == 3001
    errs = np.array([float(line.split(",")[3]) for line in data])
    assert errs.max() <= 1e-8
    rebuilt = scenario_from_header(header)
    assert rebuilt.params == (("N", 1),) and rebuilt.environment.p == 0.5


def test_run_exit_codes(tmp_path, capsys):
    missing = tmp_path / "nope.ini"
    assert main(["run", str(missing)]) == 2

    bad = tmp_path / "bad.ini"
    bad.write_text(GOOD_SCENARIO.replace("p = 0.5", "p = 1.2"), encoding="utf-8")
    capsys.readouterr()
    for command in ("run", "oracle-check"):
        assert main([command, str(bad)]) == 3
        assert capsys.readouterr().err == "error: p = 1.2 must lie in [0, 1]\n"

    garbled = tmp_path / "garbled.ini"
    garbled.write_text("kind = number\n", encoding="utf-8")
    assert main(["run", str(garbled)]) == 2


def test_run_validates_the_environment_on_the_single_branch_route(tmp_path):
    mixture = GOOD_SCENARIO.replace("kind = number\nN = 1", "kind = mixture01\nf = 0.5")
    mixture = mixture.replace("lambda2 = 0.1", "lambda2 = 0.0")
    path = tmp_path / "mixture.ini"
    path.write_text(mixture, encoding="utf-8")
    assert main(["run", str(path)]) == 0
    path.write_text(mixture.replace("p = 0.5", "p = 1.5"), encoding="utf-8")
    assert main(["run", str(path)]) == 3


def test_a_mixture_fraction_outside_the_unit_interval_is_named(tmp_path, capsys):
    mixture = GOOD_SCENARIO.replace("kind = number\nN = 1", "kind = mixture01\nf = 1.5")
    path = tmp_path / "mixture.ini"
    path.write_text(mixture.replace("lambda2 = 0.1", "lambda2 = 0"), encoding="utf-8")
    assert main(["run", str(path)]) == 3
    assert capsys.readouterr().err == "error: f = 1.5 must lie in [0, 1]\n"


@pytest.mark.parametrize("command, omega, enabled", [
    ("run", "nan", "true"), ("oracle-check", "inf", "true"), ("run", "nan", "false"),
], ids=["run-nan", "oracle-check-inf", "run-nan-oracle-off"])
def test_non_finite_omega_is_a_validation_error(tmp_path, capsys, command, omega, enabled):
    text = GOOD_SCENARIO.replace("omega = 0.0", f"omega = {omega}")
    path = tmp_path / "omega.ini"
    path.write_text(text.replace("enabled = true", f"enabled = {enabled}"), encoding="utf-8")
    assert main([command, str(path)]) == 3
    assert f"omega = {omega} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("omega", [None, "1", 1j])
def test_omega_that_is_not_a_real_number_is_a_validation_error(omega):
    with pytest.raises(ValidationError, match=re.escape(f"omega = {omega!r} must be finite")):
        replace(preset("2c"), oracle_omega=omega)


def test_omega_overflowing_the_oracle_hamiltonian_is_a_validation_error(tmp_path, capsys):
    text = GOOD_SCENARIO.replace("omega = 0.0", "omega = 1e308")
    path, out = tmp_path / "omega.ini", tmp_path / "omega.csv"
    path.write_text(text, encoding="utf-8")
    assert main(["run", str(path), "--out", str(out)]) == 3
    assert "omega = 1e+308, lambda1 = 1.0, lambda2 = 0.1 overflow" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lambda1, lambda2", [("1e154", "1e-10"), ("1e155", "0"), ("1", "1e160")])
def test_couplings_too_large_for_double_precision_are_a_validation_error(
    tmp_path, capsys, lambda1, lambda2
):
    text = GOOD_SCENARIO.replace("lambda1 = 1.0", f"lambda1 = {lambda1}")
    text = text.replace("lambda2 = 0.1", f"lambda2 = {lambda2}").replace("points = 3001", "points = 11")
    path, out = tmp_path / "huge.ini", tmp_path / "huge.csv"
    path.write_text(text, encoding="utf-8")
    assert main(["run", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"lambda1 = {float(lambda1)!r}, lambda2 = {float(lambda2)!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("lambda1, lambda2", [("1e-170", "0"), ("1e-100", "1e-100")])
def test_couplings_too_small_for_double_precision_are_a_validation_error(
    tmp_path, capsys, lambda1, lambda2
):
    text = GOOD_SCENARIO.replace("lambda1 = 1.0", f"lambda1 = {lambda1}")
    text = text.replace("lambda2 = 0.1", f"lambda2 = {lambda2}").replace("p = 0.5", "p = 0")
    text = text.replace("t_end = 30", f"t_end = {30 / float(lambda1)!r}").replace("points = 3001", "points = 301")
    path, out = tmp_path / "tiny.ini", tmp_path / "tiny.csv"
    path.write_text(text, encoding="utf-8")
    assert main(["run", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"lambda1 = {float(lambda1)!r}, lambda2 = {float(lambda2)!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("changes, source", [
    ({"lambda1 = 1.0": "lambda1 = 1e50"}, "block 0"),
    ({"kind = number\nN = 1": "kind = mixture01\nf = 0.5", "lambda1 = 1.0": "lambda1 = 1e150",
      "lambda2 = 0.1": "lambda2 = 0"}, "vacuum/one-photon mixture"),
    ({"omega = 0.0": "omega = 1e300"}, "block 0"),
    # equal couplings: d_minus = 0, whose t-linear terms would overflow
    ({"lambda2 = 0.1": "lambda2 = 1.0"}, "block 0"),
    ({"omega = 0.0": "omega = 1e300", "t_end = 1e300": "t_end = 30"}, "oracle eigenvalue"),
])
def test_phases_beyond_double_precision_are_rejected_before_evaluation(
    tmp_path, capsys, changes, source
):
    text = GOOD_SCENARIO.replace("t_end = 30", "t_end = 1e300").replace("points = 3001", "points = 11")
    for old, new in changes.items():
        text = text.replace(old, new)
    path, out = tmp_path / "phase.ini", tmp_path / "phase.csv"
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {source}: the phase at frequency ")
    assert "is beyond double precision" in err
    assert not out.exists()


def test_phase_check_covers_only_the_blocks_the_closed_form_evaluates(tmp_path, capsys):
    # binomial(400, 0.5) leaves out its indices below 86 and above 314: the
    # highest block it evaluates is 314, inside the phase limit at this
    # t_end, while block 401 of the full support is past it
    text = GOOD_SCENARIO.replace("kind = number\nN = 1", "kind = binomial\nM = 400\nq = 0.5")
    text = text.replace("t_end = 30", "t_end = 2.2e14").replace("points = 3001", "points = 11")
    text = text.replace("enabled = true", "enabled = false")
    path, out = tmp_path / "wide.ini", tmp_path / "wide.csv"
    path.write_text(text, encoding="utf-8")
    config = load_scenario(path).config
    P, C = tc._density_bands(config)
    last = int(np.flatnonzero(P)[-1])
    assert last + (C[last] != 0.0) == 314
    assert tc.spectral_params(314, config.couplings).d_plus * 2.2e14 < PHASE_LIMIT
    assert tc.spectral_params(401, config.couplings).d_plus * 2.2e14 >= PHASE_LIMIT
    assert main(["run", str(path), "--out", str(out)]) == 0
    # the oracle keeps every index, so its largest eigenvalue is still refused
    capsys.readouterr()
    assert main(["oracle-check", str(path)]) == 3
    assert capsys.readouterr().err.startswith("error: oracle eigenvalue: the phase at frequency ")


def test_phase_check_skips_the_blocks_of_a_branch_of_weight_zero(tmp_path, capsys):
    # |1> at p = 0 has only the ground branch, which reads block 0; block 1,
    # read only by the excited branch, is past the phase limit at this t_end
    text = GOOD_SCENARIO.replace("p = 0.5", "p = 0").replace("t_end = 30", "t_end = 2.8e15")
    text = text.replace("points = 3001", "points = 11").replace("enabled = true", "enabled = false")
    path, out = tmp_path / "pure.ini", tmp_path / "pure.csv"
    path.write_text(text, encoding="utf-8")
    config = load_scenario(path).config
    assert tc.spectral_params(0, config.couplings).d_plus * 2.8e15 < PHASE_LIMIT
    assert tc.spectral_params(1, config.couplings).d_plus * 2.8e15 >= PHASE_LIMIT
    assert main(["run", str(path), "--out", str(out)]) == 0
    # the oracle leaves out the same branch and forms only the sector of
    # block 0, so neither phase check refuses; this close to the limit the
    # two curves then differ by far more than --tol (exit 5), as the error
    # model C eps d_max t_max allows
    capsys.readouterr()
    assert main(["oracle-check", str(path)]) == 5
    captured = capsys.readouterr()
    assert "FAIL" in captured.out and "phase" not in captured.err


@pytest.mark.parametrize("points", ["100000000000000000", "1000000000000000000000000000000"])
def test_grid_too_large_for_memory_is_a_validation_error(tmp_path, capsys, points):
    # 8e17 bytes exceed every 64-bit address space, so numpy refuses the
    # request without allocating it; 1e30 points exceed numpy's size limit
    path = tmp_path / "huge.ini"
    path.write_text(GOOD_SCENARIO.replace("points = 3001", f"points = {points}"), encoding="utf-8")
    assert main(["run", str(path)]) == 3
    assert f"a grid of {points} points does not fit in memory" in capsys.readouterr().err


def test_run_svg_requires_out(tmp_path):
    scenario_path = tmp_path / "sc.ini"
    scenario_path.write_text(GOOD_SCENARIO, encoding="utf-8")
    assert main(["run", str(scenario_path), "--svg"]) == 2


def test_run_svg_refuses_to_overwrite_the_csv(tmp_path, capsys):
    scenario_path = tmp_path / "sc.ini"
    scenario_path.write_text(GOOD_SCENARIO, encoding="utf-8")
    out = tmp_path / "plot.svg"
    assert main(["run", str(scenario_path), "--out", str(out), "--svg"]) == 2
    assert not out.exists()
    assert str(out) in capsys.readouterr().err


def test_run_svg_escapes_the_title(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("R&D<1>.ini").write_text(GOOD_SCENARIO.replace("points = 3001", "points = 11"), encoding="utf-8")
    assert main(["run", "R&D<1>.ini", "--out", "rd.csv", "--svg"]) == 0
    title = minidom.parse("rd.svg").getElementsByTagName("text")[0]
    assert title.firstChild.data == "scenario R&D<1>.ini"


@pytest.mark.parametrize("out, flags", [("missing/x.csv", []), (".", []), (".", ["--svg"])])
def test_run_to_an_unwritable_path_is_a_usage_error(tmp_path, monkeypatch, capsys, out, flags):
    monkeypatch.chdir(tmp_path)
    Path("sc.ini").write_text(GOOD_SCENARIO, encoding="utf-8")
    assert main(["run", "sc.ini", "--out", out, *flags]) == 2
    assert f"cannot write {out}" in capsys.readouterr().err


def test_figure_out_dir_that_is_a_file_is_a_usage_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    assert main(["figure", "2c", "--out-dir", str(taken)]) == 2
    assert f"cannot write {taken}" in capsys.readouterr().err


def test_figure_outputs_are_byte_identical(tmp_path):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert main(["figure", "2c", "--out-dir", str(dir_a)]) == 0
    assert main(["figure", "2c", "--out-dir", str(dir_b)]) == 0
    first = (dir_a / "fig2c.csv").read_bytes()
    second = (dir_b / "fig2c.csv").read_bytes()
    assert first == second
    # the emitted metadata header reproduces the preset
    header = [
        line
        for line in first.decode("utf-8").splitlines()
        if line.startswith("#")
    ]
    rebuilt = scenario_from_header(header)
    reference = preset("2c")
    assert (rebuilt.kind, rebuilt.params, rebuilt.environment.p) == (
        reference.kind,
        reference.params,
        reference.environment.p,
    )
    assert rebuilt.couplings == reference.couplings
    assert rebuilt.grid == reference.grid


_PRESET_SHA256 = Path(__file__).resolve().parents[1] / "perfbench" / "preset_sha256.json"


@pytest.mark.parametrize("preset_id", PRESET_IDS)
def test_figure_bytes_match_the_pinned_digest(tmp_path, preset_id):
    pinned = json.loads(_PRESET_SHA256.read_text(encoding="utf-8"))
    assert main(["figure", preset_id, "--out-dir", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / f"fig{preset_id}.csv").read_bytes()).hexdigest()
    assert digest == pinned[preset_id]


def _reference_body(columns):
    """The data rows of a CSV, formatted one field at a time."""
    return [",".join(format(float(x), ".17g") for x in row) for row in zip(*columns)]


@pytest.mark.parametrize("preset_id", ["1", "2c", "6"])
def test_oracle_columns_match_a_per_field_reference(preset_id):
    sc = preset(preset_id)
    closed, checked = closed_series(sc), oracle_series(sc)
    lines = list(csv_lines(sc, closed, checked))
    assert lines[len(sc.to_lines())] == "t,zeta,zeta_oracle,abs_err"
    errors = [abs(z - zo) for z, zo in zip(closed.values, checked.values)]
    reference = _reference_body([closed.times, closed.values, checked.values, errors])
    assert "\n".join(lines[len(sc.to_lines()) + 1:]).split("\n") == reference


def test_awkward_doubles_match_a_per_field_reference_across_blocks():
    awkward = [5e-324, 1e-300, 0.1, 1 / 3, 2.0**60, 0.0]
    n = 2 * _CSV_BLOCK_ROWS + 7
    times = np.arange(n) / 3 + 1e-300
    values = np.resize(awkward, n)
    lines = list(csv_lines(preset("2c"), TimeSeries(times, values), None))
    blocks = lines[len(preset("2c").to_lines()) + 1:]
    assert len(blocks) == 3
    assert "\n".join(blocks).split("\n") == _reference_body([times, values])


def test_csv_and_svg_lines_are_iterators():
    sc = preset("2c", points=11)
    closed = closed_series(sc)
    for lines in (csv_lines(sc, closed, None), svg_lines(closed, "figure 2c")):
        assert iter(lines) is lines


def test_svg_points_match_a_per_point_reference_across_blocks():
    n = 2 * _CSV_BLOCK_ROWS + 7
    times = np.linspace(0.5, 40.0, n)
    values = 0.25 + 0.3 * np.sin(times)  # above 0.5 and below 0 in places
    t0, t1, z1 = times[0], times[-1], max(0.5, float(values.max()))

    def sx(t):
        return 70 + (t - t0) / (t1 - t0) * 870

    def sy(z):
        return 30 + (z1 - z) / (z1 - 0.0) * 460

    reference = " ".join(f"{sx(t):.2f},{sy(z):.2f}" for t, z in zip(times, values))
    polyline = [line for line in svg_lines(TimeSeries(times, values), "long") if line.startswith("<polyline")]
    assert polyline == [f'<polyline points="{reference}" fill="none" stroke="#1f5fa8" stroke-width="1"/>']


def test_figure_one_takes_the_mixture_closed_form_path(tmp_path):
    from tcsim.jc import jc_mixture_entropy

    assert main(["figure", "1", "--out-dir", str(tmp_path)]) == 0
    rows = [
        line
        for line in (tmp_path / "fig1.csv").read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#") and not line.startswith("t,")
    ]
    t = np.array([float(r.split(",")[0]) for r in rows])
    zeta = np.array([float(r.split(",")[1]) for r in rows])
    assert np.max(np.abs(zeta - jc_mixture_entropy(0.5, 1.0, t))) == 0.0


def test_figure_grid_override_and_svg(tmp_path):
    assert main(
        ["figure", "5", "--out-dir", str(tmp_path), "--t-end", "10", "--points", "501", "--svg"]
    ) == 0
    csv_lines = (tmp_path / "fig5.csv").read_text(encoding="utf-8").splitlines()
    data = [line for line in csv_lines if not line.startswith("#")][1:]
    assert len(data) == 501
    svg = (tmp_path / "fig5.svg").read_text(encoding="utf-8")
    assert svg.startswith("<?xml") and "<polyline" in svg and "zeta" in svg


def test_figure_rejects_bad_ids(tmp_path):
    assert main(["figure", "9", "--out-dir", str(tmp_path)]) == 2
    assert main(["figure", "2", "--out-dir", str(tmp_path)]) == 2


def test_oracle_check_passes_on_reference_preset(capsys):
    assert main(["oracle-check", "--preset", "2c", "--tol", "1e-8"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_oracle_check_names_the_worst_point(capsys):
    assert main(["oracle-check", "--preset", "2c"]) == 0
    out = capsys.readouterr().out
    max_err = float(re.search(r"zeta_oracle\| = (\S+) over", out).group(1))
    fields = re.search(r"worst point: t = (\S+)  zeta_closed = (\S+)  zeta_oracle = (\S+)", out)
    t, z_closed, z_oracle = (float(x) for x in fields.groups())
    scenario = preset("2c")
    closed, checked = closed_series(scenario), oracle_series(scenario)
    errors = np.abs(closed.values - checked.values)
    i = int(np.argmax(errors))
    assert (t, z_closed, z_oracle) == (closed.times[i], closed.values[i], checked.values[i])
    assert abs(z_closed - z_oracle) == pytest.approx(max_err, rel=1e-3)


def test_oracle_check_prints_the_error_model_bound_next_to_a_failure(tmp_path, capsys):
    # both pipelines are as exact as double precision allows at t ~ 1e8, where the
    # phase rounding alone exceeds the default --tol; the bound says so
    text = GOOD_SCENARIO.replace("kind = number\nN = 1", "kind = binomial\nM = 11\nq = 0.95")
    path = tmp_path / "far.ini"
    path.write_text(text.replace("t_start = 0", "t_start = 1e8").replace("t_end = 30", "t_end = 100000030"),
                    encoding="utf-8")
    assert main(["oracle-check", str(path)]) == 5
    out = capsys.readouterr().out
    max_err = float(re.search(r"zeta_oracle\| = (\S+) over", out).group(1))
    expected = float(re.search(r"^expected <~ 4\*eps\*d_max\*t_max \+ 2e-14 = (\S+)  "
                               r"\(d_max = \S+, t_max = 100000030\)$", out, flags=re.MULTILINE).group(1))
    assert expected == pytest.approx(3.6e-7, rel=0.01)
    assert 1e-8 < max_err <= expected


@pytest.mark.parametrize("p", ["0", "1"])
def test_oracle_check_d_max_is_that_of_the_block_above_the_cutoff_at_every_p(tmp_path, capsys, p):
    # |1> reads only block 0 at p = 0 (d_plus 1.447) and only block 1 at p = 1
    # (1.79683), but the bound takes block 2's: with the blocks read, the
    # oracle's eigenvalue error pushes the difference past 4 eps d_max t_max
    # on some grids at p = 0 (RESOLVED_EQUATIONS.md, "Closed-vs-oracle error
    # model")
    path = tmp_path / "one.ini"
    path.write_text(GOOD_SCENARIO.replace("p = 0.5", f"p = {p}"), encoding="utf-8")
    assert main(["oracle-check", str(path)]) == 0
    assert "(d_max = 2.09579, t_max = 30)" in capsys.readouterr().out
    couplings = load_scenario(path).config.couplings
    assert f"{tc.spectral_params(2, couplings).d_plus:.6g}" == "2.09579"


def test_oracle_check_fails_on_corrupted_frequency_pairing(monkeypatch, capsys):
    true_params = tc.spectral_params

    def corrupted(n, couplings):
        sp = true_params(n, couplings)
        # swap the frequency pair: equivalent to flipping the sign of the
        # discriminant inside both d_plus and d_minus
        return tc.SpectralParams(
            n=sp.n,
            D=sp.D,
            d_plus=sp.d_minus,
            d_minus=sp.d_plus,
            a_plus=sp.a_plus,
            a_minus=sp.a_minus,
            b_plus=sp.b_plus,
            b_minus=sp.b_minus,
        )

    monkeypatch.setattr(tc, "spectral_params", corrupted)
    assert main(["oracle-check", "--preset", "2c", "--tol", "1e-8"]) == 5
    assert "FAIL" in capsys.readouterr().out


def test_oracle_check_passes_tight_tolerance_when_decoupled(tmp_path):
    scenario = GOOD_SCENARIO.replace("lambda2 = 0.1", "lambda2 = 0.0")
    path = tmp_path / "decoupled.ini"
    path.write_text(scenario, encoding="utf-8")
    assert main(["oracle-check", str(path), "--tol", "1e-10"]) == 0


def test_oracle_check_needs_target():
    assert main(["oracle-check"]) == 2


def test_oracle_check_rejects_a_file_and_a_preset_together(capsys):
    assert main(["oracle-check", "does-not-exist.ini", "--preset", "2c"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exactly one of a scenario file and --preset" in captured.err


@pytest.mark.parametrize("argv, value", [
    (["oracle-check", "--preset", "2a", "--tol", "nan"], "'nan' is not a finite number"),
    (["oracle-check", "--preset", "2a", "--tol", "inf"], "'inf' is not a finite number"),
    (["oracle-check", "--preset", "2a", "--tol", "-1"], "tolerance '-1' is negative"),
    (["analyze", "missing.csv", "--after", "nan"], "'nan' is not a finite number"),
    (["figure", "2a", "--t-end", "nan"], "'nan' is not a finite number"),
    (["figure", "2a", "--t-end", "inf"], "'inf' is not a finite number"),
    (["figure", "2a", "--points", "1"], "'1' is less than 2"),
    (["analyze", "missing.csv", "--peaks", "0"], "'0' is less than 1"),
    (["oracle-check", "--preset", "2a", "--tol", "abc"], "'abc' is not a finite number"),
    (["figure", "2a", "--points", "abc"], "'abc' is not an integer"),
])
def test_non_finite_or_negative_numeric_options_are_usage_errors(capsys, argv, value):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert value in capsys.readouterr().err


def test_analyze_reports_peaks(tmp_path, capsys):
    assert main(["figure", "2a", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["analyze", str(tmp_path / "fig2a.csv"), "--after", "5", "--peaks", "4"]) == 0
    out = capsys.readouterr().out
    assert "global minimum" in out
    assert out.count("peak:") == 4


def test_analyze_rejects_missing_file(tmp_path):
    assert main(["analyze", str(tmp_path / "nothing.csv")]) == 2


def test_analyze_rejects_times_that_do_not_increase(tmp_path, capsys):
    path = tmp_path / "backwards.csv"
    # a t that goes back and a repeated t, named by data row as the other row messages are
    for rows, row, t, before in (("0,0.1\n2,0.2\n1,0.3\n", 3, "1.0", "2.0"),
                                 ("0,0.1\n# note\n1.5,0.2\n\n1.5,0.3\n", 3, "1.5", "1.5")):
        path.write_text(f"t,zeta\n{rows}3,0.1\n", encoding="utf-8")
        assert main(["analyze", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.err == (f"error: data row {row} of {path} has t = {t}, not above the t = {before} "
                                "before it; times must be strictly increasing\n")
        assert captured.out == ""


def test_analyze_names_the_ragged_step_before_any_output(tmp_path, capsys):
    path = tmp_path / "ragged.csv"
    path.write_text("t,zeta\n0,0.1\n1,0.2\n3,0.1\n3.5,0.2\n", encoding="utf-8")
    assert main(["analyze", str(path)]) == 3
    captured = capsys.readouterr()
    assert "step 1 at t = 1 is 2.0" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("row", ["2,nan", "2,inf", "-inf,0.1", "2,1e999"])
def test_analyze_rejects_non_finite_rows(tmp_path, capsys, row):
    path = tmp_path / "nonfinite.csv"
    path.write_text(f"t,zeta\n0,0.1\n1,0.2\n{row}\n3,0.1\n", encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    assert "data row 3 " in capsys.readouterr().err


def test_analyze_rejects_zeta_outside_its_range(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    rows = [f"{k},{'1e308' if k % 2 else '-1e308'}" for k in range(10)]
    path.write_text("t,zeta\n" + "\n".join(rows) + "\n", encoding="utf-8")
    assert main(["analyze", str(path)]) == 3
    captured = capsys.readouterr()
    assert "data row 1 " in captured.err and "outside [0, 0.5]" in captured.err
    assert captured.out == ""


def test_analyze_rejects_undecodable_file(tmp_path):
    path = tmp_path / "binary.csv"
    path.write_bytes(b"t,zeta\n0,\xff\xfe\n")
    assert main(["analyze", str(path)]) == 2


@pytest.mark.parametrize("enabled", ["false", "true"])
def test_load_csv_reads_back_the_emitted_series(tmp_path, enabled):
    path, out = tmp_path / "sc.ini", tmp_path / "out.csv"
    path.write_text(GOOD_SCENARIO.replace("enabled = true", f"enabled = {enabled}"), encoding="utf-8")
    assert main(["run", str(path), "--out", str(out)]) == 0
    expected = closed_series(load_scenario(path))
    series = _load_csv(out)
    assert np.array_equal(series.times, expected.times)
    assert np.array_equal(series.values, expected.values)


def test_analyze_names_the_file_and_the_field_of_a_bad_row(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    # data rows count from 1, leaving out the header and every blank or # line
    for head in ("t,zeta\n", "# a\n\n#b\nt,zeta\n"):
        path.write_text(head + "0,0.1\n1,0.2\n\n# c\n2,abc\n3,0.1\n", encoding="utf-8")
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: data row 3 of {path}, column 2, is not a number: 'abc'\n"
        assert captured.out == ""


@pytest.mark.parametrize("row, message", [
    ("2,abc", "data row 2 of {path}, column 2, is not a number: 'abc'"),
    ("5", "data row 2 of {path} has 1 column; t and zeta need 2"),
    ("2,nan", "data row 2 of {path} is not finite: 2,nan"),
    ("abc", "data row 2 of {path}, column 1, is not a number: 'abc'"),
    ("2,", "data row 2 of {path}, column 2, is not a number: ''"),
    ("2,1_0", "data row 2 of {path}, column 2, is not a number: '1_0'"),
    ("2,\u0661", "data row 2 of {path}, column 2, is not a number: '\u0661'"),
], ids=["not a number", "short", "not finite", "bad t", "empty", "digit separator", "non-ASCII digit"])
def test_every_bad_row_message_counts_data_rows_from_one(tmp_path, capsys, row, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"t,zeta\n0,0.1\n{row}\n3,0.1\n", encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"


def test_load_csv_reads_a_good_file_with_one_numpy_call_and_no_second_pass(tmp_path, monkeypatch):
    import tcsim.cli as cli

    sc = preset("2c", points=101)
    path = tmp_path / "fig.csv"
    write_text(path, csv_lines(sc, closed_series(sc), None))
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: calls.append(args[0]) or loadtxt(*args, **kwargs))
    monkeypatch.setattr(cli, "_bad_row", None)  # not called unless numpy fails
    assert len(_load_csv(path)) == 101
    # the path, not an open file: only a path gets numpy's block reader
    assert calls == [path]


def test_load_csv_reads_rows_after_a_header_longer_than_numpys_read_block(tmp_path):
    sc = preset("2c", points=101)
    closed = closed_series(sc)
    path = tmp_path / "fig.csv"
    write_text(path, itertools.chain([f"# note {k}" for k in range(20_000)], csv_lines(sc, closed, None)))
    series = _load_csv(path)
    assert np.array_equal(series.times, closed.times)
    assert np.array_equal(series.values, closed.values)


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_analyze_reads_a_plain_csv_named_like_a_compressed_file(tmp_path, capsys, suffix):
    # numpy would pick a decompressor by these suffixes; tcsim writes plain text under any name
    assert main(["figure", "2c", "--points", "101", "--out-dir", str(tmp_path)]) == 0
    csv = tmp_path / "fig2c.csv"
    named = tmp_path / f"c.csv{suffix}"
    named.write_bytes(csv.read_bytes())
    capsys.readouterr()
    assert main(["analyze", str(csv)]) == 0
    expected = capsys.readouterr()
    assert main(["analyze", str(named)]) == 0
    assert capsys.readouterr() == expected


@pytest.mark.skipif(not Path("/dev/stdin").exists(), reason="needs /dev/stdin")
def test_analyze_refuses_a_pipe_that_numpy_would_open_a_second_time(tmp_path):
    # the header is counted in one pass and numpy opens the file again: a pipe
    # would lose the lines the first pass read
    assert main(["figure", "2c", "--points", "11", "--out-dir", str(tmp_path)]) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-m", "tcsim.cli", "analyze", "/dev/stdin"],
                          input=(tmp_path / "fig2c.csv").read_text(encoding="utf-8"),
                          capture_output=True, env=env, text=True)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: cannot read /dev/stdin: underlying stream is not seekable\n"


@pytest.mark.parametrize("oracle_columns", [False, True], ids=["2 columns", "4 columns"])
@pytest.mark.parametrize("preset_id", PRESET_IDS)
def test_load_csv_reads_back_every_preset_bit_for_bit(tmp_path, preset_id, oracle_columns):
    sc = preset(preset_id)
    closed = closed_series(sc)
    path = tmp_path / "fig.csv"
    write_text(path, csv_lines(sc, closed, oracle_series(sc) if oracle_columns else None))
    series = _load_csv(path)
    assert np.array_equal(series.times, closed.times)
    assert np.array_equal(series.values, closed.values)


@pytest.mark.parametrize("text", [
    "\n# a\n\n#b\nt,zeta\n0,0.25\n1,0.125\n",
    "# a\r\nt,zeta\r\n0,0.25\r\n1,0.125\r\n",
    "\r# a\rt,zeta\r0,0.25\r1,0.125\r",
    "  # a\n   \n  t,zeta \n 0 , 0.25 \n1 ,0.125  \n",
    "t,zeta\n0,0.25\n\n# a\n1,0.125 # b\n",
    "\ufeff# a\nt,zeta\n0,0.25\n1,0.125\n",
    "\ufeff0,0.25\n1,0.125\n",
], ids=["blank and # lines first", "CRLF", "CR", "spaces", "empty and # lines among the rows",
        "byte-order mark before the header", "byte-order mark before a data row"])
def test_load_csv_reads_header_variants(tmp_path, text):
    path = tmp_path / "variant.csv"
    path.write_bytes(text.encode("utf-8"))
    series = _load_csv(path)
    assert series.times.tolist() == [0.0, 1.0] and series.values.tolist() == [0.25, 0.125]


@pytest.mark.parametrize("text", ["", "# a\nt,zeta\n", "# a\r\nt,zeta\r\n\r\n   \r\n"],
                         ids=["empty", "header only", "CRLF header and blank lines"])
def test_analyze_without_data_rows_exits_2_without_a_warning(tmp_path, capsys, text):
    path = tmp_path / "empty.csv"
    path.write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", str(path)]) == 2
    assert f"no data rows in {path}" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["t,zeta", "  "], ids=["header", "spaces"])
def test_analyze_rejects_a_header_or_space_line_after_the_first_data_row(tmp_path, capsys, line):
    path = tmp_path / "late.csv"
    path.write_text(f"t,zeta\n0,0.1\n{line}\n1,0.2\n", encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    field = line.split(",")[0]
    assert f"data row 2 of {path}, column 1, is not a number: {field!r}" in capsys.readouterr().err


def test_analyze_reports_undecodable_bytes_deep_in_the_body_as_unreadable(tmp_path, capsys):
    path = tmp_path / "binary.csv"
    path.write_bytes(b"t,zeta\n" + b"".join(b"%d,0.1\n" % k for k in range(100_000)) + b"9,\xff\n")
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"cannot read {path}: 'utf-8' codec can't decode byte 0xff" in err
    assert "data row" not in err


@pytest.mark.parametrize("tail", [b"\xff\n" + b"1,0.1\n" * 1000, b"\xe2\x82"],
                         ids=["invalid-start", "truncated-at-end"])
def test_analyze_names_the_file_offset_of_undecodable_bytes(tmp_path, capsys, tail):
    # a comment line of two-byte characters at odd offsets, so that one of them
    # straddles the end of every even-sized read block, and the bad bytes about
    # 1.2 MB in, far past the first block numpy decodes
    data = (b"t,zeta\n#x" + "\u00e9".encode() * 50_000 + b"\n"
            + b"".join(b"%d,0.1\n" % k for k in range(100_000)) + b"9," + tail)
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode("utf-8")
    path = tmp_path / "binary.csv"
    path.write_bytes(data)
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == f"error: cannot read {path}: {whole.value}\n"


def test_load_csv_skips_a_byte_order_mark_in_a_file_named_like_a_compressed_one(tmp_path):
    # such a file goes to numpy as an open text file rather than as a path
    assert main(["figure", "2c", "--points", "101", "--out-dir", str(tmp_path)]) == 0
    plain = _load_csv(tmp_path / "fig2c.csv")
    path = tmp_path / "bom.csv.gz"
    path.write_bytes(codecs.BOM_UTF8 + (tmp_path / "fig2c.csv").read_bytes())
    series = _load_csv(path)
    assert np.array_equal(series.times, plain.times)
    assert np.array_equal(series.values, plain.values)


def test_a_bad_first_row_after_a_byte_order_mark_is_named_without_the_mark(tmp_path, capsys):
    path = tmp_path / "bom.csv"
    path.write_bytes(codecs.BOM_UTF8 + b"abc,0.25\n1,0.125\n")
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == f"error: data row 1 of {path}, column 1, is not a number: 'abc'\n"


def test_analyze_counts_an_undecodable_byte_after_a_byte_order_mark_from_the_first_byte(tmp_path, capsys):
    path = tmp_path / "bom.csv"
    path.write_bytes(codecs.BOM_UTF8 + b"0,0.1\n1,0.2\n\xff\n")
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == (f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff "
                                       f"in position 15: invalid start byte\n")


@pytest.mark.parametrize("argv", [
    ["run", "{tmp}/sc.ini"],
    ["figure", "2c", "--points", "11", "--out-dir", "{tmp}"],
    ["oracle-check", "--preset", "2a"],
    ["analyze", "{tmp}/fig2c.csv"],
], ids=lambda argv: argv[0])
def test_run_to_a_failing_stdout_is_a_usage_error(tmp_path, monkeypatch, capsys, argv):
    class BrokenPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    path = tmp_path / "sc.ini"
    path.write_text(GOOD_SCENARIO.replace("points = 3001", "points = 11"), encoding="utf-8")
    assert main(["figure", "2c", "--points", "11", "--out-dir", str(tmp_path)]) == 0  # the CSV to analyze
    capsys.readouterr()
    monkeypatch.setattr(sys, "stdout", BrokenPipe())
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    assert capsys.readouterr().err == "error: cannot write stdout: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_a_report_to_a_closed_pipe_exits_2_without_a_traceback(unbuffered):
    # buffered, the report would fail only in the flush at exit, past every handler
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
               PYTHONUNBUFFERED=unbuffered)
    try:
        done = subprocess.run([sys.executable, "-m", "tcsim.cli", "oracle-check", "--preset", "2a"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, text=True)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (2, "error: cannot write stdout: [Errno 32] Broken pipe\n")


def test_write_text_sends_the_same_bytes_to_stdout_and_to_a_file(tmp_path, capsys):
    sc = preset("2c", points=2 * _CSV_BLOCK_ROWS + 7)
    lines = list(csv_lines(sc, closed_series(sc), None))
    write_text(tmp_path / "out.csv", lines)
    write_text(None, lines)
    assert capsys.readouterr().out == (tmp_path / "out.csv").read_text(encoding="utf-8")
    assert (tmp_path / "out.csv").read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


_CSV_FIELD = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-5, 40).map(str),
    st.text(alphabet="0123456789.-+eEnaif #,_\u00a0\u0661", max_size=6),
)
_CSV_ROW = st.lists(_CSV_FIELD, min_size=0, max_size=3).map(",".join)


@st.composite
def _csv_rows(draw):
    """Free-form rows, or rows on a uniform grid with one row replaced."""
    if draw(st.booleans()):
        return draw(st.lists(_CSV_ROW, max_size=30))
    step = draw(st.sampled_from([0.1, 0.5, 1.0]))
    values = draw(st.lists(st.floats(0.0, 0.5), max_size=30))
    rows = [f"{k * step!r},{v!r}" for k, v in enumerate(values)]
    if rows and draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))] = draw(_CSV_ROW)
    return rows


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=_csv_rows(), header=st.booleans())
def test_analyze_never_raises_on_short_csv_text(tmp_path, capsys, rows, header):
    path = tmp_path / "fuzz.csv"
    path.write_text("\n".join((["t,zeta"] if header else []) + rows) + "\n", encoding="utf-8")
    code = main(["analyze", str(path), "--after", "1", "--peaks", "2"])
    assert code in (0, 2, 3)
    err = capsys.readouterr().err
    if code == 2:  # a bad row is named by its data row, as numpy reads them
        assert err.startswith(("error: data row ", "error: no data rows"))


# A valid scenario, as {section: {key: text}}, that the examples below vary.
_VALID_SECTIONS = {
    "oscillator": {"kind": "number", "N": "1"},
    "environment": {"p": "0.5"},
    "couplings": {"lambda1": "1.0", "lambda2": "0.1"},
    "grid": {"t_start": "0", "t_end": "10", "points": "11"},
    "oracle": {"enabled": "true", "omega": "0.0"},
}


def _sections_with(**changes):
    """The valid scenario with the [oscillator] section replaced and the
    other sections' keys updated as given."""
    sections = {name: dict(keys) for name, keys in _VALID_SECTIONS.items()}
    for name, keys in changes.items():
        sections[name] = keys if name == "oscillator" else {**sections[name], **keys}
    return sections


def _floats(lo, hi):
    return st.floats(lo, hi).map(repr)


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _normalized(values):
    norm = float(np.sqrt(np.dot(values, values)))
    return " ".join(repr(v / norm) for v in values)


_BAD_TOKENS = ("nan", "inf", "-inf", "-1", "0", "1e154", "1e300", "abc", "")
# N, M and the amplitude count stop at 12 and points at 64: larger values
# allocate in proportion.  `[grid] points` has no upper bound in
# the parser, so a huge valid count would try to allocate it in full; that
# is not exercised here.
_KIND_KEYS = {
    "number": {"N": _ints(0, 12)},
    "binomial": {"M": _ints(1, 12), "q": _floats(0.0, 1.0)},
    "mixture01": {"f": _floats(0.0, 1.0)},
    "custom": {"amplitudes": st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=12)
               .filter(lambda a: np.dot(a, a) > 1e-6).map(_normalized)},
}
_SECTION_KEYS = {
    "environment": {"p": _floats(0.0, 1.0)},
    "couplings": {"lambda1": _floats(0.0, 5.0), "lambda2": _floats(0.0, 5.0)},
    "grid": {"t_start": _floats(0.0, 10.0), "t_end": _floats(0.0, 100.0), "points": _ints(2, 64)},
    "oracle": {"enabled": st.sampled_from(["true", "false"]), "omega": _floats(-5.0, 5.0)},
}


@st.composite
def _scenario_sections(draw):
    """Every key of every section; each is a bad token with probability
    1/16, so that about half of the documents are valid throughout."""

    def value(valid):
        return draw(st.sampled_from(_BAD_TOKENS)) if draw(st.integers(0, 15)) == 0 else draw(valid)

    kind = value(st.sampled_from(sorted(_KIND_KEYS)))
    keys = _KIND_KEYS.get(kind, {})
    sections = {"oscillator": {"kind": kind, **{key: value(v) for key, v in keys.items()}}}
    for name, keys in _SECTION_KEYS.items():
        sections[name] = {key: value(v) for key, v in keys.items()}
    return sections


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sections=_scenario_sections(), command=st.sampled_from(["run", "oracle-check"]))
@example(sections=_sections_with(oracle={"omega": "nan"}), command="run")
@example(sections=_sections_with(oracle={"omega": "inf"}), command="oracle-check")
@example(sections=_sections_with(couplings={"lambda1": "1e154", "lambda2": "1e-10"}), command="run")
@example(sections=_sections_with(couplings={"lambda1": "1e155", "lambda2": "0"}), command="run")
@example(sections=_sections_with(couplings={"lambda1": "1", "lambda2": "1e160"}), command="run")
@example(sections=_sections_with(oscillator={"kind": "mixture01", "f": "0.5"},
                                 couplings={"lambda1": "1e154", "lambda2": "0"},
                                 grid={"t_end": "1e300"}), command="run")
@example(sections=_sections_with(oracle={"omega": "1e300"}, grid={"t_end": "1e300"}), command="run")
@example(sections=_sections_with(oscillator={"kind": "custom", "amplitudes": "1e300"}), command="run")
@example(sections=_sections_with(oracle={"omega": "1.7e308"}), command="run")
@example(sections=_sections_with(oracle={"omega": "1e291"}, grid={"t_end": "1e-300"}), command="oracle-check")
@example(sections=_sections_with(oscillator={"kind": "number", "N": str(10**20)}), command="run")
@example(sections=_sections_with(oscillator={"kind": "binomial", "M": str(10**17), "q": "0.5"}), command="run")
def test_scenario_documents_exit_with_a_documented_code(tmp_path, capsys, sections, command):
    path, out = tmp_path / "fuzz.ini", tmp_path / "fuzz.csv"
    out.unlink(missing_ok=True)
    path.write_text("".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for name, keys in sections.items()
    ), encoding="utf-8")
    code = main([command, str(path)] + (["--out", str(out)] if command == "run" else []))
    capsys.readouterr()
    assert code in (0, 2, 3, 5)
    if command == "run" and code == 0:
        rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()
                if not line.startswith(("#", "t,"))]
        assert rows and np.all(np.isfinite(np.array(rows, dtype=float)))
