"""Scenario documents: the INI-style text format accepted by the CLI, the
built-in figure presets, and round-tripping through CSV metadata headers.

A scenario file looks like::

    [oscillator]
    kind = number            ; number | binomial | mixture01 | custom
    N = 1                    ; binomial: M, q   mixture01: f   custom: amplitudes
    [environment]
    p = 0.5
    [couplings]
    lambda1 = 1.0
    lambda2 = 0.1
    [grid]
    t_start = 0
    t_end = 30
    points = 3001
    [oracle]                 ; optional
    enabled = true
    n_max = 3                ; defaults to support + 2
    omega = 0.0

Unknown sections or keys are rejected outright so typos cannot silently
change a run.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace

import numpy as np

from .errors import ScenarioParseError, ValidationError
from .states import (
    Couplings,
    EnvironmentMixture,
    FockDistribution,
    SystemConfig,
    TimeGrid,
    binomial_state,
    number_state,
)

__all__ = ["Scenario", "PRESET_IDS", "preset", "parse_scenario", "scenario_from_header"]

_ALLOWED_KEYS = {
    "oscillator": {"kind", "N", "M", "q", "f", "amplitudes"},
    "environment": {"p"},
    "couplings": {"lambda1", "lambda2"},
    "grid": {"t_start", "t_end", "points"},
    "oracle": {"enabled", "n_max", "omega"},
}
_REQUIRED_SECTIONS = ("oscillator", "environment", "couplings", "grid")
_KINDS = ("number", "binomial", "mixture01", "custom")


@dataclass(frozen=True)
class Scenario:
    """A fully specified run: oscillator preparation, environment, couplings,
    grid, and oracle settings."""

    kind: str
    p: float
    lambda1: float
    lambda2: float
    grid: TimeGrid
    number_n: int | None = None
    binomial_m: int | None = None
    binomial_q: float | None = None
    mixture_f: float | None = None
    amplitudes: tuple[float, ...] | None = None
    oracle_enabled: bool = False
    oracle_n_max: int | None = None
    oracle_omega: float = 0.0
    label: str = ""

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ScenarioParseError(f"unknown oscillator kind {self.kind!r}")

    def oscillator_components(self) -> list[tuple[float, FockDistribution]]:
        """The oscillator preparation as (weight, pure distribution) pairs."""
        if self.kind == "number":
            return [(1.0, number_state(self.number_n))]
        if self.kind == "binomial":
            return [(1.0, binomial_state(self.binomial_m, self.binomial_q))]
        if self.kind == "custom":
            return [(1.0, FockDistribution(np.array(self.amplitudes)))]
        f = self.mixture_f
        if not 0.0 <= f <= 1.0:
            raise ValidationError(f"mixture01 weight f = {f!r} must lie in [0, 1]")
        return [(f, number_state(0)), (1.0 - f, number_state(1))]

    def support_cutoff(self) -> int:
        return max(dist.cutoff for _, dist in self.oscillator_components())

    def system_config(self, dist: FockDistribution) -> SystemConfig:
        """SystemConfig with the oscillator prepared in ``dist``."""
        return SystemConfig(
            oscillator=dist,
            env=EnvironmentMixture(self.p),
            couplings=Couplings(self.lambda1, self.lambda2),
            grid=self.grid,
        )

    def effective_n_max(self) -> int:
        if self.oracle_n_max is not None:
            return self.oracle_n_max
        return self.support_cutoff() + 2

    def to_lines(self) -> list[str]:
        """Canonical scenario text, one `[section] key = value` per line.
        Re-parsing these lines reproduces the scenario."""
        lines = [f"[oscillator] kind = {self.kind}"]
        if self.kind == "number":
            lines.append(f"[oscillator] N = {self.number_n}")
        elif self.kind == "binomial":
            lines.append(f"[oscillator] M = {self.binomial_m}")
            lines.append(f"[oscillator] q = {_fmt(self.binomial_q)}")
        elif self.kind == "mixture01":
            lines.append(f"[oscillator] f = {_fmt(self.mixture_f)}")
        else:
            amps = " ".join(_fmt(a) for a in self.amplitudes)
            lines.append(f"[oscillator] amplitudes = {amps}")
        lines.append(f"[environment] p = {_fmt(self.p)}")
        lines.append(f"[couplings] lambda1 = {_fmt(self.lambda1)}")
        lines.append(f"[couplings] lambda2 = {_fmt(self.lambda2)}")
        lines.append(f"[grid] t_start = {_fmt(self.grid.t_start)}")
        lines.append(f"[grid] t_end = {_fmt(self.grid.t_end)}")
        lines.append(f"[grid] points = {self.grid.n_points}")
        lines.append(f"[oracle] enabled = {'true' if self.oracle_enabled else 'false'}")
        if self.oracle_n_max is not None:
            lines.append(f"[oracle] n_max = {self.oracle_n_max}")
        lines.append(f"[oracle] omega = {_fmt(self.oracle_omega)}")
        return lines


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _get_float(section, key, sec_name) -> float:
    raw = section[key]
    try:
        return float(raw)
    except ValueError as exc:
        raise ScenarioParseError(f"[{sec_name}] {key} = {raw!r} is not a number") from exc


def _get_int(section, key, sec_name) -> int:
    raw = section[key]
    try:
        return int(raw)
    except ValueError as exc:
        raise ScenarioParseError(f"[{sec_name}] {key} = {raw!r} is not an integer") from exc


def _build_scenario(parser: configparser.ConfigParser, label: str) -> Scenario:
    sections = set(parser.sections())
    unknown_sections = sections - set(_ALLOWED_KEYS)
    if unknown_sections:
        raise ScenarioParseError(f"unknown sections: {sorted(unknown_sections)}")
    missing = [s for s in _REQUIRED_SECTIONS if s not in sections]
    if missing:
        raise ScenarioParseError(f"missing sections: {missing}")
    for sec in sections:
        unknown = set(parser[sec]) - _ALLOWED_KEYS[sec]
        if unknown:
            raise ScenarioParseError(f"unknown keys in [{sec}]: {sorted(unknown)}")

    osc = parser["oscillator"]
    if "kind" not in osc:
        raise ScenarioParseError("[oscillator] needs a kind")
    kind = osc["kind"].strip()
    if kind not in _KINDS:
        raise ScenarioParseError(f"unknown oscillator kind {kind!r}; expected one of {_KINDS}")

    number_n = binomial_m = None
    binomial_q = mixture_f = None
    amplitudes = None
    needed = {"number": {"N"}, "binomial": {"M", "q"}, "mixture01": {"f"}, "custom": {"amplitudes"}}[kind]
    extra = set(osc) - {"kind"} - needed
    if extra:
        raise ScenarioParseError(f"keys {sorted(extra)} do not apply to kind = {kind}")
    absent = needed - set(osc)
    if absent:
        raise ScenarioParseError(f"kind = {kind} requires keys {sorted(absent)}")
    if kind == "number":
        number_n = _get_int(osc, "N", "oscillator")
    elif kind == "binomial":
        binomial_m = _get_int(osc, "M", "oscillator")
        binomial_q = _get_float(osc, "q", "oscillator")
    elif kind == "mixture01":
        mixture_f = _get_float(osc, "f", "oscillator")
    else:
        try:
            amplitudes = tuple(float(tok) for tok in osc["amplitudes"].split())
        except ValueError as exc:
            raise ScenarioParseError(f"bad amplitude list: {exc}") from exc
        if not amplitudes:
            raise ScenarioParseError("amplitude list is empty")

    grid_sec = parser["grid"]
    for key in ("t_start", "t_end", "points"):
        if key not in grid_sec:
            raise ScenarioParseError(f"[grid] needs {key}")
    grid = TimeGrid(
        _get_float(grid_sec, "t_start", "grid"),
        _get_float(grid_sec, "t_end", "grid"),
        _get_int(grid_sec, "points", "grid"),
    )

    env_sec = parser["environment"]
    if "p" not in env_sec:
        raise ScenarioParseError("[environment] needs p")
    cpl_sec = parser["couplings"]
    for key in ("lambda1", "lambda2"):
        if key not in cpl_sec:
            raise ScenarioParseError(f"[couplings] needs {key}")

    oracle_enabled = False
    oracle_n_max = None
    oracle_omega = 0.0
    if "oracle" in sections:
        osec = parser["oracle"]
        if "enabled" in osec:
            raw = osec["enabled"].strip().lower()
            if raw not in ("true", "false", "yes", "no", "1", "0"):
                raise ScenarioParseError(f"[oracle] enabled = {osec['enabled']!r} is not a boolean")
            oracle_enabled = raw in ("true", "yes", "1")
        if "n_max" in osec:
            oracle_n_max = _get_int(osec, "n_max", "oracle")
        if "omega" in osec:
            oracle_omega = _get_float(osec, "omega", "oracle")

    return Scenario(
        kind=kind,
        p=_get_float(env_sec, "p", "environment"),
        lambda1=_get_float(cpl_sec, "lambda1", "couplings"),
        lambda2=_get_float(cpl_sec, "lambda2", "couplings"),
        grid=grid,
        number_n=number_n,
        binomial_m=binomial_m,
        binomial_q=binomial_q,
        mixture_f=mixture_f,
        amplitudes=amplitudes,
        oracle_enabled=oracle_enabled,
        oracle_n_max=oracle_n_max,
        oracle_omega=oracle_omega,
        label=label,
    )


def _read_ini(text: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(
        inline_comment_prefixes=(";", "#"), interpolation=None
    )
    parser.optionxform = str  # keys are case-sensitive (N, M, q, f, ...)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ScenarioParseError(str(exc)) from exc
    return parser


def parse_scenario(text: str, label: str = "") -> Scenario:
    """Parse a scenario document; raises ScenarioParseError on any defect."""
    return _build_scenario(_read_ini(text), label)


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ScenarioParseError(f"cannot read scenario {path!r}: {exc}") from exc
    return parse_scenario(text, label=str(path))


def scenario_from_header(lines) -> Scenario:
    """Rebuild a scenario from the `# [section] key = value` comment lines of
    an emitted CSV file."""
    entries = []
    for line in lines:
        body = line.lstrip("#").strip()
        if body.startswith("[") and "]" in body and "=" in body:
            sec, rest = body[1:].split("]", 1)
            entries.append((sec.strip(), rest.strip()))
    if not entries:
        raise ScenarioParseError("no scenario metadata found in header")
    grouped: dict[str, list[str]] = {}
    for sec, kv in entries:
        grouped.setdefault(sec, []).append(kv)
    text = "\n".join(
        "\n".join([f"[{sec}]"] + kvs) for sec, kvs in grouped.items()
    )
    return parse_scenario(text, label="csv-header")


_STANDARD_GRID = TimeGrid(0.0, 30.0, 3001)
_LONG_GRID = TimeGrid(0.0, 100.0, 10001)

# Grid choices are artifact defaults (>= 40 samples per shortest period),
# overridable from the CLI.
_PRESETS: dict[str, Scenario] = {
    "1": Scenario(kind="mixture01", mixture_f=0.5, p=0.0, lambda1=1.0, lambda2=0.0,
                  grid=_STANDARD_GRID, label="1"),
    "2a": Scenario(kind="number", number_n=1, p=0.0, lambda1=1.0, lambda2=0.1,
                   grid=_STANDARD_GRID, label="2a"),
    "2b": Scenario(kind="number", number_n=1, p=0.1, lambda1=1.0, lambda2=0.1,
                   grid=_STANDARD_GRID, label="2b"),
    "2c": Scenario(kind="number", number_n=1, p=0.5, lambda1=1.0, lambda2=0.1,
                   grid=_STANDARD_GRID, label="2c"),
    "3": Scenario(kind="number", number_n=1, p=0.5, lambda1=1.0, lambda2=0.1,
                  grid=_LONG_GRID, label="3"),
    "4": Scenario(kind="binomial", binomial_m=100, binomial_q=0.1, p=0.0,
                  lambda1=1.0, lambda2=0.0, grid=_STANDARD_GRID, label="4"),
    "5": Scenario(kind="binomial", binomial_m=7, binomial_q=0.85, p=0.0,
                  lambda1=1.0, lambda2=0.0, grid=_STANDARD_GRID, label="5"),
    "6": Scenario(kind="binomial", binomial_m=11, binomial_q=0.95, p=0.5,
                  lambda1=1.0, lambda2=0.1, grid=_STANDARD_GRID, label="6"),
}

PRESET_IDS = tuple(_PRESETS)


def preset(preset_id: str, t_end: float | None = None, points: int | None = None) -> Scenario:
    """Look up a figure preset, optionally overriding its grid."""
    key = str(preset_id)
    if key == "2":
        raise ScenarioParseError(
            "figure 2 has three curves; pick one of 2a (p=0), 2b (p=0.1), 2c (p=0.5)"
        )
    if key not in _PRESETS:
        raise ScenarioParseError(f"unknown figure id {preset_id!r}; valid: {', '.join(PRESET_IDS)}")
    sc = _PRESETS[key]
    if t_end is not None or points is not None:
        grid = TimeGrid(
            sc.grid.t_start,
            t_end if t_end is not None else sc.grid.t_end,
            points if points is not None else sc.grid.n_points,
        )
        sc = replace(sc, grid=grid)
    return sc
