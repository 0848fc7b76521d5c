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
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .errors import ScenarioParseError
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


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _number_list(raw: str) -> tuple[float, ...]:
    values = tuple(float(tok) for tok in raw.split())
    if not values:
        raise ValueError("empty list")
    return values


@dataclass(frozen=True)
class _Value:
    """How one scenario value is read from its text and written back."""

    parse: Callable[[str], object]
    write: Callable[[object], str]
    noun: str  # what a text that fails to parse is not


_INT = _Value(int, str, "an integer")
_FLOAT = _Value(float, _fmt, "a number")
_FLOATS = _Value(_number_list, lambda values: " ".join(_fmt(v) for v in values),
                 "a non-empty list of numbers")


@dataclass(frozen=True)
class _Kind:
    """An oscillator kind: its [oscillator] keys in header order with their
    value types, and the (weight, FockDistribution) components that
    ``prepare`` builds from the values in that order."""

    keys: dict[str, _Value]
    prepare: Callable[..., list[tuple[float, FockDistribution]]]


_KINDS = {
    "number": _Kind({"N": _INT}, lambda n: [(1.0, number_state(n))]),
    "binomial": _Kind({"M": _INT, "q": _FLOAT}, lambda m, q: [(1.0, binomial_state(m, q))]),
    "mixture01": _Kind({"f": _FLOAT}, lambda f: [(f, number_state(0)), (1.0 - f, number_state(1))]),
    "custom": _Kind({"amplitudes": _FLOATS}, lambda amps: [(1.0, FockDistribution(np.array(amps)))]),
}

_ALLOWED_KEYS = {
    "oscillator": {"kind"}.union(*(kind.keys for kind in _KINDS.values())),
    "environment": {"p"},
    "couplings": {"lambda1", "lambda2"},
    "grid": {"t_start", "t_end", "points"},
    "oracle": {"enabled", "n_max", "omega"},
}
_REQUIRED_SECTIONS = ("oscillator", "environment", "couplings", "grid")


def _kind(name: str) -> _Kind:
    if name not in _KINDS:
        raise ScenarioParseError(f"unknown oscillator kind {name!r}; expected one of {tuple(_KINDS)}")
    return _KINDS[name]


@dataclass(frozen=True)
class Scenario:
    """A fully specified run: oscillator preparation, environment, couplings,
    grid, and oracle settings.  ``params`` holds the oscillator kind's
    (key, value) pairs in header order, e.g. ``(("M", 7), ("q", 0.85))``."""

    kind: str
    params: tuple[tuple[str, object], ...]
    p: float
    lambda1: float
    lambda2: float
    grid: TimeGrid
    oracle_enabled: bool = False
    oracle_n_max: int | None = None
    oracle_omega: float = 0.0
    label: str = ""

    def __post_init__(self):
        _kind(self.kind)

    def oscillator_components(self) -> list[tuple[float, FockDistribution]]:
        """The oscillator preparation as (weight, pure distribution) pairs."""
        return _KINDS[self.kind].prepare(*(value for _, value in self.params))

    def system_config(self) -> SystemConfig:
        """The validated SystemConfig of this scenario."""
        return SystemConfig(
            oscillator=self.oscillator_components(),
            env=EnvironmentMixture(self.p),
            couplings=Couplings(self.lambda1, self.lambda2),
            grid=self.grid,
        )

    def effective_n_max(self) -> int:
        if self.oracle_n_max is not None:
            return self.oracle_n_max
        return max(dist.cutoff for _, dist in self.oscillator_components()) + 2

    def to_lines(self) -> list[str]:
        """Canonical scenario text, one `[section] key = value` per line.
        Re-parsing these lines reproduces the scenario."""
        keys = _KINDS[self.kind].keys
        lines = [f"[oscillator] kind = {self.kind}"]
        lines += [f"[oscillator] {key} = {keys[key].write(value)}" for key, value in self.params]
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


def _get(section: configparser.SectionProxy, key: str, value: _Value = _FLOAT):
    raw = section[key]
    try:
        return value.parse(raw)
    except ValueError as exc:
        raise ScenarioParseError(f"[{section.name}] {key} = {raw!r} is not {value.noun}") from exc


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
    keys = _kind(kind).keys
    extra = set(osc) - {"kind"} - set(keys)
    if extra:
        raise ScenarioParseError(f"keys {sorted(extra)} do not apply to kind = {kind}")
    absent = set(keys) - set(osc)
    if absent:
        raise ScenarioParseError(f"kind = {kind} requires keys {sorted(absent)}")
    params = tuple((key, _get(osc, key, value)) for key, value in keys.items())

    grid_sec = parser["grid"]
    for key in ("t_start", "t_end", "points"):
        if key not in grid_sec:
            raise ScenarioParseError(f"[grid] needs {key}")
    grid = TimeGrid(_get(grid_sec, "t_start"), _get(grid_sec, "t_end"), _get(grid_sec, "points", _INT))

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
            oracle_n_max = _get(osec, "n_max", _INT)
        if "omega" in osec:
            oracle_omega = _get(osec, "omega")

    return Scenario(
        kind=kind,
        params=params,
        p=_get(env_sec, "p"),
        lambda1=_get(cpl_sec, "lambda1"),
        lambda2=_get(cpl_sec, "lambda2"),
        grid=grid,
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
    "1": Scenario(kind="mixture01", params=(("f", 0.5),), p=0.0, lambda1=1.0, lambda2=0.0,
                  grid=_STANDARD_GRID, label="1"),
    "2a": Scenario(kind="number", params=(("N", 1),), p=0.0, lambda1=1.0, lambda2=0.1,
                   grid=_STANDARD_GRID, label="2a"),
    "2b": Scenario(kind="number", params=(("N", 1),), p=0.1, lambda1=1.0, lambda2=0.1,
                   grid=_STANDARD_GRID, label="2b"),
    "2c": Scenario(kind="number", params=(("N", 1),), p=0.5, lambda1=1.0, lambda2=0.1,
                   grid=_STANDARD_GRID, label="2c"),
    "3": Scenario(kind="number", params=(("N", 1),), p=0.5, lambda1=1.0, lambda2=0.1,
                  grid=_LONG_GRID, label="3"),
    "4": Scenario(kind="binomial", params=(("M", 100), ("q", 0.1)), p=0.0,
                  lambda1=1.0, lambda2=0.0, grid=_STANDARD_GRID, label="4"),
    "5": Scenario(kind="binomial", params=(("M", 7), ("q", 0.85)), p=0.0,
                  lambda1=1.0, lambda2=0.0, grid=_STANDARD_GRID, label="5"),
    "6": Scenario(kind="binomial", params=(("M", 11), ("q", 0.95)), p=0.5,
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
