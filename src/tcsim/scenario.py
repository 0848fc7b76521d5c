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
    [oracle]                 ; optional, in whole or in part
    enabled = true           ; true/false, yes/no or 1/0; defaults to false
    omega = 0.0              ; defaults to 0

The format lives in two tables: ``_KINDS`` holds each oscillator kind's keys
and ``_SECTIONS`` every other section's keys, each with its value type and
the field it fills.  Each section builds, as it is read, the ``states``
objects that check its values: [oscillator] its components, and every other
section but [oracle] the object that ``Scenario`` holds.  So parsing reports
the first section in table order with a bad value.  The ``Scenario`` builds
its ``SystemConfig`` once, when it is made, and holds it as ``config``;
lambda1 > 0 is checked there, after every section is read.
Parsing, the key checks, the CSV header written by ``Scenario.to_lines`` and
its read-back by ``scenario_from_header`` all read the tables.  Unknown
sections or keys are rejected outright so typos cannot silently change a run.
The figure presets are one table, ``_PRESETS``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import ScenarioParseError
from .series import check_finite, check_probability
from .states import (
    Couplings,
    EnvironmentMixture,
    FockDistribution,
    SystemConfig,
    TimeGrid,
    binomial_state,
    number_state,
    required_n_max,
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

    parse: Callable[[str], object]  # raises ValueError or KeyError on a bad text
    write: Callable[[object], str]
    noun: str  # what a text that fails to parse is not


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
_INT = _Value(int, str, "an integer")
_FLOAT = _Value(float, _fmt, "a number")
_FLOATS = _Value(_number_list, lambda values: " ".join(_fmt(v) for v in values),
                 "a non-empty list of numbers")
_BOOL = _Value(lambda raw: _BOOLEANS[raw.lower()], lambda flag: "true" if flag else "false", "a boolean")


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
    "mixture01": _Kind({"f": _FLOAT},
                       lambda f: [(check_probability(f, "f"), number_state(0)), (1.0 - f, number_state(1))]),
    "custom": _Kind({"amplitudes": _FLOATS}, lambda amps: [(1.0, FockDistribution(np.array(amps)))]),
}

# Every other section in header order: the class it builds into the Scenario
# field of its name, and each key's value type and the field of that class it
# fills.  [oracle] builds none: its keys fill Scenario fields.  Every key is
# required except under [oracle], where a missing key keeps the Scenario default.
_SECTIONS: dict[str, tuple[type | None, dict[str, tuple[_Value, str]]]] = {
    "environment": (EnvironmentMixture, {"p": (_FLOAT, "p")}),
    "couplings": (Couplings, {"lambda1": (_FLOAT, "lambda1"), "lambda2": (_FLOAT, "lambda2")}),
    "grid": (TimeGrid, {"t_start": (_FLOAT, "t_start"), "t_end": (_FLOAT, "t_end"),
                        "points": (_INT, "n_points")}),
    "oracle": (None, {"enabled": (_BOOL, "oracle_enabled"), "omega": (_FLOAT, "oracle_omega")}),
}
_OPTIONAL = "oracle"


def _kind(name: str) -> _Kind:
    if name not in _KINDS:
        raise ScenarioParseError(f"unknown oscillator kind {name!r}; expected one of {tuple(_KINDS)}")
    return _KINDS[name]


def _components(kind: str, params) -> list[tuple[float, FockDistribution]]:
    """The (weight, FockDistribution) components that the [oscillator] values ``params``
    of ``kind`` prepare.  An unknown kind, or keys that are not the kind's keys in order,
    raise ScenarioParseError; a value out of range raises ValidationError."""
    keys, expected = [key for key, _ in params], list(_kind(kind).keys)
    if keys != expected:
        raise ScenarioParseError(f"kind = {kind} takes keys {expected} in that order, not {keys}")
    return _KINDS[kind].prepare(*(value for _, value in params))


@dataclass(frozen=True)
class Scenario:
    """A fully specified run: oscillator preparation, environment, couplings,
    grid, and oracle settings.  ``params`` holds the oscillator kind's
    (key, value) pairs in header order, e.g. ``(("M", 7), ("q", 0.85))``."""

    kind: str
    params: tuple[tuple[str, object], ...]
    environment: EnvironmentMixture
    couplings: Couplings
    grid: TimeGrid
    oracle_enabled: bool = False
    oracle_omega: float = 0.0
    label: str = ""
    config: SystemConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # checked here so that no bad value reaches a CSV header; omega with the oracle off too
        object.__setattr__(self, "config", SystemConfig(_components(self.kind, self.params),
                                                        self.environment, self.couplings, self.grid))
        object.__setattr__(self, "oracle_omega", check_finite(self.oracle_omega, "omega"))

    def oscillator_components(self) -> list[tuple[float, FockDistribution]]:
        """The oscillator preparation as (weight, pure distribution) pairs."""
        return list(self.config.oscillator)

    def effective_n_max(self) -> int:
        """Oscillator support + 2, the oracle's exact truncation; the benchmark reports
        the dense dimension it gives as ``oracle.dim``."""
        return required_n_max(self.config.support)

    def to_lines(self) -> list[str]:
        """Canonical scenario text, one `[section] key = value` per line.
        Re-parsing these lines reproduces the scenario."""
        keys = _KINDS[self.kind].keys
        lines = [f"[oscillator] kind = {self.kind}"]
        lines += [f"[oscillator] {key} = {keys[key].write(value)}" for key, value in self.params]
        for name, (build, section) in _SECTIONS.items():
            holder = self if build is None else getattr(self, name)
            lines += [f"[{name}] {key} = {value.write(getattr(holder, field))}"
                      for key, (value, field) in section.items()]
        return lines


def _read(section: str, key: str, raw: str, value: _Value):
    """One value of the document, parsed from its (stripped) text."""
    try:
        return value.parse(raw)
    except (KeyError, ValueError) as exc:
        raise ScenarioParseError(f"[{section}] {key} = {raw!r} is not {value.noun}") from exc


def _build_scenario(sections: dict[str, dict[str, str]], label: str) -> Scenario:
    """The scenario of a `{section: {key: text}}` document."""
    known = {"oscillator": {"kind"}.union(*(kind.keys for kind in _KINDS.values())),
             **{name: set(section) for name, (_, section) in _SECTIONS.items()}}
    unknown_sections = set(sections) - set(known)
    if unknown_sections:
        raise ScenarioParseError(f"unknown sections: {sorted(unknown_sections)}")
    missing = [name for name in known if name not in sections and name != _OPTIONAL]
    if missing:
        raise ScenarioParseError(f"missing sections: {missing}")
    for name, keys in sections.items():
        unknown = set(keys) - known[name]
        if unknown:
            raise ScenarioParseError(f"unknown keys in [{name}]: {sorted(unknown)}")

    osc = sections["oscillator"]
    if "kind" not in osc:
        raise ScenarioParseError("[oscillator] needs a kind")
    kind = osc["kind"]
    keys = _kind(kind).keys
    extra = set(osc) - {"kind"} - set(keys)
    if extra:
        raise ScenarioParseError(f"keys {sorted(extra)} do not apply to kind = {kind}")
    absent = set(keys) - set(osc)
    if absent:
        raise ScenarioParseError(f"kind = {kind} requires keys {sorted(absent)}")
    params = tuple((key, _read("oscillator", key, osc[key], value)) for key, value in keys.items())
    _components(kind, params)  # [oscillator] is the first section, so its values are checked first

    fields = {}
    for name, (build, section) in _SECTIONS.items():
        given = sections.get(name, {})
        read = {}
        for key, (value, field) in section.items():
            if key in given:
                read[field] = _read(name, key, given[key], value)
            elif name != _OPTIONAL:
                raise ScenarioParseError(f"[{name}] needs {key}")
        fields.update(read if build is None else {name: build(**read)})
    return Scenario(kind=kind, params=params, label=label, **fields)


def parse_scenario(text: str, label: str = "") -> Scenario:
    """Parse a scenario document; raises ScenarioParseError on a malformed
    document and ValidationError on a value out of range."""
    import configparser  # here, not at the top: only scenario files need it
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (N, M, q, f, ...)
    try:
        parser.read_string(text, source=label or "<string>")
    except configparser.Error as exc:
        raise ScenarioParseError(str(exc)) from exc
    return _build_scenario({name: dict(parser[name]) for name in parser.sections()}, label)


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioParseError(f"cannot read scenario {path!r}: {exc}") from exc
    return parse_scenario(text, label=str(path))


def scenario_from_header(lines) -> Scenario:
    """Rebuild a scenario from the `# [section] key = value` comment lines of
    an emitted CSV file."""
    sections: dict[str, dict[str, str]] = {}
    for line in lines:
        body = line.lstrip("#").strip()
        name, _, entry = body[1:].partition("]")
        key, equals, raw = (part.strip() for part in entry.partition("="))
        if body.startswith("[") and equals:
            keys = sections.setdefault(name.strip(), {})
            if key in keys:
                raise ScenarioParseError(f"[{name.strip()}] {key} appears twice in the header")
            keys[key] = raw
    if not sections:
        raise ScenarioParseError("no scenario metadata found in header")
    return _build_scenario(sections, "csv-header")


_STANDARD_GRID = TimeGrid(0.0, 30.0, 3001)
_LONG_GRID = TimeGrid(0.0, 100.0, 10001)

# Grid choices are artifact defaults, overridable from the CLI.  Samples per
# period of zeta's fastest line (oracle lines, tests/test_oracle.py): >= 87 on
# presets 1-3 and 5, 40.3 on 6 and 15.6 on 4, from its binomial's tail; over
# the lines at >= 1% of the largest, 42.3 on 6 and 37.6 on 4.  Every preset
# has lambda1 = 1; its id is its label, which names its figN.csv.  Each row is
# (kind, params, p, lambda2, grid); ``preset`` builds the Scenario when it is
# asked for, so importing this module prepares no oscillator state.
_PRESETS: dict[str, tuple] = {
    "1": ("mixture01", (("f", 0.5),), 0.0, 0.0, _STANDARD_GRID),
    "2a": ("number", (("N", 1),), 0.0, 0.1, _STANDARD_GRID),
    "2b": ("number", (("N", 1),), 0.1, 0.1, _STANDARD_GRID),
    "2c": ("number", (("N", 1),), 0.5, 0.1, _STANDARD_GRID),
    "3": ("number", (("N", 1),), 0.5, 0.1, _LONG_GRID),
    "4": ("binomial", (("M", 100), ("q", 0.1)), 0.0, 0.0, _STANDARD_GRID),
    "5": ("binomial", (("M", 7), ("q", 0.85)), 0.0, 0.0, _STANDARD_GRID),
    "6": ("binomial", (("M", 11), ("q", 0.95)), 0.5, 0.1, _STANDARD_GRID),
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
    kind, params, p, lambda2, grid = _PRESETS[key]
    grid = TimeGrid(grid.t_start, grid.t_end if t_end is None else t_end,
                    grid.n_points if points is None else points)
    return Scenario(kind, params, EnvironmentMixture(p), Couplings(1.0, lambda2), grid, label=key)
