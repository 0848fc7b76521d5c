"""Exception types shared across the package.

The CLI maps these onto process exit codes: parse errors exit 2 and
validation errors 3 (tolerance failures exit 5 but are reported, not
raised).
"""


class ValidationError(ValueError):
    """A configuration or state violates one of its invariants."""


class ScenarioParseError(ValueError):
    """A scenario document could not be parsed."""
