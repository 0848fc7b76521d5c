"""Exception types shared across the package.

The CLI maps these onto process exit codes: parse errors exit 2 and
validation errors 3 (tolerance failures exit 5 but are reported, not
raised).  TruncationError and EigendecompositionError have none: only
``initial_density`` checks an n_max against the support, and the oracle's
Hamiltonians are symmetric and checked finite before ``eigh``.
"""


class ValidationError(ValueError):
    """A configuration or state violates one of its invariants."""


class InvalidProbabilityError(ValidationError):
    """A probability-like parameter lies outside [0, 1]."""


class UnnormalizedDistributionError(ValidationError):
    """Amplitude norm drifts from 1 by more than the repairable threshold."""


class EmptyTimeGridError(ValidationError):
    """A time grid has fewer than two points or a non-positive span."""


class TruncationError(ValueError):
    """The oscillator truncation is too small to hold the dynamics exactly."""


class EigendecompositionError(RuntimeError):
    """Eigendecomposition failed or was handed a non-Hermitian matrix."""


class WindowEmptyError(ValidationError):
    """An analysis window contains no usable samples."""


class NonuniformGridError(ValidationError):
    """An operation requiring a uniform time grid received a nonuniform one."""


class FanoUndefinedError(ValidationError):
    """Fano factor requested for a distribution with zero mean excitation."""


class ScenarioParseError(ValueError):
    """A scenario document could not be parsed."""
