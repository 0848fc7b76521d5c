"""Time series container used by the closed-form, oracle, and analysis layers,
and the phase limit that the closed forms and the oracle share."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# A frequency carries a rounding error of order eps relative, so a phase
# frequency * t past 1/eps has no significant digit left.
PHASE_LIMIT = 1.0 / np.finfo(float).eps

# Grid points per slice of every walk over the time grid, the closed forms' and the
# CSV and SVG writers': each holds a few arrays of this length, whatever the grid's.
CHUNK_POINTS = 4096

# Relative spread of the steps that ``TimeSeries.step`` accepts as uniform.
STEP_RTOL = 1e-9


def check_phase(freq: float, times, where: str) -> None:
    """Raise ValidationError, naming the frequency and the largest time,
    unless the phase freq * t stays below ``PHASE_LIMIT`` at every time.  A
    time that is NaN or infinite is named as not finite.  Callers check
    before any cos, sin or exp evaluates the phase."""
    t_max = float(np.max(np.abs(times), initial=0.0))
    if not np.isfinite(t_max):
        raise ValidationError(f"{where}: t = {t_max!r} is not finite")
    if not float(freq) * t_max < PHASE_LIMIT:
        raise ValidationError(
            f"{where}: the phase at frequency {float(freq)!r} and t = {t_max!r} is beyond "
            f"double precision (frequency * t must stay below {PHASE_LIMIT:.4g})"
        )


def check_times(t) -> np.ndarray:
    """``t`` as a float array; raise ValidationError unless every time is
    finite and non-negative."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValidationError("times must be finite")
    if np.any(t < 0):
        raise ValidationError("times must be non-negative")
    return t


def check_integer(value, least: int, message: str) -> int:
    """``value`` as an int if it is an integer >= ``least``; otherwise raise
    ``ValidationError(message.format(value))``, also for NaN, infinities and None."""
    try:
        if int(value) == value and value >= least:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(message.format(value))


def check_finite(value, name: str) -> float:
    """``value`` as a float if it is a finite real number; otherwise raise
    ValidationError naming it ``name``, also for None, strings and complex numbers."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value)):
        raise ValidationError(f"{name} = {value!r} must be finite")
    return float(value)


def check_probability(value, name: str) -> float:
    """``value`` as a float if it is a real number in [0, 1]; otherwise raise
    ValidationError naming it ``name``, also for NaN and infinities."""
    if not (isinstance(value, numbers.Real) and 0.0 <= value <= 1.0):
        raise ValidationError(f"{name} = {value!r} must lie in [0, 1]")
    return float(value)


@dataclass(frozen=True)
class TimeSeries:
    """Ordered, finite (t, value) pairs on a strictly increasing time grid.

    Attributes
    ----------
    times : np.ndarray
        Strictly increasing sample times.
    values : np.ndarray
        Sample values, same length as ``times``.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or values.ndim != 1 or times.size != values.size:
            raise ValidationError("times and values must be 1-d arrays of equal length")
        if times.size < 1:
            raise ValidationError("a time series needs at least one sample")
        bad = np.flatnonzero(~(np.isfinite(times) & np.isfinite(values)))
        if bad.size:
            i = bad[0]
            raise ValidationError(f"sample {i} is not finite: t = {times[i]:g}, value = {values[i]:g}")
        if not np.all(times[1:] > times[:-1]):  # one byte per point, where np.diff holds eight
            raise ValidationError("times must be strictly increasing")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.times.size

    def step(self) -> float:
        """Return the uniform grid spacing.

        Raises
        ------
        ValidationError
            If there are fewer than two samples, or if the spacing varies
            by more than ``STEP_RTOL`` relative to its mean.
            The message names the step farthest from the mean: with one gap
            in an otherwise uniform grid every step is off the mean, but
            only the gap is far from it.
        """
        if len(self) < 2:
            raise ValidationError("need at least two samples to define a step")
        steps = np.diff(self.times)
        mean = steps.mean()
        deviation = steps - mean
        i = int(np.argmax(np.abs(deviation, out=deviation)))
        if abs(steps[i] - mean) > STEP_RTOL * mean:
            raise ValidationError(
                f"time grid is not uniform: step {i} at t = {self.times[i]:g} is "
                f"{float(steps[i])!r}, the mean step is {float(mean)!r}"
            )
        return float(mean)
