"""Time series container used by the closed-form, oracle, and analysis layers,
and the phase limit that the closed forms and the oracle share."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonuniformGridError, ValidationError

# A frequency carries a rounding error of order eps relative, so a phase
# frequency * t past 1/eps has no significant digit left.
PHASE_LIMIT = 1.0 / np.finfo(float).eps


def check_phase(freq: float, times, where: str) -> None:
    """Raise ValidationError, naming the frequency and the largest time,
    unless the phase freq * t stays below ``PHASE_LIMIT`` at every time.
    Callers check before any cos, sin or exp evaluates the phase."""
    t_max = float(np.max(np.abs(times), initial=0.0))
    if not float(freq) * t_max < PHASE_LIMIT:
        raise ValidationError(
            f"{where}: the phase at frequency {float(freq)!r} and t = {t_max!r} is beyond "
            f"double precision (frequency * t must stay below {PHASE_LIMIT:.4g})"
        )


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
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValidationError("times must be strictly increasing")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.times.size

    def step(self, rtol: float = 1e-9) -> float:
        """Return the uniform grid spacing.

        Raises
        ------
        NonuniformGridError
            If the spacing varies by more than ``rtol`` relative to its mean.
        """
        if len(self) < 2:
            raise NonuniformGridError("need at least two samples to define a step")
        steps = np.diff(self.times)
        mean = steps.mean()
        if np.max(np.abs(steps - mean)) > rtol * mean:
            raise NonuniformGridError("time grid is not uniform")
        return float(mean)
