"""Quantitative witnesses on entropy series: revival minima, windowed
averages, and discrete frequency content.

Minima are reported on the sampled grid with no interpolation, so reports
are deterministic and auditable; sample at >= 40 points per shortest period
for trustworthy results.  Spectral peaks are refined by quadratic
interpolation of the three bins around each maximum and quoted to within
one frequency bin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, WindowEmptyError
from .series import TimeSeries

__all__ = [
    "RevivalReport",
    "SpectrumReport",
    "find_revivals",
    "time_average",
    "dominant_frequencies",
]


@dataclass(frozen=True)
class RevivalReport:
    """Strict local minima after a threshold time, the global minimum among
    them, and the windowed mean of the series."""

    minima: list[tuple[float, float]]
    after: float
    global_min: tuple[float, float] | None
    time_average: float


@dataclass(frozen=True)
class SpectrumReport:
    """Dominant spectral peaks as (angular frequency, magnitude) pairs,
    strongest first, plus the frequency-grid resolution."""

    peaks: list[tuple[float, float]]
    resolution: float


def find_revivals(series: TimeSeries, after: float = 0.0) -> RevivalReport:
    """Locate strict local minima of the series at times > ``after``.

    Returns every grid point lower than both neighbours, the global minimum
    among them (None when there is none, e.g. for a constant series), and
    the trapezoidal mean over [after, end].
    """
    if len(series) < 3:
        raise WindowEmptyError("need at least three samples to find local minima")
    t, z = series.times, series.values
    if after >= t[-1]:
        raise WindowEmptyError(f"window ({after}, {t[-1]}] is empty")
    interior = (z[1:-1] < z[:-2]) & (z[1:-1] < z[2:])
    idx = np.nonzero(interior)[0] + 1
    idx = idx[t[idx] > after]
    minima = [(float(t[i]), float(z[i])) for i in idx]
    global_min = None
    if minima:
        tmin, zmin = min(minima, key=lambda pair: pair[1])
        global_min = (tmin, zmin)
    avg = time_average(series, (max(after, float(t[0])), float(t[-1])))
    return RevivalReport(minima=minima, after=float(after), global_min=global_min, time_average=avg)


def time_average(series: TimeSeries, window: tuple[float, float]) -> float:
    """Trapezoidal mean of the series over the samples inside ``window``."""
    t0, t1 = window
    if t1 <= t0:
        raise WindowEmptyError(f"window ({t0}, {t1}) is empty")
    t, z = series.times, series.values
    mask = (t >= t0) & (t <= t1)
    if np.count_nonzero(mask) < 2:
        raise WindowEmptyError(f"window ({t0}, {t1}) holds fewer than two samples")
    tw, zw = t[mask], z[mask]
    return float(np.trapezoid(zw, tw) / (tw[-1] - tw[0]))


def dominant_frequencies(series: TimeSeries, count: int) -> SpectrumReport:
    """Strongest ``count`` spectral peaks of the mean-subtracted series.

    The series must sit on a uniform grid.  Peak positions are angular
    frequencies, refined by fitting a parabola through the three magnitude
    bins around each local maximum; they are accurate to about one bin of
    the returned resolution.
    """
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count!r}")
    dt = series.step()  # raises NonuniformGridError on ragged grids
    values = series.values - series.values.mean()
    mag = np.abs(np.fft.rfft(values))
    d_omega = 2.0 * np.pi / (len(series) * dt)
    # interior local maxima; DC is excluded by construction (mean removed)
    candidates = 1 + np.flatnonzero((mag[1:-1] > mag[:-2]) & (mag[1:-1] >= mag[2:]))
    # strongest first; equal magnitudes keep the lower bin first
    candidates = candidates[np.argsort(-mag[candidates], kind="stable")]
    peaks = []
    for k in candidates[:count].tolist():
        curvature = mag[k - 1] - 2.0 * mag[k] + mag[k + 1]
        shift = 0.5 * (mag[k - 1] - mag[k + 1]) / curvature if curvature != 0 else 0.0
        peaks.append(((k + shift) * d_omega, float(mag[k])))
    return SpectrumReport(peaks=peaks, resolution=float(d_omega))
