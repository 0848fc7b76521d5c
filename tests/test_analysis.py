import math
import re

import numpy as np
import pytest

from tcsim.analysis import dominant_frequencies, find_revivals, time_average
from tcsim.errors import ValidationError
from tcsim.jc import jc_number_entropy
from tcsim.series import PHASE_LIMIT, TimeSeries, check_phase


def _single_branch_series(t_end=30.0, points=3001):
    t = np.linspace(0.0, t_end, points)
    return TimeSeries(t, 0.5 * np.sin(2.0 * t) ** 2)


# ----------------------------------------------------------------- revivals


def test_find_revivals_locates_zeros_of_exact_oscillation():
    series = _single_branch_series()
    step = series.step()
    report = find_revivals(series, after=0.0)
    assert report.minima, "expected minima"
    for t_min, z_min in report.minima:
        k = round(t_min / (math.pi / 2))
        assert abs(t_min - k * math.pi / 2) <= step
        assert z_min <= 0.5 * math.sin(2 * step) ** 2
    assert report.global_min is not None
    assert report.global_min[1] <= 1e-6


def test_find_revivals_constant_series_has_no_minima():
    t = np.linspace(0.0, 10.0, 101)
    report = find_revivals(TimeSeries(t, np.full(101, 0.25)), after=0.0)
    assert report.minima == []
    assert report.global_min is None
    assert report.time_average == pytest.approx(0.25, abs=1e-14)


def test_find_revivals_window_checks():
    series = _single_branch_series()
    with pytest.raises(ValidationError, match=r"^window \(30\.0, 30\.0\] is empty$"):
        find_revivals(series, after=30.0)
    with pytest.raises(ValidationError, match="^need at least three samples to find local minima$"):
        find_revivals(TimeSeries(np.array([0.0, 1.0]), np.array([0.0, 1.0])), after=0.0)


def test_phase_limit_is_one_over_machine_epsilon():
    assert PHASE_LIMIT == 2.0**52
    check_phase(1.0, [0.0, PHASE_LIMIT - 1.0], "below")
    check_phase(0.0, [1e308], "zero frequency")
    for freq, t in ((1.0, PHASE_LIMIT), (2.0, PHASE_LIMIT / 2), (1e300, 1e300), (math.nan, 1.0)):
        with pytest.raises(ValidationError, match="beyond double precision"):
            check_phase(freq, [0.0, t], "past")


def test_time_series_rejects_non_finite_samples():
    t = np.linspace(0.0, 1.0, 5)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError, match="sample 2 is not finite"):
            TimeSeries(t, np.where(np.arange(5) == 2, bad, 0.25))
        with pytest.raises(ValidationError, match="sample 4 is not finite"):
            TimeSeries(np.where(np.arange(5) == 4, bad, t), np.full(5, 0.25))


def test_time_series_rejects_ragged_empty_and_unordered_grids():
    for times, values in ((np.zeros((2, 2)), np.zeros((2, 2))), (np.arange(3.0), np.zeros(2))):
        with pytest.raises(ValidationError, match="must be 1-d arrays of equal length"):
            TimeSeries(times, values)
    with pytest.raises(ValidationError, match="needs at least one sample"):
        TimeSeries([], [])
    for times in ([0.0, 1.0, 1.0], [0.0, 2.0, 1.0]):
        with pytest.raises(ValidationError, match="times must be strictly increasing"):
            TimeSeries(times, np.zeros(3))
    with pytest.raises(ValidationError, match="need at least two samples to define a step"):
        TimeSeries([1.0], [0.25]).step()


def test_find_revivals_shift_invariance():
    series = _single_branch_series()
    shifted = TimeSeries(series.times + 5.0, series.values)
    base = find_revivals(series, after=2.0)
    moved = find_revivals(shifted, after=7.0)
    assert len(base.minima) == len(moved.minima)
    for (t0, z0), (t1, z1) in zip(base.minima, moved.minima):
        assert t1 - t0 == pytest.approx(5.0, abs=1e-12)
        assert z1 == z0
    assert moved.time_average == pytest.approx(base.time_average, abs=1e-12)


# ------------------------------------------------------------- time average


def test_time_average_constant():
    t = np.linspace(0.0, 8.0, 81)
    series = TimeSeries(t, np.full(81, 0.125))
    assert time_average(series, (0.0, 8.0)) == pytest.approx(0.125, abs=1e-15)


def test_time_average_of_oscillation_over_full_periods():
    # half sin^2(2t) has period pi/2; [0, pi] covers two full periods and
    # the trapezoid rule is spectrally accurate on periodic integrands
    t = np.linspace(0.0, math.pi, 2001)
    series = TimeSeries(t, 0.5 * np.sin(2.0 * t) ** 2)
    assert time_average(series, (0.0, math.pi)) == pytest.approx(0.25, abs=1e-12)


def test_time_average_window_checks():
    series = _single_branch_series()
    with pytest.raises(ValidationError, match=r"^window \(5\.0, 5\.0\) is empty$"):
        time_average(series, (5.0, 5.0))
    with pytest.raises(ValidationError, match=r"^window \(100\.0, 200\.0\) holds fewer than two samples$"):
        time_average(series, (100.0, 200.0))
    for window in ((math.nan, 5.0), (1.0, math.nan), (math.nan, math.nan)):  # no sample passes a NaN edge
        with pytest.raises(ValidationError, match=f"^{re.escape(f'window ({window[0]}, {window[1]}) is empty')}$"):
            time_average(series, window)


# ------------------------------------------------------------------ spectra


def test_dominant_frequency_of_pure_cosine():
    t = np.linspace(0.0, 30.0, 3001)
    report = dominant_frequencies(TimeSeries(t, np.cos(3.0 * t)), count=1)
    assert len(report.peaks) == 1
    freq, _ = report.peaks[0]
    assert abs(freq - 3.0) <= report.resolution


def test_dominant_frequencies_recover_separated_sinusoids():
    t = np.linspace(0.0, 60.0, 6001)
    values = np.cos(1.3 * t) + 0.5 * np.cos(2.9 * t) + 0.25 * np.cos(0.7 * t)
    report = dominant_frequencies(TimeSeries(t, values), count=3)
    found = sorted(freq for freq, _ in report.peaks)
    for expected, got in zip([0.7, 1.3, 2.9], found):
        assert abs(got - expected) <= report.resolution
    # a tie: +1 at the first sample and -1 halfway along put magnitude exactly
    # 2 in every odd bin and 0 in every even one; equal peaks come lowest first
    t = np.linspace(0.0, 15.0, 16)
    values = np.zeros(16)
    values[0], values[8] = 1.0, -1.0
    report = dominant_frequencies(TimeSeries(t, values), count=3)
    assert report.peaks == [(k * report.resolution, 2.0) for k in (1, 3, 5)]


def test_dominant_frequency_of_single_branch_entropy():
    # zeta = sin^2(Omega t)/2 oscillates at angular frequency 2 * Omega,
    # i.e. 4 * coupling * sqrt(n + 1)
    t = np.linspace(0.0, 30.0, 3001)
    for n in (0, 1, 2):
        series = TimeSeries(t, jc_number_entropy(n, 1.0, t))
        report = dominant_frequencies(series, count=3)
        top_freq, top_mag = report.peaks[0]
        assert abs(top_freq - 4.0 * math.sqrt(n + 1)) <= report.resolution
        if len(report.peaks) > 1:  # remaining candidates are leakage ripple
            assert report.peaks[1][1] <= 0.05 * top_mag


def test_dominant_frequencies_require_uniform_grid():
    t = np.array([0.0, 1.0, 2.0, 4.0, 5.0])
    series = TimeSeries(t, np.sin(t))
    with pytest.raises(ValidationError, match=r"step 2 at t = 2 is 2\.0, the mean step is 1\.25$"):
        dominant_frequencies(series, count=1)


def test_dominant_frequencies_require_a_positive_count():
    with pytest.raises(ValidationError, match="count must be >= 1, got 0"):
        dominant_frequencies(_single_branch_series(), count=0)


def test_peaks_below_nyquist():
    t = np.linspace(0.0, 30.0, 301)
    series = TimeSeries(t, np.cos(3.0 * t) + 0.2 * np.cos(9.0 * t))
    report = dominant_frequencies(series, count=4)
    nyquist = math.pi / series.step()
    assert all(freq <= nyquist for freq, _ in report.peaks)
