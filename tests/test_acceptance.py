"""Acceptance suite: one test per release criterion, each printing a
[PASS] line with the measured margin when its assertions hold.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest

import tcsim.tc as tc
from conftest import coefficient_quad, entropy_terms, line_shares, zeta_lines
from tcsim.analysis import dominant_frequencies, find_revivals, time_average
from tcsim.cli import closed_series, main, oracle_series
from tcsim.jc import jc_mixture_entropy
from tcsim.oracle import excitation_block, oracle_entropy_series
from tcsim.scenario import preset
from tcsim.states import (
    Couplings,
    EnvironmentMixture,
    SystemConfig,
    TimeGrid,
    binomial_state,
    fano_factor,
    number_state,
)
from tcsim.tc import mixture_entropy_arrays, spectral_params

GRID = TimeGrid(0.0, 30.0, 3001)


def _config(dist, p, l1=1.0, l2=0.1, grid=GRID):
    return SystemConfig(
        oscillator=dist,
        env=EnvironmentMixture(p),
        couplings=Couplings(l1, l2),
        grid=grid,
    )


def _random_scenarios(count=25, seed=987654321):
    rng = np.random.default_rng(seed)
    p_choices = (0.0, 0.1, 0.5, 1.0)
    out = []
    for _ in range(count):
        if rng.uniform() < 0.5:
            dist = number_state(int(rng.integers(0, 6)))
        else:
            dist = binomial_state(int(rng.integers(1, 16)), float(rng.uniform(0.05, 0.95)))
        out.append(
            _config(dist, p=float(rng.choice(p_choices)), l2=float(rng.uniform(0.0, 1.0)))
        )
    return out


def test_criterion_01_oracle_equivalence_master_check():
    started = time.perf_counter()
    worst = 0.0
    for preset_id in ("1", "2a", "2b", "2c", "3", "4", "5", "6"):
        scenario = preset(preset_id)
        closed = closed_series(scenario)
        checked = oracle_series(scenario)
        worst = max(worst, float(np.max(np.abs(closed.values - checked.values))))
    for config in _random_scenarios():
        closed = tc.entropy_series(config)
        checked = oracle_entropy_series(config)
        worst = max(worst, float(np.max(np.abs(closed.values - checked.values))))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-8
    assert elapsed < 30.0
    print(
        f"\n[PASS] criterion 1: oracle equivalence over 8 presets + 25 random configs, "
        f"max |closed - oracle| = {worst:.3e} (tol 1e-8), {elapsed:.1f}s"
    )


def test_criterion_01_holds_across_coupling_scales():
    # zeta depends on lambda1 t and lambda2 / lambda1 only, so every scale
    # that double precision represents gives the lambda1 = 1 curve
    preparations = ((number_state(1), 0.5), (binomial_state(11, 0.95), 0.3))
    worst_oracle = worst_scale = 0.0
    for dist, p in preparations:
        reference = tc.entropy_series(_config(dist, p, l1=1.0, l2=0.1)).values
        for lam in (1e-30, 1e-6, 1e6, 1e30):
            config = _config(dist, p, l1=lam, l2=0.1 * lam, grid=TimeGrid(0.0, 30.0 / lam, 3001))
            closed = tc.entropy_series(config).values
            checked = oracle_entropy_series(config).values
            worst_oracle = max(worst_oracle, float(np.max(np.abs(closed - checked))))
            worst_scale = max(worst_scale, float(np.max(np.abs(closed - reference))))
    assert worst_oracle <= 1e-12
    assert worst_scale <= 1e-12
    print(
        f"\n[PASS] criterion 1 across lambda1 in 1e-30..1e30: max |closed - oracle| = "
        f"{worst_oracle:.3e}, max |closed - (lambda1 = 1)| = {worst_scale:.3e} (tol 1e-12)"
    )


def test_criterion_02_single_branch_periodicity():
    times = GRID.times()
    worst_formula = 0.0
    worst_zero = 0.0
    worst_p_dependence = 0.0
    for n in (0, 1, 2):
        reference = 0.5 * np.sin(2.0 * math.sqrt(n + 1) * times) ** 2
        baseline = None
        for p in (0.0, 0.1, 0.5, 1.0):
            zeta = mixture_entropy_arrays(_config(number_state(n), p, l2=0.0), times)
            worst_formula = max(worst_formula, float(np.max(np.abs(zeta - reference))))
            if baseline is None:
                baseline = zeta
            else:
                worst_p_dependence = max(
                    worst_p_dependence, float(np.max(np.abs(zeta - baseline)))
                )
        omega = 2.0 * math.sqrt(n + 1)
        zero_times = [k * math.pi / omega for k in range(1, int(30.0 * omega / math.pi))]
        zeros = mixture_entropy_arrays(_config(number_state(n), 0.5, l2=0.0), np.array(zero_times))
        worst_zero = max(worst_zero, float(np.max(zeros)))
    assert worst_formula <= 1e-10
    assert worst_zero <= 1e-12
    assert worst_p_dependence <= 1e-12
    print(
        f"\n[PASS] criterion 2: decoupled-environment periodicity, formula err "
        f"{worst_formula:.3e} (tol 1e-10), zeros {worst_zero:.3e} (tol 1e-12), "
        f"p-dependence {worst_p_dependence:.3e} (tol 1e-12)"
    )


def test_criterion_03_mixed_oscillator_cross_check():
    grid = TimeGrid(0.0, 40.0, 8001)
    times = grid.times()
    worst = 0.0
    for f in (0.0, 0.3, 0.5, 1.0):
        closed = jc_mixture_entropy(f, 1.0, times)
        mixed = _config([(f, number_state(0)), (1 - f, number_state(1))], 0.0, l2=0.0, grid=grid)
        checked = oracle_entropy_series(mixed).values
        worst = max(worst, float(np.max(np.abs(closed - checked))))
    assert worst <= 1e-10
    closed = jc_mixture_entropy(0.5, 1.0, times)
    mixed = _config([(0.5, number_state(0)), (0.5, number_state(1))], 0.0, l2=0.0, grid=grid)
    checked = oracle_entropy_series(mixed).values
    interior = (closed[1:-1] < closed[:-2]) & (closed[1:-1] < closed[2:])
    idx = np.nonzero(interior)[0] + 1
    idx = idx[times[idx] > 5.0]
    k = idx[np.argmin(closed[idx])]
    assert closed[k] > 0.0
    assert abs(closed[k] - checked[k]) <= 1e-8
    print(
        f"\n[PASS] criterion 3: two-component mixture vs ensemble, max err {worst:.3e} "
        f"(tol 1e-10); post-t=5 minimum {closed[k]:.3e} > 0, pipelines within "
        f"{abs(closed[k] - checked[k]):.1e} (tol 1e-8)"
    )


def _literal_reading_d_plus(n, lam):
    # the misprinted variant: (l1 + l2)^2 in place of l1^2 + l2^2
    s_lit = (lam + lam) ** 2
    d = spectral_params(n, Couplings(lam, lam)).D
    return math.sqrt(((2 * n + 3) * s_lit + d) / 2.0)


def test_criterion_04_frequency_reading_regression():
    lam = 1.0
    worst = 0.0
    literal_margin = math.inf
    for n in (0, 1, 2, 5):
        sp = spectral_params(n, Couplings(lam, lam))
        gap = float(np.linalg.eigvalsh(excitation_block(Couplings(lam, lam), n)).max())
        assert sp.d_plus == pytest.approx(lam * math.sqrt(2 * (2 * n + 3)), abs=1e-12)
        worst = max(worst, abs(sp.d_plus - gap))
        literal_margin = min(literal_margin, abs(_literal_reading_d_plus(n, lam) - gap))
    assert worst <= 1e-10
    assert literal_margin > 1e-3  # negative control: the misprint must fail
    print(
        f"\n[PASS] criterion 4: equal-coupling frequency matches block spectrum to "
        f"{worst:.3e} (tol 1e-10); misprinted reading off by >= {literal_margin:.3f}"
    )


def test_criterion_05_unitarity_and_probability():
    rng = np.random.default_rng(24601)
    times = np.linspace(0.0, 40.0, 200)
    worst_norm = 0.0
    for _ in range(50):
        n = int(rng.integers(0, 21))
        lam1 = float(rng.uniform(0.2, 2.0))
        couplings = Couplings(lam1, lam1 * float(rng.uniform(0.0, 1.0)))
        for primed in (False, True):
            norm_sq = np.sum(np.abs(coefficient_quad(n, couplings, times, primed)) ** 2, axis=0)
            worst_norm = max(worst_norm, float(np.max(np.abs(norm_sq - 1.0))))
    assert worst_norm <= 1e-10
    worst_prob = 0.0
    for config in _random_scenarios(count=8, seed=13):
        t = config.grid.times()
        alpha, beta, gamma = entropy_terms(config, t)
        worst_prob = max(worst_prob, float(np.max(np.abs(alpha + beta - 1.0))))
        zeta = 1.0 - alpha**2 - beta**2 - 2.0 * np.abs(gamma) ** 2
        assert np.all(zeta >= -1e-12) and np.all(zeta <= 0.5 + 1e-12)
        clipped = mixture_entropy_arrays(config, t)
        assert np.all(clipped >= 0.0) and np.all(clipped <= 0.5)
    assert worst_prob <= 1e-10
    print(
        f"\n[PASS] criterion 5: quad norms within {worst_norm:.3e} of 1 (tol 1e-10), "
        f"alpha+beta within {worst_prob:.3e} of 1 (tol 1e-10), zeta inside [0, 0.5]"
    )


def test_criterion_06_mixedness_sensitivity():
    grid = TimeGrid(0.0, 100.0, 10001)
    averages = {}
    minima = {}
    for p in (0.0, 0.1, 0.5):
        series = tc.entropy_series(_config(number_state(1), p, grid=grid))
        averages[p] = time_average(series, (0.0, 100.0))
        report = find_revivals(series, after=5.0)
        minima[p] = report.global_min[1]
    assert averages[0.0] < averages[0.1] < averages[0.5]
    assert minima[0.0] < minima[0.5]
    print(
        "\n[PASS] criterion 6: time averages increase with environment mixedness "
        f"({averages[0.0]:.4f} < {averages[0.1]:.4f} < {averages[0.5]:.4f}); "
        f"post-t=5 minima {minima[0.0]:.2e} (p=0) < {minima[0.5]:.2e} (p=0.5)"
    )


def test_criterion_07_binomial_statistics():
    worst_norm = 0.0
    worst_fano = 0.0
    for m in (1, 2, 5, 11, 50, 100, 200):
        for q in (0.05, 0.1, 0.5, 0.85, 0.95):
            dist = binomial_state(m, q)
            worst_norm = max(
                worst_norm, abs(float(np.dot(dist.amplitudes, dist.amplitudes)) - 1.0)
            )
            worst_fano = max(worst_fano, abs(fano_factor(dist) - (1.0 - q)))
    assert worst_norm <= 1e-12
    assert worst_fano <= 1e-10
    for m in (1, 7, 200):
        assert np.array_equal(binomial_state(m, 1.0).amplitudes, number_state(m).amplitudes)
    t = np.linspace(0.0, 30.0, 301)
    _, _, gamma = entropy_terms(_config(number_state(3), 0.5), t)
    assert np.max(np.abs(gamma)) == 0.0
    print(
        f"\n[PASS] criterion 7: binomial norm within {worst_norm:.3e} of 1 (tol 1e-12), "
        f"Fano factor within {worst_fano:.3e} of 1-q (tol 1e-10), q=1 exact, "
        f"number-state coherence identically zero"
    )


def _peak_distances(report, lines):
    """The largest distance, in bins, from a dominant peak to the nearest
    line of zeta whose amplitude is at least 1% of its largest oscillating
    line, and the weakest of the strongest lines within one bin of each
    peak, as a share of that largest."""
    freq, amp = lines
    share = line_shares(freq, amp)
    strong = np.abs(freq[share >= 0.01])
    worst, weakest = 0.0, 1.0
    for peak, _ in report.peaks:
        worst = max(worst, float(np.min(np.abs(strong - peak))) / report.resolution)
        near = np.abs(np.abs(freq) - peak) <= report.resolution
        weakest = min(weakest, float(np.max(share[near], initial=0.0)))
    return worst, weakest


def test_criterion_08_spectral_content():
    # the lines come from the oracle's block eigensystem; lines built for the
    # wrong lambda2, photon number or environment must each miss a peak
    wrong = {
        "lambda2 = 0.2": lambda p: _config(number_state(1), p, l2=0.2),
        "|2>": lambda p: _config(number_state(2), p),
        "p -> 1 - p": lambda p: _config(number_state(1), 1.0 - p),
    }
    worst, weakest, controls = 0.0, 1.0, dict.fromkeys(wrong, 0.0)
    for p in (0.0, 0.1, 0.5):
        config = _config(number_state(1), p)
        report = dominant_frequencies(tc.entropy_series(config), count=5)
        bins, share = _peak_distances(report, zeta_lines(config))
        worst, weakest = max(worst, bins), min(weakest, share)
        for name, build in wrong.items():
            controls[name] = max(controls[name], _peak_distances(report, zeta_lines(build(p)))[0])
    assert worst <= 1.0
    assert all(bins > 1.0 for bins in controls.values()), controls
    missed = ", ".join(f"{name} {bins:.2f}" for name, bins in controls.items())
    print(
        f"\n[PASS] criterion 8: every dominant peak within one bin of a line of the "
        f"oracle's spectrum at >= 1% of the largest (worst {worst:.2f} bins, weakest "
        f"matched line {weakest:.1%}); wrong lines miss by {missed} bins"
    )


def test_criterion_09_frame_invariance():
    config = _config(number_state(1), 0.5, grid=TimeGrid(0.0, 30.0, 3001))
    reference = None
    worst = 0.0
    for omega in (0.0, 1.0, 5.0):
        series = oracle_entropy_series(config, omega=omega)
        if reference is None:
            reference = series.values
        else:
            worst = max(worst, float(np.max(np.abs(series.values - reference))))
    assert worst <= 1e-10
    print(
        f"\n[PASS] criterion 9: entropy invariant under common resonant frequency "
        f"0/1/5, max deviation {worst:.3e} (tol 1e-10)"
    )


def test_criterion_10_cli_determinism(tmp_path, monkeypatch, capsys):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert main(["figure", "2c", "--out-dir", str(dir_a)]) == 0
    assert main(["figure", "2c", "--out-dir", str(dir_b)]) == 0
    assert (dir_a / "fig2c.csv").read_bytes() == (dir_b / "fig2c.csv").read_bytes()

    assert main(["oracle-check", "--preset", "2c", "--tol", "1e-8"]) == 0

    true_params = tc.spectral_params

    def corrupted(n, couplings):
        sp = true_params(n, couplings)
        return tc.SpectralParams(
            n=sp.n, D=sp.D, d_plus=sp.d_minus, d_minus=sp.d_plus,
            a_plus=sp.a_plus, a_minus=sp.a_minus, b_plus=sp.b_plus, b_minus=sp.b_minus,
        )

    monkeypatch.setattr(tc, "spectral_params", corrupted)
    assert main(["oracle-check", "--preset", "2c", "--tol", "1e-8"]) == 5
    monkeypatch.undo()
    capsys.readouterr()
    print(
        "\n[PASS] criterion 10: figure CSV byte-identical across runs; oracle-check "
        "exits 0 on the reference preset and 5 on the corrupted-frequency fixture"
    )
