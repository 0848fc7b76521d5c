import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tcsim.tc as tc
from tcsim import cli
from conftest import _QUAD_PHASES, branch_amplitudes_bruteforce, coefficient_quad, entropy_terms
from tcsim.errors import ValidationError
from tcsim.jc import jc_amplitudes, jc_number_entropy
from tcsim.oracle import (
    Propagator,
    build_hamiltonian,
    excitation_block,
    initial_density,
    oracle_entropy_series,
    reduce_qubit1,
)
from tcsim.series import CHUNK_POINTS, PHASE_LIMIT
from tcsim.states import (
    Couplings,
    EnvironmentMixture,
    FockDistribution,
    SystemConfig,
    TimeGrid,
    binomial_state,
    number_state,
)
from tcsim.tc import (
    entropy_series,
    mixture_entropy_arrays,
    spectral_params,
)

# ---------------------------------------------------------------- spectral


@pytest.mark.parametrize("n", [0, 1, 2, 7])
def test_spectral_decoupled_environment(n):
    sp = spectral_params(n, Couplings(1.0, 0.0))
    assert sp.D == pytest.approx(1.0, abs=1e-15)
    assert sp.a_minus == 0.0 and sp.b_minus == 0.0
    assert sp.d_plus == pytest.approx(math.sqrt(n + 2), rel=1e-15)
    assert sp.d_minus == pytest.approx(math.sqrt(n + 1), rel=1e-15)


def test_spectral_equal_couplings_example():
    sp = spectral_params(0, Couplings(1.0, 1.0))
    assert sp.D == pytest.approx(6.0, abs=1e-14)
    assert sp.d_minus == 0.0
    assert sp.d_plus == pytest.approx(math.sqrt(6.0), rel=1e-15)


def test_spectral_block_below_vacuum():
    sp = spectral_params(-1, Couplings(1.0, 0.1))
    assert sp.D == pytest.approx(1.01, abs=1e-15)
    assert sp.d_minus == 0.0


def test_spectral_rejects_bad_index():
    with pytest.raises(ValidationError):
        spectral_params(-2, Couplings(1.0, 0.1))


@pytest.mark.parametrize("l1, l2", [(1e154, 1e-10), (1e155, 0.0), (1.0, 1e160)])
def test_spectral_rejects_couplings_too_large_for_double_precision(l1, l2):
    # D^2 overflows to inf in the first two; (k l1 l2)**2 raises in the third
    for n in (-1, 0, 5):
        with pytest.raises(ValidationError, match=re.escape(f"lambda1 = {l1!r}, lambda2 = {l2!r}")):
            spectral_params(n, Couplings(l1, l2))


@pytest.mark.parametrize("l1, l2", [(1e-170, 0.0), (1e-100, 1e-100), (1e-80, 1e-80), (0.0, 1e-160)])
def test_spectral_rejects_couplings_too_small_for_double_precision(l1, l2):
    # D^2 underflows to 0, or in the third to a subnormal off by 6e-6
    # relative; exactly zero couplings keep their zero params
    for n in (-1, 0, 5):
        with pytest.raises(ValidationError, match=re.escape(f"lambda1 = {l1!r}, lambda2 = {l2!r}")):
            spectral_params(n, Couplings(l1, l2))
    assert spectral_params(0, Couplings(0.0, 0.0)).D == 0.0


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(min_value=-1, max_value=40),
    lam1=st.floats(min_value=0.01, max_value=5.0),
    ratio=st.floats(min_value=0.0, max_value=2.0),
)
def test_spectral_identities(n, lam1, ratio):
    c = Couplings(lam1, lam1 * ratio)
    sp = spectral_params(n, c)
    s = c.lambda1**2 + c.lambda2**2
    r = c.lambda1**2 - c.lambda2**2
    d_sq_direct = (2 * n + 3) ** 2 * s * s - 4 * (n + 1) * (n + 2) * r * r
    # the defining difference itself cancels at large n; compare against it
    # to within its own rounding envelope
    assert abs(sp.D**2 - d_sq_direct) <= 1e-12 * max(abs(d_sq_direct), (2 * n + 3) ** 2 * s * s)
    assert sp.a_plus + sp.a_minus == pytest.approx(2 * sp.D, rel=1e-12)
    assert sp.b_plus + sp.b_minus == pytest.approx(2 * sp.D, rel=1e-12)
    assert sp.d_plus >= sp.d_minus >= 0.0
    assert min(sp.a_plus, sp.a_minus, sp.b_plus, sp.b_minus) >= 0.0
    # the frequencies square back to the trace and determinant of the block
    assert sp.d_plus**2 + sp.d_minus**2 == pytest.approx((2 * n + 3) * s, rel=1e-12)


def test_discriminant_never_negative():
    # D^2 = (l1^2 - l2^2)^2 + 4 (2n+3)^2 l1^2 l2^2 is a sum of squares
    for n in range(-1, 60):
        for lam1 in (0.0, 0.01, 0.5, 1.0, 3.0):
            for lam2 in (0.0, 0.01, 0.5, 1.0, 3.0):
                sp = spectral_params(n, Couplings(lam1, lam2))
                assert sp.D >= 0.0


def test_symmetric_coupling_frequency_matches_block_spectrum():
    for n in (0, 1, 2, 5):
        lam = 1.3
        sp = spectral_params(n, Couplings(lam, lam))
        eigenvalues = np.linalg.eigvalsh(excitation_block(Couplings(lam, lam), n))
        assert sp.d_minus == 0.0
        assert sp.d_plus == pytest.approx(lam * math.sqrt(2 * (2 * n + 3)), rel=1e-12)
        assert eigenvalues.max() == pytest.approx(sp.d_plus, abs=1e-10)


# ------------------------------------------------------------------- quads


def test_quads_identity_at_t0():
    quad = coefficient_quad(3, Couplings(1.0, 0.4), 0.0, primed=False)[:, 0]
    assert abs(quad[0] - 1.0) <= 5e-16  # one ulp of rounding in a+ + a- vs 2D
    assert quad[1] == 0.0 and quad[2] == 0.0 and quad[3] == 0.0
    quad_p = coefficient_quad(3, Couplings(1.0, 0.4), 0.0, primed=True)[:, 0]
    assert abs(quad_p[1] - 1.0) <= 5e-16
    assert quad_p[0] == 0.0 and quad_p[2] == 0.0 and quad_p[3] == 0.0


def test_quads_reduce_to_single_branch_when_decoupled():
    t = np.linspace(0.0, 20.0, 801)
    for n in (0, 1, 5):
        for lam in (0.5, 1.0):
            expected = np.array([jc_amplitudes(n, lam, tk).c_excited for tk in t])
            expected_g = np.array([jc_amplitudes(n, lam, tk).c_ground for tk in t])
            quad = coefficient_quad(n, Couplings(lam, 0.0), t, primed=False)
            assert np.max(np.abs(quad[0] - expected)) <= 1e-12
            assert np.max(np.abs(quad[2] - expected_g)) <= 1e-12
            assert np.max(np.abs(quad[1])) == 0.0
            assert np.max(np.abs(quad[3])) == 0.0
            quad_p = coefficient_quad(n, Couplings(lam, 0.0), t, primed=True)
            assert np.max(np.abs(quad_p[1] - expected)) <= 1e-12
            assert np.max(np.abs(quad_p[3] - expected_g)) <= 1e-12
            assert np.max(np.abs(quad_p[0])) == 0.0
            assert np.max(np.abs(quad_p[2])) == 0.0


def test_primed_quad_vanishing_top_level_at_n0():
    t = np.linspace(0.0, 50.0, 1001)
    for couplings in (Couplings(1.0, 0.1), Couplings(0.8, 1.7), Couplings(1.0, 1.0)):
        quad = coefficient_quad(0, couplings, t, primed=True)
        assert np.max(np.abs(quad[0])) == 0.0
        assert np.max(np.abs(np.sum(np.abs(quad) ** 2, axis=0) - 1.0)) <= 1e-12


def test_quads_match_bruteforce_amplitudes(rng):
    # includes the reference point (n=1, 1.0, 0.1, t=2.0)
    cases = [(1, 1.0, 0.1, 2.0)]
    for _ in range(25):
        cases.append(
            (
                int(rng.integers(0, 9)),
                float(rng.uniform(0.2, 2.5)),
                float(rng.uniform(0.0, 2.5)),
                float(rng.uniform(0.0, 20.0)),
            )
        )
    for n, l1, l2, t in cases:
        couplings = Couplings(l1, l2)
        got = coefficient_quad(n, couplings, t, primed=False)[:, 0]
        ref = branch_amplitudes_bruteforce(n, couplings, t, primed=False)
        assert np.max(np.abs(got - ref)) <= 1e-8, (n, l1, l2, t)
        got_p = coefficient_quad(n, couplings, t, primed=True)[:, 0]
        ref_p = branch_amplitudes_bruteforce(n, couplings, t, primed=True)
        assert np.max(np.abs(got_p - ref_p)) <= 1e-8, (n, l1, l2, t)


def test_quads_unit_norm_over_random_draws(rng):
    t = np.linspace(0.0, 40.0, 500)
    for _ in range(50):
        n = int(rng.integers(0, 21))
        lam1 = float(rng.uniform(0.2, 2.0))
        couplings = Couplings(lam1, lam1 * float(rng.uniform(0.0, 1.0)))
        for primed in (False, True):
            quad = coefficient_quad(n, couplings, t, primed)
            assert np.max(np.abs(np.sum(np.abs(quad) ** 2, axis=0) - 1.0)) <= 1e-10


def test_quads_input_validation():
    # the times reach the quads only through the entropy entry point
    config = _config(number_state(1), 0.5)
    for bad in (math.nan, math.inf, -math.inf, -1.0):
        for times in (bad, [0.0, bad]):
            with pytest.raises(ValidationError, match="times must be"):
                mixture_entropy_arrays(config, times)


def _radical_quad_unprimed(n, couplings, t):
    """Square-root form of the unprimed quad with the resolved signs,
    valid on the lambda2 <= lambda1 branch (see RESOLVED_EQUATIONS.md)."""
    sp = spectral_params(n, couplings)
    sin_p, sin_m = np.sin(sp.d_plus * t), np.sin(sp.d_minus * t)
    cos_p, cos_m = np.cos(sp.d_plus * t), np.cos(sp.d_minus * t)
    inv = 0.5 / sp.D
    c1 = inv * (sp.a_minus * cos_p + sp.a_plus * cos_m)
    c2 = -1j * inv * (
        math.sqrt(sp.a_minus * sp.b_plus) * sin_p - math.sqrt(sp.a_plus * sp.b_minus) * sin_m
    )
    c3 = -1j * inv * (
        math.sqrt(sp.a_minus * sp.b_minus) * sin_p + math.sqrt(sp.a_plus * sp.b_plus) * sin_m
    )
    c4 = inv * math.sqrt(sp.a_plus * sp.a_minus) * (cos_p - cos_m)
    return np.array([c1, c2, c3, c4])


def _radical_quad_primed(n, couplings, t):
    sp = spectral_params(n - 1, couplings)
    sin_p, sin_m = np.sin(sp.d_plus * t), np.sin(sp.d_minus * t)
    cos_p, cos_m = np.cos(sp.d_plus * t), np.cos(sp.d_minus * t)
    inv = 0.5 / sp.D
    c1 = -1j * inv * (
        math.sqrt(sp.a_minus * sp.b_plus) * sin_p - math.sqrt(sp.a_plus * sp.b_minus) * sin_m
    )
    c2 = inv * (sp.b_plus * cos_p + sp.b_minus * cos_m)
    c3 = inv * math.sqrt(sp.b_plus * sp.b_minus) * (cos_p - cos_m)
    c4 = -1j * inv * (
        math.sqrt(sp.a_plus * sp.b_plus) * sin_p + math.sqrt(sp.a_minus * sp.b_minus) * sin_m
    )
    return np.array([c1, c2, c3, c4])


def test_radical_forms_match_on_weak_coupling_branch():
    t = np.linspace(0.0, 15.0, 301)
    for n in range(5):
        for ratio in (0.0, 0.3, 0.9, 1.0):
            couplings = Couplings(1.1, 1.1 * ratio)
            got = coefficient_quad(n, couplings, t, primed=False)
            radical = _radical_quad_unprimed(n, couplings, t)
            assert np.max(np.abs(got - radical)) <= 1e-12, (n, ratio)
            got_p = coefficient_quad(n, couplings, t, primed=True)
            radical_p = _radical_quad_primed(n, couplings, t)
            assert np.max(np.abs(got_p - radical_p)) <= 1e-12, (n, ratio)


# ----------------------------------------------------------- entropy terms


# (|0> + |1>)/sqrt(2) and (|0> - |1>)/sqrt(2) in equal parts: coherent
# components whose mixture has no first off-diagonal (C = 0)
_PHASE_AVERAGED = [
    (0.5, FockDistribution(np.array([1.0, 1.0]) / math.sqrt(2.0))),
    (0.5, FockDistribution(np.array([1.0, -1.0]) / math.sqrt(2.0))),
]


def _config(dist, p, l2=0.1, grid=None):
    return SystemConfig(
        oscillator=dist,
        env=EnvironmentMixture(p),
        couplings=Couplings(1.0, l2),
        grid=grid or TimeGrid(0.0, 30.0, 3001),
    )


def test_terms_identity_at_t0():
    alpha, beta, gamma = entropy_terms(_config(binomial_state(5, 0.4), 0.3), 0.0)
    assert alpha.tolist() == [0.0] and beta.tolist() == [1.0] and gamma.tolist() == [0.0]


def test_terms_number_state_has_no_coherence():
    t = np.linspace(0.0, 30.0, 401)
    _, _, gamma = entropy_terms(_config(number_state(2), 0.5), t)
    assert np.max(np.abs(gamma)) == 0.0


def test_terms_match_reduced_density_matrix():
    config = _config(binomial_state(11, 0.95), 0.5)
    prop = Propagator(build_hamiltonian(config.couplings, n_max=13))
    rho0 = initial_density(config, 13)
    times = [3.0, 7.5, 21.0]
    for t, alpha, beta, gamma in zip(times, *entropy_terms(config, times)):
        reduced = reduce_qubit1(prop.evolve_density(rho0, t))
        assert abs(alpha - reduced[0, 0].real) <= 1e-8
        assert abs(beta - reduced[1, 1].real) <= 1e-8
        assert abs(gamma - reduced[0, 1]) <= 1e-8


def test_terms_probability_conservation_and_coherence_bound():
    t = np.linspace(0.0, 60.0, 1201)
    for dist, p in ((binomial_state(7, 0.85), 0.2), (binomial_state(3, 0.5), 0.9)):
        alpha, beta, gamma = entropy_terms(_config(dist, p, l2=0.6), t)
        assert np.max(np.abs(alpha + beta - 1.0)) <= 1e-10
        assert np.max(np.abs(gamma)) <= 0.5


# ---------------------------------------------------------- linear entropy


def test_entropy_zero_at_t0():
    assert mixture_entropy_arrays(_config(binomial_state(4, 0.3), 0.7), 0.0).tolist() == [0.0]


def test_entropy_reduces_to_single_branch_and_ignores_p_when_decoupled():
    t = np.linspace(0.0, 30.0, 3001)
    for n in (0, 1, 2):
        reference = jc_number_entropy(n, 1.0, t)
        baseline = None
        for p in (0.0, 0.3, 1.0):
            zeta = mixture_entropy_arrays(_config(number_state(n), p, l2=0.0), t)
            assert np.max(np.abs(zeta - reference)) <= 1e-12
            if baseline is None:
                baseline = zeta
            else:
                assert np.max(np.abs(zeta - baseline)) <= 1e-12


def test_entropy_series_matches_bruteforce_reference_scenario():
    config = _config(number_state(1), 0.5)
    series = entropy_series(config)
    reference = oracle_entropy_series(config)
    assert len(series) == config.grid.n_points
    assert np.all(np.diff(series.times) > 0)
    assert np.max(np.abs(series.values - reference.values)) <= 1e-8


def test_entropy_grid_partition_is_bitwise_stable():
    # a grid of three chunks, cut where no chunk boundary falls
    config = _config(binomial_state(6, 0.6), 0.4)
    chunk = CHUNK_POINTS
    t = np.linspace(0.0, 30.0, 2 * chunk + 7)
    full = mixture_entropy_arrays(config, t)
    cuts = [0, 1500, chunk + 3, 2 * chunk + 1, t.size]
    split = np.concatenate([mixture_entropy_arrays(config, t[a:b]) for a, b in zip(cuts, cuts[1:])])
    assert np.array_equal(full, split)
    # and the chunks give the values of the whole grid taken at once
    alpha, beta, gamma = entropy_terms(config, t)
    assert np.array_equal(full, np.clip(1.0 - alpha**2 - beta**2 - 2.0 * np.abs(gamma) ** 2, 0.0, 0.5))


def test_closed_form_evaluates_each_block_once(monkeypatch):
    # at index n, the branch that reads side s (0 = unprimed, excited
    # environment, weight p; 1 = primed, ground, weight 1 - p) reads block
    # n - s, and with a coherence block n - s + 1 as well; a branch of
    # weight 0 reads nothing.  One evaluation of a block yields the sides
    # read of it.
    calls, formed = [], []
    true_params, true_columns = tc.spectral_params, tc._block_columns

    def counting(m, couplings):
        calls.append(m)
        return true_params(m, couplings)

    def forming(sp, sides, couplings, t):
        formed.append((sp.n, sides))
        return true_columns(sp, sides, couplings, t)

    monkeypatch.setattr(tc, "spectral_params", counting)
    monkeypatch.setattr(tc, "_block_columns", forming)
    # a grid of three chunks: the params of each block carry across them
    t = np.linspace(0.0, 30.0, 2 * CHUNK_POINTS + 1)
    # a mixture evaluates the blocks its components share once
    two_binomials = [(0.5, binomial_state(400, 0.3)), (0.5, binomial_state(400, 0.7))]
    unprimed, primed = (True, False), (False, True)
    # P_0 = P_1 = C_0 = 1e-40 and C_1 = 1e-20: index 0 is left out, index 1
    # is kept for its coherence, which reads block 2
    faint = FockDistribution(np.array([1e-20, 1e-20, 1.0]))
    for dist, p, sides in (
        (binomial_state(400, 0.5), 0.3, _read_sides(binomial_state(400, 0.5))),
        # indices 86..314 with C_314 = 0: 229 blocks, one side each
        (binomial_state(400, 0.5), 0.0, dict.fromkeys(range(85, 314), primed)),
        (binomial_state(400, 0.5), 1.0, dict.fromkeys(range(86, 315), unprimed)),
        (number_state(1), 0.3, {0: primed, 1: unprimed}),
        (number_state(1), 0.0, {0: primed}),
        (number_state(1), 1.0, {1: unprimed}),
        (two_binomials, 0.3, _read_sides(two_binomials)),
        (_PHASE_AVERAGED, 0.3, _read_sides(_PHASE_AVERAGED)),
        (_PHASE_AVERAGED, 0.0, {-1: primed, 0: primed}),
        (_PHASE_AVERAGED, 1.0, {0: unprimed, 1: unprimed}),
        (faint, 0.3, {0: primed, 1: (True, True), 2: unprimed}),
        (faint, 0.0, {0: primed, 1: primed}),
        (faint, 1.0, {1: unprimed, 2: unprimed}),
    ):
        calls.clear()
        formed.clear()
        mixture_entropy_arrays(_config(dist, p), t)
        assert calls == list(sides), p
        # each chunk forms each block once, in ascending order, with only
        # the sides read of it
        assert formed == list(sides.items()) * 3, p
    # 230 blocks of the 402 (-1..400) of the full sum
    assert list(_read_sides(binomial_state(400, 0.5))) == list(range(85, 315))
    assert list(_read_sides(_PHASE_AVERAGED)) == [-1, 0, 1]


def _read_sides(dist):
    """Blocks n0 - 1 .. n1 read at 0 < p < 1 by the kept indices n0 .. n1 of
    a binomial state or mixture, whose kept indices are contiguous, and
    block n1 + 1 if the last of them keeps its coherence, each with the
    sides read of it: the first only primed, the last only unprimed, and
    every other both."""
    P, C = tc._density_bands(_config(dist, 0.3).oscillator)
    kept = np.flatnonzero(P)
    assert np.array_equal(kept, np.arange(kept[0], kept[-1] + 1))
    blocks = range(kept[0] - 1, kept[-1] + 1 + (C[kept[-1]] != 0.0))
    sides = dict.fromkeys(blocks, (True, True))
    sides[blocks[0]], sides[blocks[-1]] = (False, True), (True, False)
    return sides


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_a_branch_of_weight_zero_changes_no_bit_of_zeta(p):
    # zeta against the two-branch sum P_n (p X + (1 - p) Y), both sides
    # formed and added in the order the closed form adds them at 0 < p < 1
    grid = TimeGrid(0.0, 60.0, 601)
    t = grid.times()
    for dist in (number_state(0), number_state(1), number_state(5), binomial_state(11, 0.95),
                 binomial_state(100, 0.1), _PHASE_AVERAGED,
                 FockDistribution(np.array([1e-20, 1e-20, 1.0]))):
        for l2 in (0.0, 0.1, 1.0):
            config = _config(dist, p, l2=l2, grid=grid)
            assert np.array_equal(mixture_entropy_arrays(config, t), _two_branch_zeta(config, t))


def _two_branch_zeta(config, t):
    p, couplings = config.env.p, config.couplings
    P, C = tc._density_bands(config.oscillator)
    alpha, beta, gamma_im = np.zeros((3, t.size))
    for n in np.flatnonzero(P).tolist():
        c1, c2, c3, c4 = _real_columns(n, couplings, t, False)
        k1, k2, k3, k4 = _real_columns(n, couplings, t, True)
        alpha += P[n] * (p * (c3**2 + c4**2) + (1.0 - p) * (k3**2 + k4**2))
        beta += P[n] * (p * (c1**2 + c2**2) + (1.0 - p) * (k1**2 + k2**2))
        if C[n] != 0.0:
            d1, d2, _, _ = _real_columns(n + 1, couplings, t, False)
            e1, e2, _, _ = _real_columns(n + 1, couplings, t, True)
            gamma_im += C[n] * (p * (c4 * d2 - c3 * d1) + (1.0 - p) * (k3 * e1 - k4 * e2))
    return np.clip(1.0 - alpha**2 - beta**2 - 2.0 * gamma_im**2, 0.0, 0.5)


def _real_columns(n, couplings, t, primed):
    """The real arrays of ``coefficient_quad``, each entry r or -i r read back
    as r exactly."""
    quad = coefficient_quad(n, couplings, t, primed)
    return [q.real if phase == 1 else -q.imag for q, phase in zip(quad, _QUAD_PHASES[primed])]


def test_leaving_out_negligible_indices_moves_zeta_by_at_most_4_eps(monkeypatch):
    # each index left out moves alpha, beta and Im gamma by less than eps^2,
    # far below an ulp of zeta; the full sum (no threshold) keeps every index
    grid = TimeGrid(0.0, 30.0, 301)
    two_binomials = [(0.5, binomial_state(400, 0.3)), (0.5, binomial_state(400, 0.7))]
    cases = [
        (q, _config(binomial_state(400, q), p, l2=l2, grid=grid))
        for q in (0.02, 0.5, 0.98) for p in (0.0, 0.37, 1.0) for l2 in (0.0, 0.1, 1.0)
    ] + [(None, _config(two_binomials, 0.37, grid=grid))]
    t = grid.times()

    def zetas(negligible):
        monkeypatch.setattr(tc, "_NEGLIGIBLE", negligible)
        return [mixture_entropy_arrays(config, t) for _, config in cases]

    kept = zetas(tc._NEGLIGIBLE)
    full = zetas(0.0)
    control = zetas(1e-6)
    for (q, config), zeta, zeta_full, zeta_control in zip(cases, kept, full, control):
        assert np.max(np.abs(zeta - zeta_full)) <= 4 * tc._EPS
        # a threshold that leaves out real weight fails the same check
        assert np.max(np.abs(zeta_control - zeta_full)) > 4 * tc._EPS
        # the oracle keeps every index: at q = 0.02 and 0.98 the ones left
        # out are those of the highest or the lowest blocks
        if q in (0.02, 0.98):
            assert np.max(np.abs(zeta - oracle_entropy_series(config).values)) <= 1e-12


def test_phase_limit_error_names_the_largest_time_of_the_grid():
    # every chunk of this grid passes the limit; the error names the last t
    t = np.linspace(0.0, 1e16, 2 * CHUNK_POINTS + 7)
    assert t[CHUNK_POINTS - 1] > PHASE_LIMIT
    with pytest.raises(ValidationError, match=r"^block 0: .* and t = 1e\+16 is beyond"):
        mixture_entropy_arrays(_config(number_state(1), 0.5), t)


def test_closed_form_memory_does_not_grow_with_the_support():
    # every tenth number state up to 400, mixed and as one superposition:
    # the index after each populated n is empty, so no later index reads block n
    amps = np.zeros(401)
    amps[::10] = 1.0 / math.sqrt(41.0)
    for dist in (
        binomial_state(400, 0.5),
        [(1.0 / 41.0, number_state(n)) for n in range(0, 401, 10)],
        FockDistribution(amps),
    ):
        config = _config(dist, 0.3)
        t = config.grid.times()
        tracemalloc.start()
        try:
            mixture_entropy_arrays(config, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Only the blocks in flight are held, about 40 grid-sized arrays;
        # holding the quads of all 401 indices would take about 6000, and
        # keeping each block of the gapped states about 350.
        assert peak <= 64 * t.nbytes


def test_mixture_entropy_arrays_match_dedicated_closed_form():
    t = np.linspace(0.0, 30.0, 3001)
    from tcsim.jc import jc_mixture_entropy

    for f in (0.0, 0.5, 0.8):
        config = _config([(f, number_state(0)), (1.0 - f, number_state(1))], 0.0, l2=0.0)
        mixed = mixture_entropy_arrays(config, t)
        assert np.max(np.abs(mixed - jc_mixture_entropy(f, 1.0, t))) <= 1e-12
    # averaging the relative phase leaves the same vacuum/one-photon populations
    mixed = mixture_entropy_arrays(_config(_PHASE_AVERAGED, 0.0, l2=0.0), t)
    assert np.max(np.abs(mixed - jc_mixture_entropy(0.5, 1.0, t))) <= 1e-12


def test_mixture_entropy_arrays_reject_bad_weights():
    # both pipelines read the weights from SystemConfig, which checks them
    for weights in ((0.7, 0.7), (1.2, -0.2), (0.5, float("nan"))):
        components = [(weights[0], number_state(0)), (weights[1], number_state(1))]
        with pytest.raises(ValidationError):
            _config(components, 0.0, l2=0.0, grid=TimeGrid(0.0, 1.0, 5))
    # a component that is not a (weight, FockDistribution) pair is named
    for oscillator, named in (([(1.0, [1.0])], "[1.0]"), ([(1.0, number_state(1), 3)], "3"),
                              (5, "5"), (None, "None"),
                              ([("0.5", number_state(0)), (0.5, number_state(1))], "'0.5'")):
        with pytest.raises(ValidationError, match=re.escape(named)):
            _config(oscillator, 0.0, l2=0.0, grid=TimeGrid(0.0, 1.0, 5))


def test_mixed_binomial_and_number_state_closed_form_matches_oracle():
    for components in ([(0.3, binomial_state(5, 0.4)), (0.7, number_state(2))], _PHASE_AVERAGED):
        config = _config(components, 0.3, l2=0.1, grid=TimeGrid(0.0, 30.0, 1501))
        closed = mixture_entropy_arrays(config, config.grid.times())
        checked = oracle_entropy_series(config)
        assert np.max(np.abs(closed - checked.values)) <= 1e-10
        # a genuine mixture: neither component alone gives the same curve
        for _, dist in config.oscillator:
            pure = mixture_entropy_arrays(_config(dist, 0.3, l2=0.1), config.grid.times())
            assert np.max(np.abs(closed - pure)) > 1e-3


# ------------------------------------------------------------ error model

# |closed - oracle| <= C eps d_max t_max (+ a floor of a few ulp of zeta near
# t = 0); see "Closed-vs-oracle error model" in RESOLVED_EQUATIONS.md


def _closed_vs_oracle(config):
    """Largest |closed - oracle| over the grid, eps d_max t_max, and the
    model's C and floor."""
    t = config.grid.times()
    err = np.max(np.abs(mixture_entropy_arrays(config, t) - oracle_entropy_series(config).values))
    c, floor, d_max = cli._error_model(config)
    return float(err), np.finfo(float).eps * d_max * float(t[-1]), c, floor


def test_error_model_d_max_is_the_largest_d_plus_the_truncation_holds():
    for dist in (number_state(1), binomial_state(11, 0.95), number_state(0)):
        config = _config(dist, 0.5, l2=0.7)
        d_max = max(spectral_params(m, config.couplings).d_plus for m in range(-1, dist.cutoff + 2))
        assert cli._error_model(config) == (4.0, 2e-14, d_max)


def test_closed_vs_oracle_error_grows_as_eps_d_max_t_max():
    for dist in (number_state(1), binomial_state(11, 0.95)):
        for t0 in (0.0, 1e2, 1e4, 1e6, 1e8):
            err, model, c, _ = _closed_vs_oracle(_config(dist, 0.5, grid=TimeGrid(t0, t0 + 30.0, 3001)))
            assert err <= c * model, (dist.cutoff, t0, err / model)


@settings(max_examples=100, deadline=None)
@given(
    number=st.integers(min_value=0, max_value=6),
    binomial=st.none() | st.floats(min_value=0.05, max_value=0.95),
    p=st.floats(min_value=0.0, max_value=1.0),
    ratio=st.floats(min_value=0.0, max_value=1.5),
    t0=st.floats(min_value=0.0, max_value=1e8),
    span=st.floats(min_value=1e-3, max_value=100.0),
)
def test_closed_vs_oracle_error_stays_within_the_model(number, binomial, p, ratio, t0, span):
    dist = number_state(number) if binomial is None else binomial_state(number + 1, binomial)
    err, model, c, floor = _closed_vs_oracle(_config(dist, p, l2=ratio, grid=TimeGrid(t0, t0 + span, 301)))
    assert err <= c * model + floor, (err, model)

