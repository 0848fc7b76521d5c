import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcsim import jc, oracle, tc
from tcsim.errors import ValidationError
from tcsim.states import (
    Couplings,
    EnvironmentMixture,
    FockDistribution,
    SystemConfig,
    TimeGrid,
    binomial_state,
    fano_factor,
    number_state,
    validate,
)


def test_number_state_examples():
    assert np.array_equal(number_state(0).amplitudes, [1.0])
    assert np.array_equal(number_state(1).amplitudes, [0.0, 1.0])
    assert np.array_equal(number_state(3).amplitudes, [0.0, 0.0, 0.0, 1.0])
    assert number_state(3).cutoff == 3


def test_number_state_rejects_negative():
    with pytest.raises(ValidationError):
        number_state(-1)


def test_binomial_limits_are_exact_number_states():
    assert np.array_equal(binomial_state(5, 1.0).amplitudes, number_state(5).amplitudes)
    assert np.array_equal(binomial_state(5, 0.0).amplitudes, number_state(0).amplitudes)


def test_binomial_half_quantum_pair():
    # closed form: squared amplitudes 1/4, 1/2, 1/4
    amps = binomial_state(2, 0.5).amplitudes
    expected = np.array([0.5, 0.7071067811865476, 0.5])
    assert np.allclose(amps, expected, atol=1e-15)


def test_binomial_rejects_bad_parameters():
    with pytest.raises(ValidationError, match=r"^q = 1\.2 must lie in \[0, 1\]$"):
        binomial_state(5, 1.2)
    with pytest.raises(ValidationError, match=r"^q = -0\.1 must lie in \[0, 1\]$"):
        binomial_state(5, -0.1)
    with pytest.raises(ValidationError):
        binomial_state(0, 0.5)


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=200),
    q=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_binomial_normalization_and_positivity(m, q):
    dist = binomial_state(m, q)
    assert abs(float(np.dot(dist.amplitudes, dist.amplitudes)) - 1.0) <= 1e-12
    assert np.all(dist.amplitudes >= 0.0)


@pytest.mark.parametrize("m", [1, 3, 11, 50, 200])
@pytest.mark.parametrize("q", [0.05, 0.1, 0.5, 0.85, 0.95])
def test_binomial_moments(m, q):
    dist = binomial_state(m, q)
    assert abs(dist.mean_excitation() - m * q) <= 1e-10
    assert abs(dist.excitation_variance() - m * q * (1 - q)) <= 1e-10


def test_fano_factor_values():
    assert fano_factor(number_state(3)) == 0.0
    assert abs(fano_factor(binomial_state(11, 0.95)) - 0.05) <= 1e-10
    assert abs(fano_factor(binomial_state(100, 0.1)) - 0.9) <= 1e-10
    assert fano_factor(binomial_state(7, 1.0)) == 0.0


def test_fano_factor_undefined_for_vacuum():
    with pytest.raises(ValidationError, match="^Fano factor is undefined at zero mean excitation$"):
        fano_factor(number_state(0))
    with pytest.raises(ValidationError, match="^Fano factor is undefined at zero mean excitation$"):
        fano_factor(binomial_state(5, 0.0))


def test_fock_distribution_rejects_unnormalized():
    with pytest.raises(ValidationError, match=r"^amplitude norm\^2 = 0\.72 differs from 1 by more than 1e-09$"):
        FockDistribution(np.array([0.6, 0.6]))


def test_fock_distribution_repairs_small_drift():
    drifted = np.array([1.0, 0.0]) * np.sqrt(1.0 + 5e-10)
    dist = FockDistribution(drifted)
    assert float(np.dot(dist.amplitudes, dist.amplitudes)) == pytest.approx(1.0, abs=1e-15)


def test_fock_distribution_rejects_complex_and_empty():
    with pytest.raises(ValidationError):
        FockDistribution(np.array([1j, 0.0]))
    with pytest.raises(ValidationError):
        FockDistribution(np.array([]))
    with pytest.raises(ValidationError, match="amplitudes must be real numbers"):
        FockDistribution(np.array(["a", "b"], dtype=object))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="amplitudes must be finite"):
            FockDistribution(np.array([1.0, bad]))


def test_environment_mixture_bounds():
    assert EnvironmentMixture(0.5).p == 0.5
    with pytest.raises(ValidationError, match=r"^p = 1\.2 must lie in \[0, 1\]$"):
        EnvironmentMixture(1.2)
    with pytest.raises(ValidationError, match=r"^p = -0\.01 must lie in \[0, 1\]$"):
        EnvironmentMixture(-0.01)


def test_couplings_bounds():
    c = Couplings(1.0, 0.1)
    assert (c.lambda1, c.lambda2) == (1.0, 0.1)
    with pytest.raises(ValidationError):
        Couplings(-1.0, 0.1)
    with pytest.raises(ValidationError):
        Couplings(1.0, float("inf"))


def test_probabilities_and_couplings_take_any_real_number():
    # numpy scalars are real numbers and keep their value as a float; a
    # string, a complex number and None are still no probability or coupling
    for value in (np.int64(0), np.float32(0.3), np.float64(1.0)):
        assert EnvironmentMixture(value).p == float(value)
        assert type(EnvironmentMixture(value).p) is float
    c = Couplings(np.float32(1.0), np.int64(0))
    assert (c.lambda1, c.lambda2) == (1.0, 0.0) and type(c.lambda1) is type(c.lambda2) is float
    assert np.array_equal(binomial_state(4, np.float32(0.5)).amplitudes, binomial_state(4, 0.5).amplitudes)
    for bad in ("0.5", 0.5j, None):
        with pytest.raises(ValidationError, match=re.escape(f"p = {bad!r} must lie in [0, 1]")):
            EnvironmentMixture(bad)
        with pytest.raises(ValidationError, match=re.escape(f"lambda1 = {bad!r} must be finite")):
            Couplings(bad, 0.1)
        with pytest.raises(ValidationError, match=re.escape(f"lambda2 = {bad!r} must be finite")):
            Couplings(1.0, bad)


@pytest.mark.parametrize("p, branches", [(0.0, [(1.0, 1)]), (0.37, [(0.37, 0), (1.0 - 0.37, 1)]),
                                         (1.0, [(1.0, 0)])])
def test_environment_branches_leave_out_a_state_of_weight_zero(p, branches):
    # s = 0 is the excited state, of weight p, and s = 1 the ground state
    assert EnvironmentMixture(p).branches() == branches


def test_support_counts_a_component_of_weight_zero():
    env, couplings, grid = EnvironmentMixture(0.5), Couplings(1.0, 0.1), TimeGrid(0.0, 10.0, 11)
    assert SystemConfig(binomial_state(7, 0.3), env, couplings, grid).support == 7
    config = SystemConfig([(1.0, number_state(2)), (0.0, number_state(5))], env, couplings, grid)
    assert config.support == 5
    # both pipelines size their arrays from it
    assert tc._density_bands(config)[0].size == 6
    with pytest.raises(ValidationError, match="oscillator support 5 needs n_max >= 7"):
        oracle.initial_density(config, 6)


def test_both_pipelines_read_the_environment_from_its_branches(monkeypatch):
    # with the table patched to the excited state alone, p = 1/2 gives every
    # bit of p = 1 on the closed form, the block oracle and the dense reference
    grid = TimeGrid(0.0, 30.0, 151)
    oscillator = [(0.4, binomial_state(3, 0.4)), (0.6, number_state(1))]

    def series(p):
        config = SystemConfig(oscillator, EnvironmentMixture(p), Couplings(1.0, 0.3), grid)
        return (tc.entropy_series(config).values, oracle.oracle_entropy_series(config).values,
                oracle.oracle_entropy_series(config, dense=True).values)

    excited = series(1.0)
    assert not np.array_equal(series(0.5)[0], excited[0])
    monkeypatch.setattr(EnvironmentMixture, "branches", lambda self: [(1.0, 0)])
    for name, got, want in zip(("closed", "block oracle", "dense oracle"), series(0.5), excited):
        assert np.array_equal(got, want), name


def test_time_grid_validation():
    grid = TimeGrid(0.0, 30.0, 3001)
    times = grid.times()
    assert times.size == 3001 and times[0] == 0.0 and times[-1] == 30.0
    with pytest.raises(ValidationError, match=r"^need t_end > t_start >= 0, got \[0\.0, 0\.0\]$"):
        TimeGrid(0.0, 0.0, 100)
    with pytest.raises(ValidationError, match=r"^need t_end > t_start >= 0, got \[-1\.0, 5\.0\]$"):
        TimeGrid(-1.0, 5.0, 100)
    with pytest.raises(ValidationError, match="^n_points = 1 must be an integer >= 2$"):
        TimeGrid(0.0, 5.0, 1)


@pytest.mark.parametrize("t_start, t_end", [(None, 1.0), (0.0, "1")], ids=repr)
def test_time_grid_rejects_endpoints_that_are_not_numbers(t_start, t_end):
    with pytest.raises(ValidationError, match="grid endpoints must be finite"):
        TimeGrid(t_start, t_end, 3)


def _fig2c_config():
    return SystemConfig(
        oscillator=number_state(1),
        env=EnvironmentMixture(0.5),
        couplings=Couplings(1.0, 0.1),
        grid=TimeGrid(0.0, 30.0, 3001),
    )


def test_validate_accepts_reference_scenario():
    config = _fig2c_config()
    checked = validate(config)
    assert checked.env.p == 0.5
    assert checked.couplings.lambda2 == 0.1
    [(weight, dist)] = checked.oscillator
    assert weight == 1.0
    assert np.array_equal(dist.amplitudes, config.oscillator[0][1].amplitudes)


def test_validate_rejects_forged_amplitudes():
    config = _fig2c_config()
    object.__setattr__(config.oscillator[0][1], "amplitudes", np.array([0.6, 0.6]))
    with pytest.raises(ValidationError, match=r"^amplitude norm\^2 = 0\.72 differs from 1 by more than 1e-09$"):
        validate(config)


def test_system_config_requires_positive_lambda1():
    with pytest.raises(ValidationError):
        SystemConfig(
            oscillator=number_state(1),
            env=EnvironmentMixture(0.0),
            couplings=Couplings(0.0, 0.1),
            grid=TimeGrid(0.0, 10.0, 11),
        )


def test_system_config_stores_the_oscillator_as_weighted_components():
    env, couplings, grid = EnvironmentMixture(0.0), Couplings(1.0, 0.1), TimeGrid(0.0, 10.0, 11)
    pure = number_state(2)
    config = SystemConfig(oscillator=pure, env=env, couplings=couplings, grid=grid)
    assert config.oscillator == ((1.0, pure),)
    vacuum, one = number_state(0), number_state(1)
    mixed = SystemConfig(oscillator=[(0.25, vacuum), (0.75, one)], env=env, couplings=couplings, grid=grid)
    assert mixed.oscillator == ((0.25, vacuum), (0.75, one))
    for weights in ((), (0.5, 0.25), (1.5, -0.5)):
        with pytest.raises(ValidationError, match="mixture weights"):
            SystemConfig(oscillator=list(zip(weights, (vacuum, one))), env=env,
                         couplings=couplings, grid=grid)


_COUPLINGS = Couplings(1.0, 0.1)
_CONFIG = SystemConfig(number_state(1), EnvironmentMixture(0.5), _COUPLINGS, TimeGrid(0.0, 1.0, 2))
# Every integer argument the library checks, each as a call that takes the
# value under test.  Each raises ValidationError when the value is no integer,
# except that build_hamiltonian reads n_max = None as no n_max, a TypeError.
_INTEGER_SITES = {
    "build_hamiltonian": lambda x: oracle.build_hamiltonian(_COUPLINGS, n_max=x),
    "excitation_block": lambda x: oracle.excitation_block(_COUPLINGS, x),
    "initial_density": lambda x: oracle.initial_density(_CONFIG, x),
    "total_excitation": oracle.total_excitation,
    "spectral_params": lambda x: tc.spectral_params(x, _COUPLINGS),
    "TimeGrid": lambda x: TimeGrid(0.0, 1.0, x),
    "number_state": number_state,
    "binomial_state": lambda x: binomial_state(x, 0.5),
    "jc_amplitudes": lambda x: jc.jc_amplitudes(x, 1.0, 1.0),
    "jc_number_entropy": lambda x: jc.jc_number_entropy(x, 1.0, 1.0),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), None, 1.5], ids=repr)
@pytest.mark.parametrize("site", sorted(_INTEGER_SITES))
def test_integer_arguments_reject_anything_but_a_finite_integer(site, value):
    error = TypeError if (site, value) == ("build_hamiltonian", None) else ValidationError
    with pytest.raises(error, match=re.escape(f"{value!r}")):
        _INTEGER_SITES[site](value)
