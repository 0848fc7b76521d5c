import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import branch_amplitudes_bruteforce
from tcsim.errors import InvalidProbabilityError, ValidationError
from tcsim.jc import jc_amplitudes, jc_mixture_entropy, jc_number_entropy
from tcsim.oracle import oracle_entropy_series
from tcsim.series import PHASE_LIMIT
from tcsim.states import (
    Couplings,
    EnvironmentMixture,
    SystemConfig,
    TimeGrid,
    number_state,
)


def test_amplitudes_identity_at_t0():
    amps = jc_amplitudes(0, 1.0, 0.0)
    assert amps.c_excited == 1.0 and amps.c_ground == 0.0


def test_amplitudes_quarter_period():
    amps = jc_amplitudes(0, 1.0, math.pi / 2)
    assert abs(amps.c_excited) <= 1e-15
    assert abs(amps.c_ground - (-1j)) <= 1e-15


def test_amplitudes_half_period_one_photon():
    amps = jc_amplitudes(1, 1.0, math.pi / math.sqrt(2))
    assert abs(amps.c_excited - (-1.0)) <= 1e-12
    assert abs(amps.c_ground) <= 1e-12


def test_amplitudes_match_bruteforce_with_decoupled_environment():
    # single-branch evolution embeds as the (c1, c3) pair of the full system
    couplings = Couplings(0.7, 0.0)
    for n in (0, 1, 4):
        for t in (0.3, 2.0, 11.7):
            ref = branch_amplitudes_bruteforce(n, couplings, t, primed=False)
            amps = jc_amplitudes(n, 0.7, t)
            assert abs(amps.c_excited - ref[0]) <= 1e-12
            assert abs(amps.c_ground - ref[2]) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=40),
    coupling=st.floats(min_value=0.05, max_value=5.0),
    t=st.floats(min_value=0.0, max_value=50.0),
)
def test_amplitudes_unit_norm(n, coupling, t):
    assert jc_amplitudes(n, coupling, t).norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_amplitudes_input_validation():
    with pytest.raises(ValidationError):
        jc_amplitudes(-1, 1.0, 0.0)
    with pytest.raises(ValidationError):
        jc_amplitudes(0, 0.0, 0.0)
    with pytest.raises(ValidationError):
        jc_amplitudes(0, 1.0, -0.5)


def test_number_state_closed_forms_check_the_phase():
    # the phase frequency * t of |1> is sqrt(2) t in the amplitudes and
    # 2 sqrt(2) t in the entropy; 1e17 is past the limit for both
    for closed_form, freq in ((jc_amplitudes, math.sqrt(2.0)), (jc_number_entropy, 2.0 * math.sqrt(2.0))):
        closed_form(1, 1.0, 0.5 * PHASE_LIMIT / freq)
        with pytest.raises(ValidationError, match="beyond double precision"):
            closed_form(1, 1.0, 1e17)
    with pytest.raises(ValidationError, match="beyond double precision"):
        jc_number_entropy(1, 1.0, np.array([0.0, 1.0, 1e17]))


def test_number_entropy_examples():
    assert jc_number_entropy(0, 1.0, 0.0) == 0.0
    assert jc_number_entropy(0, 1.0, math.pi / 4) == pytest.approx(0.5, abs=1e-15)
    # full single-branch return at t = pi / (2 sqrt(2))
    assert jc_number_entropy(1, 1.0, math.pi / (2 * math.sqrt(2))) <= 1e-12


def test_number_entropy_periodicity_and_range():
    t = np.linspace(0.0, 20.0, 4001)
    for n in (0, 1, 2):
        zeta = jc_number_entropy(n, 1.0, t)
        assert np.all(zeta >= 0.0) and np.all(zeta <= 0.5)
        period = math.pi / (2.0 * math.sqrt(n + 1))
        assert np.max(np.abs(jc_number_entropy(n, 1.0, t + period) - zeta)) <= 1e-12


def test_mixture_entropy_collapses_to_single_branch():
    t = np.linspace(0.0, 25.0, 2501)
    assert np.max(np.abs(jc_mixture_entropy(1.0, 1.0, t) - jc_number_entropy(0, 1.0, t))) <= 1e-12
    assert np.max(np.abs(jc_mixture_entropy(0.0, 1.0, t) - jc_number_entropy(1, 1.0, t))) <= 1e-12


def test_mixture_entropy_scalar_values():
    assert jc_mixture_entropy(0.5, 1.0, 0.0) == 0.0
    # frozen from direct evaluation of the two-branch closed form; the
    # ensemble cross-check below pins the same number independently
    assert jc_mixture_entropy(0.5, 1.0, math.pi / 2) == pytest.approx(
        0.29957467609394706, abs=1e-14
    )


def test_mixture_entropy_rejects_bad_fraction():
    with pytest.raises(InvalidProbabilityError):
        jc_mixture_entropy(1.5, 1.0, 0.0)


def _mixture_oracle(f: float, grid: TimeGrid) -> np.ndarray:
    config = SystemConfig(
        oscillator=[(f, number_state(0)), (1 - f, number_state(1))],
        env=EnvironmentMixture(0.0),
        couplings=Couplings(1.0, 0.0),
        grid=grid,
    )
    return oracle_entropy_series(config).values


@pytest.mark.parametrize("f", [0.0, 0.3, 0.5, 1.0])
def test_mixture_entropy_matches_two_term_ensemble(f):
    grid = TimeGrid(0.0, 30.0, 3001)
    closed = jc_mixture_entropy(f, 1.0, grid.times())
    assert np.max(np.abs(closed - _mixture_oracle(f, grid))) <= 1e-10


def test_mixture_revival_minimum_positive_and_pipeline_agreed():
    grid = TimeGrid(0.0, 40.0, 8001)
    t = grid.times()
    closed = jc_mixture_entropy(0.5, 1.0, t)
    checked = _mixture_oracle(0.5, grid)
    interior = (closed[1:-1] < closed[:-2]) & (closed[1:-1] < closed[2:])
    idx = np.nonzero(interior)[0] + 1
    idx = idx[t[idx] > 5.0]
    assert idx.size > 0
    k = idx[np.argmin(closed[idx])]
    assert closed[k] > 0.0  # no exact return to purity
    assert abs(closed[k] - checked[k]) <= 1e-8
