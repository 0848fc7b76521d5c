import ast
import itertools
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tcsim
from conftest import basis_vector, full_index, line_shares, zeta_lines
from tcsim import oracle
from tcsim.analysis import time_average
from tcsim.errors import EigendecompositionError, TruncationError, ValidationError
from tcsim.jc import jc_mixture_entropy, jc_number_entropy
from tcsim.oracle import (
    Propagator,
    build_hamiltonian,
    excitation_block,
    initial_density,
    oracle_entropy_series,
    purity,
    reduce_qubit1,
    total_excitation,
)
from tcsim.states import (
    Couplings,
    EnvironmentMixture,
    FockDistribution,
    SystemConfig,
    TimeGrid,
    binomial_state,
    number_state,
    required_n_max,
)
from tcsim.scenario import PRESET_IDS, preset
from tcsim.tc import entropy_series, spectral_params


def _config(dist, p, l1=1.0, l2=0.1, grid=None):
    return SystemConfig(
        oscillator=dist,
        env=EnvironmentMixture(p),
        couplings=Couplings(l1, l2),
        grid=grid or TimeGrid(0.0, 30.0, 3001),
    )


# ------------------------------------------------------------- Hamiltonian


def _random_couplings(rng):
    return Couplings(float(rng.uniform(0.1, 2)), float(rng.uniform(0, 2)))


def test_hamiltonian_vanishes_without_couplings():
    assert np.array_equal(build_hamiltonian(Couplings(0.0, 0.0), n_max=4), np.zeros((20, 20)))


def test_hamiltonian_takes_exactly_one_of_n_max_and_excitations():
    with pytest.raises(TypeError, match="exactly one of n_max and excitations, got n_max = None"):
        build_hamiltonian(Couplings(1.0, 0.1))
    with pytest.raises(TypeError, match="exactly one of n_max and excitations, got n_max = 3"):
        build_hamiltonian(Couplings(1.0, 0.1), n_max=3, excitations=[1, 2])


def test_hamiltonian_is_hermitian(rng):
    for _ in range(5):
        h = build_hamiltonian(_random_couplings(rng), float(rng.uniform(0, 4)),
                              n_max=int(rng.integers(2, 8)))
        assert np.max(np.abs(h - h.conj().T)) == 0.0


def _reference_hamiltonian(couplings, omega, n_max):
    # the definition written out with kron embeddings and matrix products
    no = n_max + 1
    a = np.diag(np.sqrt(np.arange(1.0, no)), 1)
    sz = np.diag([-1.0, 1.0])
    sp = np.array([[0.0, 0.0], [1.0, 0.0]])

    def on(slot, op):
        factors = [np.eye(2), np.eye(2), np.eye(no)]
        factors[slot] = op
        return np.kron(factors[0], np.kron(factors[1], factors[2]))

    h = omega * on(2, a.T @ a) + 0.5 * omega * (on(0, sz) + on(1, sz))
    for lam, slot in ((couplings.lambda1, 0), (couplings.lambda2, 1)):
        h = h + lam * (on(2, a) @ on(slot, sp) + on(2, a.T) @ on(slot, sp).T)
    return h


def test_hamiltonian_matches_kron_product_definition(rng):
    for n_max in (0, 1, 4, 9):
        couplings, omega = _random_couplings(rng), float(rng.uniform(0, 4))
        h = build_hamiltonian(couplings, omega, n_max=n_max)
        assert h.shape == (4 * (n_max + 1), 4 * (n_max + 1))
        assert np.max(np.abs(h - _reference_hamiltonian(couplings, omega, n_max))) <= 1e-12


def test_hamiltonian_blocks_are_gathers_of_the_dense_matrix(rng):
    # slots |e1 e2 k-2>, |e1 g2 k-1>, |g1 e2 k-1>, |g1 g2 k> of the block of
    # total excitation k; a slot with a negative photon number is missing
    slots = ((1, 1, 2), (1, 0, 1), (0, 1, 1), (0, 0, 0))
    for _ in range(4):
        couplings, omega, n_max = _random_couplings(rng), float(rng.uniform(0, 4)), int(rng.integers(2, 8))
        dense = build_hamiltonian(couplings, omega, n_max=n_max)
        stack = build_hamiltonian(couplings, omega, excitations=np.arange(n_max + 1))
        assert stack.shape == (n_max + 1, 4, 4)
        for k, block in enumerate(stack):
            live, rows = zip(*[(slot, full_index(q1, q2, k - depth, n_max))
                               for slot, (q1, q2, depth) in enumerate(slots) if k >= depth])
            expected = np.zeros((4, 4))
            expected[np.ix_(live, live)] = dense[np.ix_(rows, rows)]
            assert np.array_equal(block, expected), (couplings, omega, n_max, k)


def test_hamiltonian_single_excitation_matrix_element():
    # <g1 e2 n+1| H |e1 e2 n> = lambda1 sqrt(n+1) when qubit2 is frozen
    h = build_hamiltonian(Couplings(1.4, 0.0), n_max=6)
    for n in (0, 1, 3):
        row = full_index(0, 1, n + 1, 6)
        col = full_index(1, 1, n, 6)
        assert h[row, col] == pytest.approx(1.4 * np.sqrt(n + 1), rel=1e-15)


def test_hamiltonian_conserves_total_excitation(rng):
    for _ in range(5):
        n_max = int(rng.integers(3, 9))
        h = build_hamiltonian(_random_couplings(rng), float(rng.uniform(0, 4)), n_max=n_max)
        n_op = total_excitation(n_max)
        comm = h @ n_op - n_op @ h
        assert np.max(np.abs(comm)) <= 1e-12


@pytest.mark.parametrize("dense", [False, True])
def test_hamiltonian_entries_beyond_double_precision_are_a_validation_error(dense):
    # lambda1 sqrt(m + 1) overflows from m = 3, which |3> reaches; no numpy
    # RuntimeWarning may escape on the way (pyproject's filterwarnings makes it an error)
    config = _config(number_state(3), 0.5, l1=1e308, grid=TimeGrid(0.0, 1.0, 11))
    with pytest.raises(ValidationError, match=re.escape("omega = 0.0, lambda1 = 1e+308, lambda2 = 0.1")):
        oracle_entropy_series(config, dense=dense)


@pytest.mark.parametrize("dense", [False, True])
@pytest.mark.parametrize("omega", [math.nan, math.inf])
def test_non_finite_omega_is_a_validation_error_naming_it(omega, dense):
    config = _config(number_state(1), 0.5, grid=TimeGrid(0.0, 1.0, 11))
    with pytest.raises(ValidationError, match=rf"^omega = {omega!r}, .* are not finite"):
        oracle_entropy_series(config, omega=omega, dense=dense)


@pytest.mark.parametrize("dense", [False, True])
def test_phases_beyond_double_precision_are_a_validation_error_on_both_paths(dense):
    # E * t passes series.PHASE_LIMIT at the grid's first time; unchecked, the
    # dense path returned entropies that carry no significant digit
    config = _config(number_state(1), 0.5, grid=TimeGrid(3e15, 3e15 + 1000.0, 5))
    with pytest.raises(ValidationError, match="^oracle eigenvalue: .* is beyond double precision"):
        oracle_entropy_series(config, dense=dense)


def test_excitation_block_spectrum_is_symmetric():
    couplings = Couplings(1.0, 0.3)
    for n in (0, 2, 4):
        eigenvalues = np.linalg.eigvalsh(excitation_block(couplings, n))
        assert np.allclose(np.sort(eigenvalues), -np.sort(-eigenvalues)[::-1], atol=1e-12)
    with pytest.raises(ValidationError, match="block n must be a non-negative integer, got -1"):
        excitation_block(couplings, -1)


# ------------------------------------------------------------ initial state


def test_initial_density_pure_environment_is_rank_one():
    rho = initial_density(_config(number_state(1), 0.0), n_max=3)
    eigenvalues = np.linalg.eigvalsh(rho)
    assert eigenvalues[-1] == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(eigenvalues[:-1])) <= 1e-14
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)


def test_initial_density_maximally_mixed_environment():
    n_max = 3
    rho = initial_density(_config(number_state(1), 0.5), n_max=n_max)
    expected = np.zeros_like(rho)
    for q2, weight in ((1, 0.5), (0, 0.5)):
        idx = full_index(1, q2, 1, n_max)
        expected[idx, idx] = weight
    assert np.max(np.abs(rho - expected)) == 0.0


def test_initial_density_supports_vacuum_one_photon_mixture():
    n_max = 3
    mixed = _config([(0.3, number_state(0)), (0.7, number_state(1))], 0.0)
    rho = initial_density(mixed, n_max=n_max)
    diag = np.diag(rho).real
    assert diag[full_index(1, 0, 0, n_max)] == pytest.approx(0.3)
    assert diag[full_index(1, 0, 1, n_max)] == pytest.approx(0.7)
    binomial = initial_density(_config(binomial_state(4, 0.5), 0.25), n_max=6)
    for rho in (rho, binomial):
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
        evs = np.linalg.eigvalsh(rho)
        assert evs.min() >= -1e-12


def test_truncation_guard():
    assert required_n_max(1) == 3
    with pytest.raises(TruncationError):
        initial_density(_config(number_state(1), 0.5), n_max=2)


# ------------------------------------------------------------------ evolve


def test_evolve_identity_cases():
    config = _config(number_state(1), 0.5)
    rho0 = initial_density(config, n_max=3)
    h = build_hamiltonian(config.couplings, n_max=3)
    assert np.max(np.abs(Propagator(h).evolve_density(rho0, 0.0) - rho0)) <= 1e-14
    assert np.max(np.abs(Propagator(np.zeros_like(h)).evolve_density(rho0, 7.3) - rho0)) <= 1e-14


def test_evolve_preserves_density_matrix_structure():
    config = _config(binomial_state(3, 0.6), 0.25, l2=0.7)
    rho0 = initial_density(config, n_max=5)
    h = build_hamiltonian(config.couplings, n_max=5)
    prop = Propagator(h)
    spectrum0 = np.linalg.eigvalsh(rho0)
    for t in (0.7, 4.2, 19.0):
        rho_t = prop.evolve_density(rho0, t)
        assert abs(np.trace(rho_t).real - 1.0) <= 1e-10
        assert np.max(np.abs(rho_t - rho_t.conj().T)) <= 1e-10
        assert np.max(np.abs(np.linalg.eigvalsh(rho_t) - spectrum0)) <= 1e-10
        assert abs(purity(rho_t) - purity(rho0)) <= 1e-10


def test_propagator_rejects_non_hermitian():
    with pytest.raises(EigendecompositionError):
        Propagator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # the check runs per block: a large Hermitian block does not excuse a
    # small asymmetric one
    stack = np.array([[[1e6, 0.0], [0.0, 1e6]], [[0.0, 1e-6], [0.0, 0.0]]])
    with pytest.raises(EigendecompositionError):
        Propagator(stack)
    with pytest.raises(EigendecompositionError):
        Propagator(np.ones((2, 3)))


def test_propagator_evolves_a_stack_like_each_matrix(rng):
    stack = rng.normal(size=(3, 4, 4))
    stack = stack + stack.swapaxes(-1, -2)
    psi0 = rng.normal(size=(2, 3, 4)) + 1j * rng.normal(size=(2, 3, 4))
    times = np.linspace(0.0, 5.0, 7)
    evolved = Propagator(stack).evolve_state(psi0, times)
    assert evolved.shape == (2, 3, 4, 7)
    for c, k in itertools.product(range(2), range(3)):
        single = Propagator(stack[k]).evolve_state(psi0[c, k], times)
        assert np.max(np.abs(evolved[c, k] - single)) <= 1e-13


def test_propagator_evolves_complex_hermitian_matrices_like_the_unitary(rng):
    # the eigenvectors of a complex Hermitian stack are complex, and one
    # complex product applies them
    stack = rng.normal(size=(3, 5, 5)) + 1j * rng.normal(size=(3, 5, 5))
    stack = stack + stack.conj().swapaxes(-1, -2)
    psi0 = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    times = np.linspace(0.0, 5.0, 6)
    prop = Propagator(stack)
    evolved = prop.evolve_state(psi0, times)
    for i, t in enumerate(times):
        expected = (prop.unitary(t) @ psi0[..., None])[..., 0]
        assert np.max(np.abs(evolved[..., i] - expected)) <= 1e-13


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_propagator_names_a_time_that_is_not_finite(t):
    prop = Propagator(excitation_block(Couplings(1.0, 0.3), 1))
    with pytest.raises(ValidationError, match=f"t = {t!r} is not finite"):
        prop.evolve_state(np.eye(4)[1], [0.0, t])


@pytest.mark.parametrize("omega", [0.0, 0.7])
def test_propagator_of_the_block_stack_has_real_eigenvectors(omega):
    # the default path of oracle_entropy_series takes its traced observables
    # and its densities as real products of these eigenvectors
    prop = Propagator(build_hamiltonian(Couplings(1.0, 0.3), omega, excitations=np.arange(1, 12)))
    assert prop.eigenvectors.dtype == np.float64
    assert prop.eigenvalues.dtype == np.float64


# ------------------------------------------------------------ partial trace


def test_reduce_qubit1_of_product_state():
    qubit = np.array([[0.25, 0.1 + 0.2j], [0.1 - 0.2j, 0.75]])
    rest = np.diag([0.5, 0.2, 0.3, 0.0, 0.0, 0.0]).astype(complex)
    rho = np.kron(qubit, rest)
    assert np.max(np.abs(reduce_qubit1(rho) - qubit)) <= 1e-14


def test_reduce_qubit1_of_maximally_entangled_state():
    # (|e1, g2, 0> + |g1, g2, 1>) / sqrt(2) with n_max = 1
    n_max = 1
    vec = (basis_vector(1, 0, 0, n_max) + basis_vector(0, 0, 1, n_max)) / np.sqrt(2)
    rho = np.outer(vec, vec.conj())
    assert np.max(np.abs(reduce_qubit1(rho) - 0.5 * np.eye(2))) <= 1e-14


def test_reduce_qubit1_shape_check():
    with pytest.raises(ValidationError):
        reduce_qubit1(np.eye(6))


# ----------------------------------------------------------- entropy series


def test_series_single_branch_limit():
    config = _config(number_state(0), 0.0, l2=0.0, grid=TimeGrid(0.0, 20.0, 2001))
    series = oracle_entropy_series(config)
    expected = jc_number_entropy(0, 1.0, series.times)
    assert np.max(np.abs(series.values - expected)) <= 1e-10


def test_series_invariant_under_common_resonant_frequency():
    config = _config(number_state(1), 0.5, grid=TimeGrid(0.0, 30.0, 1501))
    reference = None
    for omega in (0.0, 1.0, 5.0):
        series = oracle_entropy_series(config, omega=omega)
        if reference is None:
            reference = series.values
        else:
            assert np.max(np.abs(series.values - reference)) <= 1e-10


def test_series_two_term_vacuum_one_photon_mixture_matches_closed_form():
    mixed = [(0.5, number_state(0)), (0.5, number_state(1))]
    config = _config(mixed, 0.0, l1=1.0, l2=0.0, grid=TimeGrid(0.0, 30.0, 1501))
    series = oracle_entropy_series(config)
    expected = jc_mixture_entropy(0.5, 1.0, series.times)
    assert np.max(np.abs(series.values - expected)) <= 1e-10


def test_series_dense_path_matches_component_path():
    config = _config(binomial_state(3, 0.4), 0.3, l2=0.4, grid=TimeGrid(0.0, 10.0, 101))
    fast = oracle_entropy_series(config)
    dense = oracle_entropy_series(config, dense=True)
    assert np.max(np.abs(fast.values - dense.values)) <= 1e-12


_PREPARATIONS = {
    "binomial": binomial_state(3, 0.4),
    "vacuum-one-photon": [(0.3, number_state(0)), (0.7, number_state(1))],
    "vacuum": number_state(0),
    "gapped-custom": FockDistribution(np.array([0.6, 0.0, 0.0, 0.0, 0.0, 0.8])),
    # the components' blocks do not touch, so each component is zero in the
    # other's blocks and the pairs across them sum to an exact 0
    "gapped-mixture": [(0.5, number_state(0)), (0.5, number_state(4))],
}


@pytest.mark.parametrize("name", sorted(_PREPARATIONS))
def test_series_block_path_matches_dense_path(name):
    # |0> with p = 0 populates only the edge block k = 1; the gapped custom
    # state populates blocks that are not contiguous
    for p, omega, l2 in itertools.product((0.0, 0.37, 1.0), (0.0, 0.7), (0.0, 0.3)):
        config = _config(_PREPARATIONS[name], p, l2=l2, grid=TimeGrid(0.0, 30.0, 151))
        fast = oracle_entropy_series(config, omega=omega)
        dense = oracle_entropy_series(config, omega=omega, dense=True)
        assert np.max(np.abs(fast.values - dense.values)) <= 1e-12, (p, omega, l2)


@pytest.mark.parametrize("name", sorted(_PREPARATIONS))
def test_series_matches_dense_evolution_at_and_past_the_exact_truncation(name):
    # support + 2 levels are exact: evolving the full density matrix by hand
    # on them, and on three levels more, gives the series
    grid = TimeGrid(0.0, 30.0, 151)
    for p in (0.0, 0.37, 1.0):
        config = _config(_PREPARATIONS[name], p, l2=0.3, grid=grid)
        support = max(dist.cutoff for _, dist in config.oscillator)
        series = oracle_entropy_series(config).values
        for n_max in (required_n_max(support), required_n_max(support) + 3):
            prop = Propagator(build_hamiltonian(config.couplings, n_max=n_max))
            rho0 = initial_density(config, n_max)
            by_hand = [1.0 - purity(reduce_qubit1(prop.evolve_density(rho0, t))) for t in grid.times()]
            assert np.max(np.abs(series - by_hand)) <= 1e-12, (p, n_max)


def test_series_takes_omega_by_keyword_only():
    # the couplings come from the SystemConfig, so neither a second copy of
    # them nor omega can be passed by position
    config = _config(number_state(1), 0.5, grid=TimeGrid(0.0, 30.0, 11))
    with pytest.raises(TypeError):
        oracle_entropy_series(config, config.couplings)
    with pytest.raises(TypeError):
        oracle_entropy_series(config, 0.7)


@pytest.mark.parametrize("name", sorted(_PREPARATIONS))
def test_series_is_independent_of_the_time_chunk(monkeypatch, name):
    # every point is a point of the first chunk moved by a chunk start, and
    # every panel of phases meets its tile's densities in one product, at
    # whatever tile and group sizes the budget gives; the grid starts away
    # from t = 0
    grid = TimeGrid(2.5, 32.5, 151)
    panels = []
    matmul = np.matmul

    def recording_matmul(x, y, **kwargs):
        if x.ndim == 2 and y.shape[-1] == chunk:  # the products of rho_ee
            panels.append((x.shape[0], x.shape[1] // 12))
        return matmul(x, y, **kwargs)

    monkeypatch.setattr(np, "matmul", recording_matmul)
    for p, omega in itertools.product((0.0, 0.37, 1.0), (0.0, 0.7)):
        config = _config(_PREPARATIONS[name], p, l2=0.3, grid=grid)
        ks, psi0 = oracle._initial_blocks(config)
        monkeypatch.setattr(oracle, "_CHUNK_ENTRIES", grid.n_points * psi0.size)
        chunk = 0
        whole = oracle_entropy_series(config, omega=omega).values
        dense = oracle_entropy_series(config, omega=omega, dense=True).values
        # about sqrt(151) points a chunk, whatever the budget
        chunk = math.isqrt(grid.n_points - 1) + 1
        starts = -(-grid.n_points // chunk)
        span = math.isqrt(starts - 1) + 1
        for entries in (1, 7, grid.n_points + 50):
            monkeypatch.setattr(oracle, "_CHUNK_ENTRIES", entries * psi0.size)
            panels.clear()
            chunked = oracle_entropy_series(config, omega=omega).values
            # the panels hold every chunk start of every block once
            assert sum(g * k for g, k in panels) == span * -(-starts // span) * ks.size
            assert np.max(np.abs(chunked - whole)) <= 1e-13, (p, omega, entries)
            assert np.max(np.abs(chunked - dense)) <= 1e-12, (p, omega, entries)


@pytest.mark.parametrize(
    "dist, p, shape, spans",
    [
        # |e1 e2 1> in block 3 and |e1 g2 1> in block 2
        (number_state(1), 0.5, (2, 2, 4), [(3, 3), (2, 2)]),
        (number_state(1), 0.0, (1, 1, 4), [(2, 2)]),
        (number_state(1), 1.0, (1, 1, 4), [(3, 3)]),
        # blocks 2..402 and 1..401
        (binomial_state(400, 0.4), 0.37, (2, 402, 4), [(2, 402), (1, 401)]),
    ],
)
def test_series_starts_from_one_stack_of_the_components(dist, p, shape, spans):
    ks, psi0 = oracle._initial_blocks(_config(dist, p))
    assert psi0.shape == shape
    # every block a component spans is built once, whichever components share it
    assert np.array_equal(ks, np.unique(np.concatenate([np.arange(lo, hi + 1) for lo, hi in spans])))
    # each component is zero outside the blocks it spans
    for component, (lo, hi) in zip(psi0, spans):
        outside = (ks < lo) | (ks > hi)
        assert np.any(component[~outside])
        assert not np.any(component[outside])


def test_series_evolves_each_component_once_to_the_first_time_with_the_propagator(monkeypatch):
    # |1> at 0 < p < 1: the (2, 2, 4) stack of both components on blocks 2
    # and 3, evolved in one call, to the grid's first time
    calls = []
    evolve_state = Propagator.evolve_state

    def recording_evolve_state(self, psi0, times):
        calls.append((self.eigenvectors.shape, psi0.shape, list(times)))
        return evolve_state(self, psi0, times)

    monkeypatch.setattr(Propagator, "evolve_state", recording_evolve_state)
    config = _config(number_state(1), 0.5, grid=TimeGrid(2.5, 32.5, 151))
    oracle_entropy_series(config)
    assert calls == [((2, 4, 4), (2, 2, 4), [2.5])]


@pytest.mark.parametrize(
    "dist, grid",
    [(binomial_state(400, 0.4), TimeGrid(0.0, 30.0, 3001)), (number_state(1), TimeGrid(0.0, 2500.0, 250_001))],
)
def test_series_keeps_every_product_off_the_blas_threads(monkeypatch, dist, grid):
    # OpenBLAS hands a product of 2**20 multiply-adds or more to its threads,
    # which costs far more than it saves on products this thin; the default
    # path's products are its np.matmul calls and the complex product that
    # Propagator.evolve_state makes of each block's eigenvectors
    sizes = []
    matmul, evolve_state = np.matmul, Propagator.evolve_state

    def recording_matmul(x, y, **kwargs):
        sizes.append(x.shape[-2] * x.shape[-1] * y.shape[-1])
        return matmul(x, y, **kwargs)

    def recording_evolve_state(self, psi0, times):
        d = self.eigenvectors.shape[-1]
        sizes.append(4 * d * d * len(times))  # (d, d) x (d, times) complex
        return evolve_state(self, psi0, times)

    monkeypatch.setattr(np, "matmul", recording_matmul)
    monkeypatch.setattr(Propagator, "evolve_state", recording_evolve_state)
    oracle_entropy_series(_config(dist, 0.37, grid=grid))
    assert len(sizes) > 4
    assert max(sizes) < 2**20


def test_series_memory_stays_bounded_on_a_long_grid():
    # p = 0 and p = 1 leave one component, so one row per point
    points = 100_001
    for p in (0.0, 0.5, 1.0):
        config = _config(number_state(1), p, grid=TimeGrid(0.0, 1000.0, points))
        tracemalloc.start()
        try:
            oracle_entropy_series(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a few grid arrays (times, zeta and the checks of TimeSeries) and a
        # fixed number of chunk-sized arrays; the block states of every time at
        # once would take 32 grid arrays more
        assert peak <= 6 * 8 * points + 8 * 2**20, p


def test_series_block_path_memory_stays_bounded_on_a_wide_support():
    # binomial M=400 on 3001 points: K = 402 blocks, 2 components, a first
    # chunk of 55 points; the weighted densities at the first time and one
    # tile's densities and phases are alive at once, next to a few grid arrays
    config = _config(binomial_state(400, 0.5), 0.37)
    tracemalloc.start()
    try:
        oracle_entropy_series(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_series_block_path_scales_to_a_binomial_support_of_2000(monkeypatch):
    support = 2000
    config = _config(binomial_state(support, 0.5), 0.37, l2=0.3, grid=TimeGrid(0.0, 30.0, 201))
    n_max = required_n_max(support)
    sizes = []
    eigh = np.linalg.eigh

    def recording_eigh(h):
        sizes.append(h.shape[-1])
        return eigh(h)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    series = oracle_entropy_series(config)
    closed = entropy_series(config)
    assert np.max(np.abs(series.values - closed.values)) <= 1e-10
    assert sizes and max(sizes) <= 4
    # Building every block allocates less than one (n_max + 1)-square
    # matrix, so no oscillator-sized product such as a+a is ever formed.
    tracemalloc.start()
    try:
        build_hamiltonian(config.couplings, excitations=np.arange(2, support + 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (n_max + 1) ** 2


def test_block_path_passes_where_only_the_dense_diagonal_would_overflow():
    # a dense diagonal of omega (n_max + 1) would overflow on 10**18 levels,
    # but the blocks that |1> populates hold at most 3 omega, so an omega
    # this large keeps every entry finite
    config = _config(number_state(1), 0.5, grid=TimeGrid(0.0, 1e-300, 11))
    series = oracle_entropy_series(config, omega=1e291)
    assert np.max(np.abs(series.values - entropy_series(config).values)) <= 1e-8


# ------------------------------------------------------------ line spectrum

_LINE_PREPARATIONS = {
    "one-photon": number_state(1),
    "binomial-11": binomial_state(11, 0.95),
    "binomial-8": binomial_state(8, 0.5),
    "mixture": [(0.3, binomial_state(6, 0.3)), (0.7, number_state(2))],
}


@pytest.mark.parametrize("name", sorted(_LINE_PREPARATIONS))
def test_lines_rebuild_the_series(name):
    # zeta(t) = sum_w Z_w exp(-iwt), real because Z_-w = Z_w
    grid = TimeGrid(0.0, 30.0, 301)
    for p, l2 in itertools.product((0.0, 0.37, 1.0), (0.0, 0.1, 1.0, 1.7)):
        config = _config(_LINE_PREPARATIONS[name], p, l2=l2, grid=grid)
        freq, amp = zeta_lines(config)
        rebuilt = np.array([amp @ np.cos(freq * t) for t in grid.times()])
        assert np.max(np.abs(rebuilt - oracle_entropy_series(config).values)) <= 1e-12, (p, l2)


def test_coherence_lines_turn_with_the_common_frequency():
    # omega shifts block k by omega (k - 1): rho_ee's lines stay, and
    # rho_eg = <e|rho|g> turns as exp(-i omega t) on top of its own lines
    config = _config(binomial_state(8, 0.5), 0.37, l2=0.3)
    (fa, a), (fb, b) = oracle._lines(config)
    (fa7, a7), (fb7, b7) = oracle._lines(config, omega=0.7)
    assert fa7.size == fa.size and fb7.size == fb.size > 0
    assert np.max(np.abs(fa7 - fa)) <= 1e-12 and np.max(np.abs(fb7 - 0.7 - fb)) <= 1e-12
    assert np.max(np.abs(a7 - a)) <= 1e-12 and np.max(np.abs(b7 - b)) <= 1e-12


def test_rho_ee_lines_of_one_photon_are_differences_of_block_frequencies():
    # |e1 e2 1> lives in block 1 and |e1 g2 1> in block 0 (n = k - 2), whose
    # eigenvalues are +-d_plus and +-d_minus
    couplings = Couplings(1.0, 0.1)
    allowed = []
    for n in (0, 1):
        sp = spectral_params(n, couplings)
        energies = np.array([-sp.d_plus, -sp.d_minus, sp.d_minus, sp.d_plus])
        allowed.append(np.subtract.outer(energies, energies).ravel())
    allowed = np.concatenate(allowed)
    for p, count in ((0.0, 9), (0.1, 17), (0.5, 17), (1.0, 9)):
        (freq, _), (eg, _) = oracle._lines(_config(number_state(1), p))
        assert freq.size == count and eg.size == 0  # a number state has no coherence
        assert np.max(np.min(np.abs(freq[:, None] - allowed), axis=1)) <= 1e-12


@pytest.mark.parametrize("p, l2", [(0.0, 0.1), (0.1, 0.1), (0.5, 0.1), (1.0, 0.1), (0.5, 1.0)])
def test_line_average_is_the_long_time_average(p, l2):
    # <zeta> = 2 A_0 - 2 sum |A_w|^2 - 2 sum |B_w|^2 is zeta's line at w = 0;
    # the closed form's averages over [0, T] approach it, within 3.8e-4 at
    # T = 1e3 and 2.9e-5 at T = 1e4.  At l1 = l2 each block's d_minus pair is
    # degenerate: grouping only equal frequencies reads 0.410, not 0.379.
    config = _config(number_state(1), p, l2=l2)
    (fa, a), (_, b) = oracle._lines(config)
    freq, amp = zeta_lines(config)
    average = amp[freq == 0.0][0]
    assert abs(2.0 * a[fa == 0.0][0] - 2.0 * np.sum(a**2) - 2.0 * np.sum(b**2) - average) <= 1e-14
    for t_end in (1e3, 1e4):
        series = entropy_series(replace(config, grid=TimeGrid(0.0, t_end, int(20 * t_end) + 1)))
        assert abs(time_average(series, (0.0, t_end)) - average) <= 0.5 / t_end


def test_line_average_of_a_decoupled_environment_is_one_quarter():
    # at lambda2 = 0, |n> gives zeta = sin^2(2 sqrt(n + 1) t) / 2 at every p:
    # rho_ee has the lines 1/4, 1/2, 1/4 at -2 sqrt(n + 1), 0, 2 sqrt(n + 1)
    for n, p in itertools.product((0, 1, 5), (0.0, 0.37, 1.0)):
        config = _config(number_state(n), p, l2=0.0)
        (fa, a), (fb, _) = oracle._lines(config)
        w = 2.0 * math.sqrt(n + 1)
        assert fb.size == 0 and np.max(np.abs(fa - [-w, 0.0, w])) <= 1e-14
        assert np.max(np.abs(a - [0.25, 0.5, 0.25])) <= 1e-15
        freq, amp = zeta_lines(config)
        assert abs(amp[freq == 0.0][0] - 0.25) <= 4 * np.finfo(float).eps


# ------------------------------------------------- weak-environment limit

# "Weak-environment limit" in RESOLVED_EQUATIONS.md: as lambda2 -> 0+ the two
# environment branches dephase, and <zeta> tends to (1 - 2 p (1 - p)) Z_JC +
# p (1 - p), with Z_JC its value at lambda2 = 0

_WEAK_CASES = [(number_state(n), (0.0, 0.25, 0.5, 1.0)) for n in (0, 1, 2, 5)] + [
    (_LINE_PREPARATIONS[name], (0.1, 0.37, 0.5)) for name in ("binomial-11", "binomial-8", "mixture")
]


def _line_average(config) -> float:
    freq, amp = zeta_lines(config)
    return float(amp[freq == 0.0][0])


def test_weak_environment_law():
    # |error| / (lambda2 / lambda1)^2 reads at most 452 (binomial(11, 0.95)
    # at p = 0.1) and the same at both ratios: the error is second order
    for case, (dist, ps) in enumerate(_WEAK_CASES):
        for p in ps:
            z_jc = _line_average(_config(dist, p, l2=0.0))
            law = (1.0 - 2.0 * p * (1.0 - p)) * z_jc + p * (1.0 - p)
            for ratio in (1e-3, 1e-4):
                error = abs(_line_average(_config(dist, p, l2=ratio)) - law)
                assert error <= 1000.0 * ratio**2, (case, p, ratio, error / ratio**2)


def test_decoupled_environment_average_does_not_depend_on_p():
    # at lambda2 = 0 both branches drive qubit 1 alike: every p reads the same bits
    cases = [(number_state(n), 0.25) for n in (0, 1, 2, 5)] + [
        (binomial_state(11, 0.95), 0.28155538707), (binomial_state(8, 0.5), 0.36362457275)]
    for dist, z_jc in cases:
        averages = {_line_average(_config(dist, p, l2=0.0)) for p in (0.0, 0.37, 1.0)}
        assert len(averages) == 1 and abs(averages.pop() - z_jc) <= 1e-11, dist.cutoff


def test_slow_line_sits_at_the_second_order_branch_splitting():
    # at p = 1/2 the slowest line of |n> with >= 1% share is the beat of the two
    # branches, 8 (n + 1)^(3/2) lambda2^2 / lambda1; the next order moves it by
    # at most 147 (lambda2 / lambda1)^2 relative (n = 5, at every lambda1)
    l2 = 1e-3
    for l1, n in itertools.product((0.5, 1.0, 2.0), (0, 1, 2, 5)):
        freq, amp = zeta_lines(_config(number_state(n), 0.5, l1=l1, l2=l2))
        slow = np.min(np.abs(freq[line_shares(freq, amp) >= 0.01]))
        law = 8.0 * (n + 1) ** 1.5 * l2**2 / l1
        assert abs(slow / law - 1.0) <= 300.0 * (l2 / l1) ** 2, (l1, n, slow / law - 1.0)


def test_slow_line_below_the_grouping_tolerance_merges_into_the_average():
    # a negative control of the line grouping, not a defect: |1> at p = 1/2
    # reads the law's 0.375 while its slow line stands clear of 64 eps max|E|,
    # and Z_JC = 1/4 once the line falls inside it and joins w = 0
    tol = 64.0 * np.finfo(float).eps * spectral_params(1, Couplings(1.0, 0.0)).d_plus
    for l2, average in ((1e-7, 0.375), (3e-8, 0.25)):
        assert (8.0 * 2.0**1.5 * l2**2 > tol) == (average == 0.375)
        assert abs(_line_average(_config(number_state(1), 0.5, l2=l2)) - average) <= 1e-12


def test_preset_grids_sample_zetas_fastest_line():
    # samples per period of zeta's fastest line, over every line and over the
    # lines at >= 1% of the largest, as the comment on scenario._PRESETS
    # states them; a report of the grids, not a bound on them
    measured = {}
    for preset_id in PRESET_IDS:
        sc = preset(preset_id)
        freq, amp = zeta_lines(sc.system_config(), sc.oracle_omega)
        step = (sc.grid.t_end - sc.grid.t_start) / (sc.grid.n_points - 1)
        strong = freq[line_shares(freq, amp) >= 0.01]
        fastest = (float(np.max(np.abs(f))) for f in (freq, strong))
        measured[preset_id] = tuple(round(2.0 * math.pi / (w * step), 1) for w in fastest)
    print(measured)
    assert measured == {
        "1": (111.1, 111.1), "2a": (108.6, 108.6), "2b": (87.4, 96.8), "2c": (87.4, 87.4),
        "3": (87.4, 87.4), "4": (15.6, 37.6), "5": (55.5, 55.5), "6": (40.3, 42.3),
    }


_PACKAGE = Path(tcsim.__file__).parent


def _imported_submodules(name: str) -> set[str]:
    """Bare names of the tcsim modules that ``tcsim.<name>`` imports."""
    tree = ast.parse((_PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["tcsim" if node.level else None, node.module]))
            dotted = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(d.split(".")[1] for d in dotted if d.startswith("tcsim."))
    return found & {path.stem for path in _PACKAGE.glob("*.py")}


@pytest.mark.parametrize("pipeline", ["oracle", "tc", "jc"])
def test_pipeline_reaches_no_other_pipeline(pipeline):
    # the cross-check is independent only if no module the oracle imports,
    # directly or through another tcsim module, holds a closed-form formula;
    # each closed form, likewise, sits on the base modules alone
    reached, todo = set(), [pipeline]
    while todo:
        for name in _imported_submodules(todo.pop()) - reached:
            reached.add(name)
            todo.append(name)
    assert "series" in reached
    assert reached <= {"errors", "series", "states"}, sorted(reached)
