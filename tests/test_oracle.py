import ast
import itertools
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tcsim
from conftest import basis_vector, full_index
from tcsim import oracle
from tcsim.errors import EigendecompositionError, TruncationError, ValidationError
from tcsim.jc import jc_mixture_entropy, jc_number_entropy
from tcsim.oracle import (
    OracleConfig,
    Propagator,
    build_hamiltonian,
    excitation_block,
    initial_density,
    oracle_entropy_series,
    purity,
    reduce_qubit1,
    required_n_max,
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
)
from tcsim.tc import entropy_series


def _config(dist, p, l1=1.0, l2=0.1, grid=None):
    return SystemConfig(
        oscillator=dist,
        env=EnvironmentMixture(p),
        couplings=Couplings(l1, l2),
        grid=grid or TimeGrid(0.0, 30.0, 3001),
    )


# ------------------------------------------------------------- Hamiltonian


def test_hamiltonian_vanishes_without_couplings():
    cfg = OracleConfig(n_max=4, couplings=Couplings(0.0, 0.0), omega=0.0)
    assert np.array_equal(build_hamiltonian(cfg), np.zeros((20, 20)))


def test_hamiltonian_is_hermitian(rng):
    for _ in range(5):
        cfg = OracleConfig(
            n_max=int(rng.integers(2, 8)),
            couplings=Couplings(float(rng.uniform(0.1, 2)), float(rng.uniform(0, 2))),
            omega=float(rng.uniform(0, 4)),
        )
        h = build_hamiltonian(cfg)
        assert np.max(np.abs(h - h.conj().T)) == 0.0


def _reference_hamiltonian(cfg):
    # the definition written out with kron embeddings and matrix products
    no = cfg.n_max + 1
    a = np.diag(np.sqrt(np.arange(1.0, no)), 1)
    sz = np.diag([-1.0, 1.0])
    sp = np.array([[0.0, 0.0], [1.0, 0.0]])

    def on(slot, op):
        factors = [np.eye(2), np.eye(2), np.eye(no)]
        factors[slot] = op
        return np.kron(factors[0], np.kron(factors[1], factors[2]))

    h = cfg.omega * on(2, a.T @ a) + 0.5 * cfg.omega * (on(0, sz) + on(1, sz))
    for lam, slot in ((cfg.couplings.lambda1, 0), (cfg.couplings.lambda2, 1)):
        h = h + lam * (on(2, a) @ on(slot, sp) + on(2, a.T) @ on(slot, sp).T)
    return h


def test_hamiltonian_matches_kron_product_definition(rng):
    for n_max in (0, 1, 4, 9):
        cfg = OracleConfig(
            n_max=n_max,
            couplings=Couplings(float(rng.uniform(0.1, 2)), float(rng.uniform(0, 2))),
            omega=float(rng.uniform(0, 4)),
        )
        h = build_hamiltonian(cfg)
        assert h.shape == (4 * (n_max + 1), 4 * (n_max + 1))
        assert np.max(np.abs(h - _reference_hamiltonian(cfg))) <= 1e-12


def test_hamiltonian_blocks_are_gathers_of_the_dense_matrix(rng):
    # slots |e1 e2 k-2>, |e1 g2 k-1>, |g1 e2 k-1>, |g1 g2 k> of the block of
    # total excitation k; a slot with a negative photon number is missing
    slots = ((1, 1, 2), (1, 0, 1), (0, 1, 1), (0, 0, 0))
    for _ in range(4):
        cfg = OracleConfig(
            n_max=int(rng.integers(2, 8)),
            couplings=Couplings(float(rng.uniform(0.1, 2)), float(rng.uniform(0, 2))),
            omega=float(rng.uniform(0, 4)),
        )
        dense = build_hamiltonian(cfg)
        stack = build_hamiltonian(cfg, np.arange(cfg.n_max + 1))
        assert stack.shape == (cfg.n_max + 1, 4, 4)
        for k, block in enumerate(stack):
            live, rows = zip(*[(slot, full_index(q1, q2, k - depth, cfg.n_max))
                               for slot, (q1, q2, depth) in enumerate(slots) if k >= depth])
            expected = np.zeros((4, 4))
            expected[np.ix_(live, live)] = dense[np.ix_(rows, rows)]
            assert np.array_equal(block, expected), (cfg, k)


def test_hamiltonian_single_excitation_matrix_element():
    # <g1 e2 n+1| H |e1 e2 n> = lambda1 sqrt(n+1) when qubit2 is frozen
    cfg = OracleConfig(n_max=6, couplings=Couplings(1.4, 0.0))
    h = build_hamiltonian(cfg)
    for n in (0, 1, 3):
        row = full_index(0, 1, n + 1, cfg.n_max)
        col = full_index(1, 1, n, cfg.n_max)
        assert h[row, col] == pytest.approx(1.4 * np.sqrt(n + 1), rel=1e-15)


def test_hamiltonian_conserves_total_excitation(rng):
    for _ in range(5):
        cfg = OracleConfig(
            n_max=int(rng.integers(3, 9)),
            couplings=Couplings(float(rng.uniform(0.1, 2)), float(rng.uniform(0, 2))),
            omega=float(rng.uniform(0, 4)),
        )
        h = build_hamiltonian(cfg)
        n_op = total_excitation(cfg)
        comm = h @ n_op - n_op @ h
        assert np.max(np.abs(comm)) <= 1e-12


@pytest.mark.parametrize("dense", [False, True])
def test_hamiltonian_entries_beyond_double_precision_are_a_validation_error(dense):
    # lambda1 sqrt(m + 1) overflows from m = 3, which |3> reaches; no numpy
    # RuntimeWarning may escape on the way (pyproject's filterwarnings makes it an error)
    config = _config(number_state(3), 0.5, l1=1e308, grid=TimeGrid(0.0, 1.0, 11))
    cfg = OracleConfig(n_max=required_n_max(3), couplings=config.couplings)
    with pytest.raises(ValidationError, match=re.escape("omega = 0.0, lambda1 = 1e+308, lambda2 = 0.1")):
        oracle_entropy_series(config, cfg, dense=dense)


def test_excitation_block_spectrum_is_symmetric():
    cfg = OracleConfig(n_max=6, couplings=Couplings(1.0, 0.3))
    for n in (0, 2, 4):
        eigenvalues = np.linalg.eigvalsh(excitation_block(cfg, n))
        assert np.allclose(np.sort(eigenvalues), -np.sort(-eigenvalues)[::-1], atol=1e-12)
    with pytest.raises(TruncationError):
        excitation_block(cfg, 5)


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
    config = _config(number_state(1), 0.5)
    with pytest.raises(TruncationError):
        oracle_entropy_series(config, OracleConfig(n_max=2, couplings=config.couplings))


# ------------------------------------------------------------------ evolve


def test_evolve_identity_cases():
    config = _config(number_state(1), 0.5)
    rho0 = initial_density(config, n_max=3)
    h = build_hamiltonian(OracleConfig(n_max=3, couplings=config.couplings))
    assert np.max(np.abs(Propagator(h).evolve_density(rho0, 0.0) - rho0)) <= 1e-14
    assert np.max(np.abs(Propagator(np.zeros_like(h)).evolve_density(rho0, 7.3) - rho0)) <= 1e-14


def test_evolve_preserves_density_matrix_structure():
    config = _config(binomial_state(3, 0.6), 0.25, l2=0.7)
    rho0 = initial_density(config, n_max=5)
    h = build_hamiltonian(OracleConfig(n_max=5, couplings=config.couplings))
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


def test_propagator_of_part_of_the_stack_evolves_like_the_stack(rng):
    stack = rng.normal(size=(4, 4, 4))
    stack = stack + stack.swapaxes(-1, -2)
    psi0 = rng.normal(size=(4, 4))
    times = np.linspace(0.0, 5.0, 7)
    prop = Propagator(stack)
    part = prop[1:3]
    assert np.shares_memory(part.eigenvectors, prop.eigenvectors)
    whole = prop.evolve_state(psi0, times)
    assert np.max(np.abs(part.evolve_state(psi0[1:3], times) - whole[1:3])) <= 1e-13


def test_propagator_evolves_complex_hermitian_matrices_like_the_unitary(rng):
    # complex eigenvectors act on the real and imaginary parts of the
    # coefficients as two real products
    stack = rng.normal(size=(3, 5, 5)) + 1j * rng.normal(size=(3, 5, 5))
    stack = stack + stack.conj().swapaxes(-1, -2)
    psi0 = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    times = np.linspace(0.0, 5.0, 6)
    prop = Propagator(stack)
    evolved = prop.evolve_state(psi0, times)
    for i, t in enumerate(times):
        expected = (prop.unitary(t) @ psi0[..., None])[..., 0]
        assert np.max(np.abs(evolved[..., i] - expected)) <= 1e-13


@pytest.mark.parametrize("omega", [0.0, 0.7])
def test_propagator_of_the_block_stack_has_real_eigenvectors(omega):
    # the default path of oracle_entropy_series moves its chunks on by a real
    # rotation built from these eigenvectors
    cfg = OracleConfig(n_max=12, couplings=Couplings(1.0, 0.3), omega=omega)
    prop = Propagator(build_hamiltonian(cfg, np.arange(1, 12)))
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
    series = oracle_entropy_series(config, OracleConfig(n_max=2, couplings=config.couplings))
    expected = jc_number_entropy(0, 1.0, series.times)
    assert np.max(np.abs(series.values - expected)) <= 1e-10


def test_series_invariant_under_common_resonant_frequency():
    config = _config(number_state(1), 0.5, grid=TimeGrid(0.0, 30.0, 1501))
    reference = None
    for omega in (0.0, 1.0, 5.0):
        cfg = OracleConfig(n_max=3, couplings=config.couplings, omega=omega)
        series = oracle_entropy_series(config, cfg)
        if reference is None:
            reference = series.values
        else:
            assert np.max(np.abs(series.values - reference)) <= 1e-10


def test_series_two_term_vacuum_one_photon_mixture_matches_closed_form():
    mixed = [(0.5, number_state(0)), (0.5, number_state(1))]
    config = _config(mixed, 0.0, l1=1.0, l2=0.0, grid=TimeGrid(0.0, 30.0, 1501))
    cfg = OracleConfig(n_max=3, couplings=config.couplings)
    series = oracle_entropy_series(config, cfg)
    expected = jc_mixture_entropy(0.5, 1.0, series.times)
    assert np.max(np.abs(series.values - expected)) <= 1e-10


def test_series_dense_path_matches_component_path():
    config = _config(binomial_state(3, 0.4), 0.3, l2=0.4, grid=TimeGrid(0.0, 10.0, 101))
    cfg = OracleConfig(n_max=5, couplings=config.couplings)
    fast = oracle_entropy_series(config, cfg)
    dense = oracle_entropy_series(config, cfg, dense=True)
    assert np.max(np.abs(fast.values - dense.values)) <= 1e-12


_PREPARATIONS = {
    "binomial": binomial_state(3, 0.4),
    "vacuum-one-photon": [(0.3, number_state(0)), (0.7, number_state(1))],
    "vacuum": number_state(0),
    "gapped-custom": FockDistribution(np.array([0.6, 0.0, 0.0, 0.0, 0.0, 0.8])),
    # the components' blocks do not touch, so only the zero row between
    # them keeps their rows from pairing
    "gapped-mixture": [(0.5, number_state(0)), (0.5, number_state(4))],
}


@pytest.mark.parametrize("name", sorted(_PREPARATIONS))
def test_series_block_path_matches_dense_path(name):
    # |0> with p = 0 populates only the edge block k = 1; the gapped custom
    # state populates blocks that are not contiguous
    for p, omega, extra, l2 in itertools.product((0.0, 0.37, 1.0), (0.0, 0.7), (0, 3), (0.0, 0.3)):
        config = _config(_PREPARATIONS[name], p, l2=l2, grid=TimeGrid(0.0, 30.0, 151))
        support = max(dist.cutoff for _, dist in config.oscillator)
        cfg = OracleConfig(n_max=required_n_max(support) + extra, couplings=config.couplings, omega=omega)
        fast = oracle_entropy_series(config, cfg)
        dense = oracle_entropy_series(config, cfg, dense=True)
        assert np.max(np.abs(fast.values - dense.values)) <= 1e-12, (p, omega, extra, l2)


@pytest.mark.parametrize("name", sorted(_PREPARATIONS))
def test_series_is_independent_of_the_time_chunk(monkeypatch, name):
    # every chunk, the first included, is the first one moved on by the
    # block rotation of U(times[s] - times[0]) and reduced once; the grid
    # starts away from t = 0
    grid = TimeGrid(2.5, 32.5, 151)
    reductions = []
    block_entropy = oracle._block_entropy

    def recording_block_entropy(parts):
        reductions.append(parts.shape)
        return block_entropy(parts)

    monkeypatch.setattr(oracle, "_block_entropy", recording_block_entropy)
    for p, omega in itertools.product((0.0, 0.37, 1.0), (0.0, 0.7)):
        config = _config(_PREPARATIONS[name], p, l2=0.3, grid=grid)
        support = max(dist.cutoff for _, dist in config.oscillator)
        cfg = OracleConfig(n_max=required_n_max(support), couplings=config.couplings, omega=omega)
        per_point = oracle._initial_blocks(config, cfg.n_max)[1].size
        monkeypatch.setattr(oracle, "_CHUNK_ENTRIES", grid.n_points * per_point)
        whole = oracle_entropy_series(config, cfg).values
        dense = oracle_entropy_series(config, cfg, dense=True).values
        for points in (1, 7, grid.n_points + 50):
            monkeypatch.setattr(oracle, "_CHUNK_ENTRIES", points * per_point)
            reductions.clear()
            chunked = oracle_entropy_series(config, cfg).values
            assert len(reductions) == -(-grid.n_points // points)
            assert np.max(np.abs(chunked - whole)) <= 1e-13, (p, omega, points)
            assert np.max(np.abs(chunked - dense)) <= 1e-12, (p, omega, points)


@pytest.mark.parametrize(
    "dist, p, rows",
    [
        # |e1 e2 1> in block 3 and |e1 g2 1> in block 2, one zero row between
        (number_state(1), 0.5, 2 + 1),
        (number_state(1), 0.0, 1),
        (number_state(1), 1.0, 1),
        # blocks 2..402 and 1..401, one zero row between
        (binomial_state(400, 0.4), 0.37, 802 + 1),
    ],
)
def test_series_moves_only_the_rows_each_component_populates(dist, p, rows):
    config = _config(dist, p)
    support = max(d.cutoff for _, d in config.oscillator)
    ks, psi0, spans = oracle._initial_blocks(config, required_n_max(support))
    assert psi0.shape == (rows, 4)
    # every block the rows hold is built once, whichever components share it
    assert ks.size == len(np.unique(ks)) == max(b.stop for _, b in spans)
    # the rows that separate the components stay zero
    held = np.zeros(rows, dtype=bool)
    for r, _ in spans:
        held[r] = True
    assert not np.any(psi0[~held])


def test_series_evolves_each_components_first_chunk_with_the_propagator(monkeypatch):
    # |1> at 0 < p < 1: one row in block 3 and one in block 2, each evolved
    # over the whole first chunk by its own block
    calls = []
    evolve_state = Propagator.evolve_state

    def recording_evolve_state(self, psi0, times):
        calls.append((self.eigenvectors.shape, psi0.shape, len(times)))
        return evolve_state(self, psi0, times)

    monkeypatch.setattr(Propagator, "evolve_state", recording_evolve_state)
    config = _config(number_state(1), 0.5, grid=TimeGrid(0.0, 30.0, 151))
    oracle_entropy_series(config, OracleConfig(n_max=3, couplings=config.couplings))
    assert calls == [((1, 4, 4), (1, 4), 151)] * 2


def test_series_memory_stays_bounded_on_a_long_grid():
    # p = 0 and p = 1 leave one component, so one row per point
    points = 100_001
    for p in (0.0, 0.5, 1.0):
        config = _config(number_state(1), p, grid=TimeGrid(0.0, 1000.0, points))
        cfg = OracleConfig(n_max=3, couplings=config.couplings)
        tracemalloc.start()
        try:
            oracle_entropy_series(config, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a few grid arrays (times, zeta and the checks of TimeSeries) and a
        # fixed number of chunk-sized arrays; the block states of every time at
        # once would take 32 grid arrays more
        assert peak <= 6 * 8 * points + 8 * 2**20, p


def test_series_block_path_memory_stays_bounded_on_a_wide_support():
    # binomial M=400 on 3001 points: K = 403 blocks, 2 components, 20 points
    # per 1 MB chunk; the first chunk, its coefficients and one moved chunk
    # are alive at once, next to a few grid arrays
    config = _config(binomial_state(400, 0.5), 0.37)
    cfg = OracleConfig(n_max=required_n_max(400), couplings=config.couplings)
    tracemalloc.start()
    try:
        oracle_entropy_series(config, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_series_block_path_scales_to_a_binomial_support_of_2000(monkeypatch):
    support = 2000
    config = _config(binomial_state(support, 0.5), 0.37, l2=0.3, grid=TimeGrid(0.0, 30.0, 201))
    cfg = OracleConfig(n_max=required_n_max(support), couplings=config.couplings)
    sizes = []
    eigh = np.linalg.eigh

    def recording_eigh(h):
        sizes.append(h.shape[-1])
        return eigh(h)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    series = oracle_entropy_series(config, cfg)
    closed = entropy_series(config)
    assert np.max(np.abs(series.values - closed.values)) <= 1e-10
    assert sizes and max(sizes) <= 4
    # Building every block allocates less than one (n_max + 1)-square
    # matrix, so no oscillator-sized product such as a+a is ever formed.
    tracemalloc.start()
    try:
        build_hamiltonian(cfg, np.arange(2, support + 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (cfg.n_max + 1) ** 2


def _block_path_peak(config, n_max):
    """tracemalloc peak of the default path of ``oracle_entropy_series``."""
    cfg = OracleConfig(n_max=n_max, couplings=config.couplings, omega=0.7)
    tracemalloc.start()
    try:
        oracle_entropy_series(config, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_series_block_path_memory_does_not_grow_with_n_max():
    # n_max only gates the truncation check: every array of the block path
    # is sized by the populated blocks and the time chunk
    config = _config(binomial_state(40, 0.5), 0.37, l2=0.3, grid=TimeGrid(0.0, 30.0, 201))
    support = max(dist.cutoff for _, dist in config.oscillator)
    _block_path_peak(config, required_n_max(support))  # warm caches outside the comparison
    smallest = _block_path_peak(config, required_n_max(support))
    huge = _block_path_peak(config, 10**12)
    # the peaks differ by the few hundred bytes of interpreter bookkeeping
    # that also differ between two identical calls; one (n_max + 1)-sized
    # float array would add 8 TB
    assert abs(huge - smallest) <= 4096


def test_block_path_passes_where_only_the_dense_diagonal_would_overflow():
    # omega (n_max + 1) overflows, but the blocks that |1> populates hold at
    # most 3 omega, so a huge n_max neither overflows nor tightens omega
    config = _config(number_state(1), 0.5, grid=TimeGrid(0.0, 1e-300, 11))
    cfg = OracleConfig(n_max=10**18, couplings=config.couplings, omega=1e291)
    series = oracle_entropy_series(config, cfg)
    assert np.max(np.abs(series.values - entropy_series(config).values)) <= 1e-8


def test_series_stable_under_truncation_growth():
    config = _config(number_state(1), 0.5, grid=TimeGrid(0.0, 30.0, 601))
    base = oracle_entropy_series(config, OracleConfig(n_max=3, couplings=config.couplings))
    bigger = oracle_entropy_series(config, OracleConfig(n_max=6, couplings=config.couplings))
    assert np.max(np.abs(base.values - bigger.values)) <= 1e-12


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


def test_oracle_reaches_no_closed_form_module():
    # the cross-check is independent only if no module the oracle imports,
    # directly or through another tcsim module, holds a closed-form formula
    reached, todo = set(), ["oracle"]
    while todo:
        for name in _imported_submodules(todo.pop()) - reached:
            reached.add(name)
            todo.append(name)
    assert {"states", "series"} <= reached
    assert not reached & {"tc", "jc"}, sorted(reached)
