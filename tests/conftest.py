"""Shared test helpers.

``coefficient_quad`` reads one coefficient quad out of the block columns
the closed-form pipeline evaluates, and ``entropy_terms`` the reduced-qubit
terms it sums from them.  ``branch_amplitudes_bruteforce``
evolves a basis vector on the full truncated space by eigendecomposition
and reads the four amplitudes of one evolution branch straight out of the
state vector.  It shares no formula with the closed-form coefficient code
and is the reference every quad test compares against.
"""

from __future__ import annotations

import numpy as np
import pytest

import tcsim.tc as tc
from tcsim.oracle import Propagator, build_hamiltonian
from tcsim.states import Couplings

# The phases ``tc._block_columns`` leaves off each entry of its real columns.
_QUAD_PHASES = {False: np.array([1, -1j, -1j, 1]), True: np.array([-1j, 1, 1, -1j])}


def coefficient_quad(n: int, couplings: Couplings, t, primed: bool) -> np.ndarray:
    """The (4, len(t)) complex coefficient quad at oscillator index ``n``:
    unprimed from block n, primed from block n - 1 (see RESOLVED_EQUATIONS.md).
    A scalar ``t`` gives one column."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    columns = tc._block_columns(tc.spectral_params(n - primed, couplings), couplings, t)[primed]
    return _QUAD_PHASES[primed][:, None] * np.array(columns)


def entropy_terms(config, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """alpha, beta and the complex gamma over the times ``t`` (a scalar gives
    one point), as ``tc.mixture_entropy_arrays`` forms them for one chunk."""
    t = np.atleast_1d(tc._check_times(t))
    bands = tc._density_bands(config.oscillator)
    alpha, beta, gamma_im = tc._terms(config, bands, tc._block_params(bands, config.couplings, t), t)
    return alpha, beta, 1j * gamma_im


def full_index(q1: int, q2: int, m: int, n_max: int) -> int:
    # qubit1 slowest, oscillator fastest; qubit index 1 = excited
    return (q1 * 2 + q2) * (n_max + 1) + m


def basis_vector(q1: int, q2: int, m: int, n_max: int) -> np.ndarray:
    vec = np.zeros(4 * (n_max + 1), dtype=complex)
    vec[full_index(q1, q2, m, n_max)] = 1.0
    return vec


def branch_amplitudes_bruteforce(
    n: int, couplings: Couplings, t: float, primed: bool
) -> np.ndarray:
    """Four branch amplitudes at time t from dense evolution of the full
    Hamiltonian (interaction picture)."""
    n_max = n + 3
    prop = Propagator(build_hamiltonian(couplings, n_max=n_max))
    if primed:
        psi0 = basis_vector(1, 0, n, n_max)
        targets = [None if n == 0 else (1, 1, n - 1), (1, 0, n), (0, 1, n), (0, 0, n + 1)]
    else:
        psi0 = basis_vector(1, 1, n, n_max)
        targets = [(1, 1, n), (1, 0, n + 1), (0, 1, n + 1), (0, 0, n + 2)]
    psi_t = prop.evolve_state(psi0, [t])[:, 0]
    return np.array(
        [0.0 if tgt is None else psi_t[full_index(*tgt, n_max)] for tgt in targets],
        dtype=complex,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
