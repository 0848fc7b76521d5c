"""Brute-force ground truth on the truncated qubit1 (x) qubit2 (x) oscillator
space: build the dense Hamiltonian, evolve by eigendecomposition, partial
trace to the system qubit, and read off the purity.  No closed-form
coefficient enters anywhere in this module.

Basis ordering is fixed and load-bearing: the full index is
``(q1 * 2 + q2) * (n_max + 1) + m`` with qubit index 0 = ground and
1 = excited, i.e. qubit1 varies slowest and the oscillator fastest.

Because the coupling conserves the total excitation number, truncating at
n_max >= (oscillator support) + 2 is exact, not approximate: the populated
blocks close on themselves and nothing leaks past the cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EigendecompositionError, TruncationError, ValidationError
from .series import TimeSeries
from .states import Couplings, FockDistribution, SystemConfig, check_components

__all__ = [
    "OracleConfig",
    "build_hamiltonian",
    "total_excitation",
    "excitation_block",
    "initial_components",
    "initial_density",
    "Propagator",
    "evolve",
    "reduce_qubit1",
    "purity",
    "oracle_entropy_series",
    "required_n_max",
]

_HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class OracleConfig:
    """Truncation, common resonant frequency, and couplings for the
    brute-force pipeline.  ``omega = 0`` selects the interaction picture."""

    n_max: int
    couplings: Couplings
    omega: float = 0.0

    def __post_init__(self):
        if int(self.n_max) != self.n_max or self.n_max < 0:
            raise ValidationError(f"n_max must be a non-negative integer, got {self.n_max!r}")
        object.__setattr__(self, "n_max", int(self.n_max))
        object.__setattr__(self, "omega", float(self.omega))

    @property
    def dim(self) -> int:
        return 4 * (self.n_max + 1)


def _operators(n_max: int):
    no = n_max + 1
    a = np.diag(np.sqrt(np.arange(1.0, no)), 1)
    sz = np.diag([-1.0, 1.0])
    sp = np.array([[0.0, 0.0], [1.0, 0.0]])
    i2 = np.eye(2)
    io = np.eye(no)

    def on_q1(op):
        return np.kron(op, np.kron(i2, io))

    def on_q2(op):
        return np.kron(i2, np.kron(op, io))

    def on_osc(op):
        return np.kron(i2, np.kron(i2, op))

    return a, sz, sp, on_q1, on_q2, on_osc


def build_hamiltonian(cfg: OracleConfig) -> np.ndarray:
    """Dense Hamiltonian on the truncated space (units hbar = 1):

        H = omega a+a + (omega/2)(sz1 + sz2)
            + lambda1 (a s1+ + a+ s1-) + lambda2 (a s2+ + a+ s2-)

    The matrix is real symmetric and commutes with the total excitation
    operator, which is what makes the truncation exact.
    """
    a, sz, sp, on_q1, on_q2, on_osc = _operators(cfg.n_max)
    h = cfg.omega * on_osc(a.T @ a) + 0.5 * cfg.omega * (on_q1(sz) + on_q2(sz))
    for lam, embed in ((cfg.couplings.lambda1, on_q1), (cfg.couplings.lambda2, on_q2)):
        raise_op = embed(sp)
        h = h + lam * (on_osc(a) @ raise_op + on_osc(a.T) @ raise_op.T)
    return h


def total_excitation(cfg: OracleConfig) -> np.ndarray:
    """Operator counting quanta: a+a + (sz1 + 1)/2 + (sz2 + 1)/2."""
    a, sz, _, on_q1, on_q2, on_osc = _operators(cfg.n_max)
    up = 0.5 * (sz + np.eye(2))
    return on_osc(a.T @ a) + on_q1(up) + on_q2(up)


def _index(q1: int, q2: int, m: int, n_max: int) -> int:
    return (q1 * 2 + q2) * (n_max + 1) + m


def excitation_block(cfg: OracleConfig, n: int) -> np.ndarray:
    """4x4 restriction of the interaction to the conserved block
    {|e1 e2 n>, |e1 g2 n+1>, |g1 e2 n+1>, |g1 g2 n+2>}.

    Requires n + 2 <= n_max so the block fits inside the truncation.
    """
    if n < 0 or n + 2 > cfg.n_max:
        raise TruncationError(f"block n = {n} needs n_max >= {n + 2}, have {cfg.n_max}")
    h = build_hamiltonian(OracleConfig(cfg.n_max, cfg.couplings, omega=0.0))
    idx = [
        _index(1, 1, n, cfg.n_max),
        _index(1, 0, n + 1, cfg.n_max),
        _index(0, 1, n + 1, cfg.n_max),
        _index(0, 0, n + 2, cfg.n_max),
    ]
    return h[np.ix_(idx, idx)]


def required_n_max(support_cutoff: int) -> int:
    """Smallest exact truncation for an oscillator support ending at
    ``support_cutoff``: two extra levels hold the fully de-excited states."""
    return support_cutoff + 2


def _embed(q1: int, q2: int, dist: FockDistribution, n_max: int) -> np.ndarray:
    no = n_max + 1
    osc = np.zeros(no)
    osc[: dist.cutoff + 1] = dist.amplitudes
    q = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])}
    return np.kron(q[q1], np.kron(q[q2], osc))


def initial_components(
    config: SystemConfig,
    n_max: int,
    components=None,
) -> list[tuple[float, np.ndarray]]:
    """Pure components (weight, state vector) of the initial density matrix.

    The system qubit starts excited; the environment qubit is excited with
    probability p and ground otherwise.  The oscillator is prepared as the
    mixture of ``components``, (weight, FockDistribution) pairs, which
    defaults to the pure ``config.oscillator``.
    """
    components = check_components([(1.0, config.oscillator)] if components is None else components)
    support = max(dist.cutoff for _, dist in components)
    if n_max < required_n_max(support):
        raise TruncationError(
            f"n_max = {n_max} too small; oscillator support {support} needs "
            f"n_max >= {required_n_max(support)}"
        )
    p = config.env.p
    comps = []
    for w_osc, dist in components:
        if w_osc == 0.0:
            continue
        if p > 0.0:
            comps.append((w_osc * p, _embed(1, 1, dist, n_max)))
        if p < 1.0:
            comps.append((w_osc * (1.0 - p), _embed(1, 0, dist, n_max)))
    return comps


def initial_density(
    config: SystemConfig,
    n_max: int,
    components=None,
) -> np.ndarray:
    """Initial density matrix, of rank at most twice the number of
    oscillator components."""
    dim = 4 * (n_max + 1)
    rho = np.zeros((dim, dim), dtype=complex)
    for weight, vec in initial_components(config, n_max, components):
        rho += weight * np.outer(vec, vec.conj())
    return rho


class Propagator:
    """One-time eigendecomposition of a Hermitian matrix, reused to evolve
    states and density matrices over any number of times."""

    def __init__(self, h: np.ndarray):
        h = np.asarray(h)
        scale = max(np.abs(h).max(), 1.0)
        if not np.allclose(h, h.conj().T, atol=_HERMITICITY_TOL * scale, rtol=0):
            raise EigendecompositionError("matrix is not Hermitian")
        try:
            self.eigenvalues, self.eigenvectors = np.linalg.eigh(h)
        except np.linalg.LinAlgError as exc:
            raise EigendecompositionError(str(exc)) from exc

    def unitary(self, t: float) -> np.ndarray:
        v = self.eigenvectors
        return (v * np.exp(-1j * self.eigenvalues * t)) @ v.conj().T

    def evolve_state(self, psi0: np.ndarray, times) -> np.ndarray:
        """Return the evolved state at each time as columns of a
        (dim, n_times) array."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        c0 = self.eigenvectors.conj().T @ np.asarray(psi0, dtype=complex)
        phases = np.exp(-1j * np.outer(self.eigenvalues, times))
        return self.eigenvectors @ (phases * c0[:, None])

    def evolve_density(self, rho0: np.ndarray, t: float) -> np.ndarray:
        u = self.unitary(t)
        return u @ np.asarray(rho0, dtype=complex) @ u.conj().T


def evolve(rho0: np.ndarray, h: np.ndarray, t: float) -> np.ndarray:
    """Unitary evolution of a density matrix for a single time.

    For a whole grid, build one ``Propagator`` and reuse it; this
    convenience wrapper decomposes ``h`` on every call.
    """
    return Propagator(h).evolve_density(rho0, t)


def reduce_qubit1(rho: np.ndarray) -> np.ndarray:
    """Partial trace over the environment qubit and oscillator, leaving the
    2x2 system-qubit matrix.  Relies on the module's basis ordering."""
    dim = rho.shape[0]
    if rho.shape != (dim, dim) or dim % 4 != 0:
        raise ValidationError(f"expected a square matrix of dimension 4*(n_max+1), got {rho.shape}")
    rest = dim // 2
    reshaped = rho.reshape(2, rest, 2, rest)
    return np.einsum("akbk->ab", reshaped)


def purity(rho: np.ndarray) -> float:
    return float(np.real(np.trace(rho @ rho)))


def oracle_entropy_series(
    config: SystemConfig,
    cfg: OracleConfig,
    components=None,
    dense: bool = False,
) -> TimeSeries:
    """Linear entropy of the system qubit over the configuration's grid,
    via build -> evolve -> reduce -> purity only.

    ``components`` is the oscillator preparation as in
    ``initial_components``.  The default path evolves the pure components of
    the initial state and assembles the reduced matrix directly, which is
    algebraically identical to evolving the full density matrix.  With
    ``dense=True`` the full-matrix reference path is used instead.
    """
    times = config.grid.times()
    h = build_hamiltonian(cfg)
    prop = Propagator(h)
    if dense:
        rho0 = initial_density(config, cfg.n_max, components)
        zeta = np.empty(times.size)
        for i, t in enumerate(times):
            rho_t = prop.evolve_density(rho0, t)
            zeta[i] = 1.0 - purity(reduce_qubit1(rho_t))
        return TimeSeries(times, np.clip(zeta, 0.0, 0.5))
    comps = initial_components(config, cfg.n_max, components)
    rest = cfg.dim // 2
    rho1 = np.zeros((times.size, 2, 2), dtype=complex)
    for weight, vec in comps:
        psi = prop.evolve_state(vec, times)  # (dim, T)
        blocks = psi.reshape(2, rest, times.size)
        rho1 += weight * np.einsum("akt,bkt->tab", blocks, blocks.conj())
    zeta = 1.0 - np.einsum("tab,tba->t", rho1, rho1).real
    # rounding can land an ulp outside the mathematical range [0, 1/2]
    return TimeSeries(times, np.clip(zeta, 0.0, 0.5))
