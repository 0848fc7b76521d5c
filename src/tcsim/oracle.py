"""Brute-force ground truth on the truncated qubit1 (x) qubit2 (x) oscillator
space: build the numeric Hamiltonian, evolve by eigendecomposition, partial
trace to the system qubit, and read off the purity.  No closed-form
coefficient or frequency enters anywhere in this module.

Basis ordering is fixed and load-bearing: the full index is
``(q1 * 2 + q2) * (n_max + 1) + m`` with qubit index 0 = ground and
1 = excited, i.e. qubit1 varies slowest and the oscillator fastest.

Because the coupling conserves the total excitation number, truncating at
n_max >= (oscillator support) + 2 is exact, not approximate: the populated
blocks close on themselves and nothing leaks past the cutoff.  The same fact
lets the default path of ``oracle_entropy_series`` evolve only those
blocks: it gathers the Hamiltonian's terms on the 4x4 excitation blocks the
initial state populates, diagonalizes them with one batched ``eigh``, and
scatters the evolved states back onto the full basis for the unchanged
partial trace.  ``dense=True`` keeps the dense 4(n_max + 1)-dimensional
matrix and the full density matrix as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EigendecompositionError, TruncationError, ValidationError
from .series import TimeSeries, check_phase
from .states import Couplings, FockDistribution, SystemConfig

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
        if not math.isfinite(self.omega):
            raise ValidationError(f"omega = {self.omega!r} must be finite")
        if not math.isfinite(self.omega * (self.n_max + 1)):  # H's largest diagonal entry
            raise ValidationError(
                f"omega * (n_max + 1) = {self.omega!r} * {self.n_max + 1} overflows double precision"
            )

    @property
    def dim(self) -> int:
        return 4 * (self.n_max + 1)


def _terms(cfg: OracleConfig) -> list:
    """H as a list of (coef, q1 op, q2 op, oscillator op) kron factors.

    Each oscillator operator has one nonzero diagonal and is kept as
    ``(values, offset)``, the arguments of ``np.diag``, so that the block path
    never forms an (n_max + 1)-square matrix.
    """
    no = cfg.n_max + 1
    root = np.sqrt(np.arange(1.0, no))
    a, a_dag = (root, 1), (root, -1)
    number, one = (np.arange(float(no)), 0), (np.ones(no), 0)
    sz = np.diag([-1.0, 1.0])
    sp = np.array([[0.0, 0.0], [1.0, 0.0]])
    i2 = np.eye(2)
    lam1, lam2 = cfg.couplings.lambda1, cfg.couplings.lambda2
    half = 0.5 * cfg.omega
    return [
        (cfg.omega, i2, i2, number),
        (half, sz, i2, one),
        (half, i2, sz, one),
        (lam1, sp, i2, a),
        (lam1, sp.T, i2, a_dag),
        (lam2, i2, sp, a),
        (lam2, i2, sp.T, a_dag),
    ]


def _split(index, n_max: int):
    """(q1, q2, m) of full basis indices."""
    q, m = np.divmod(index, n_max + 1)
    return q // 2, q % 2, m


def _diagonal_entries(op, rows, cols) -> np.ndarray:
    """Entries ``np.diag(*op)[rows, cols]`` without forming the matrix."""
    values, offset = op
    at = np.clip(np.minimum(rows, cols), 0, values.size - 1)
    return np.where(cols - rows == offset, values[at], 0.0)


def build_hamiltonian(cfg: OracleConfig, blocks=None) -> np.ndarray:
    """Hamiltonian on the truncated space (units hbar = 1):

        H = omega a+a + (omega/2)(sz1 + sz2)
            + lambda1 (a s1+ + a+ s1-) + lambda2 (a s2+ + a+ s2-)

    The matrix is real symmetric and commutes with the total excitation
    operator, which is what makes the truncation exact.

    With ``blocks=None`` the result is the dense dim x dim matrix.  Given a
    (K, d) array of basis indices it is the (K, d, d) stack of the
    sub-matrices ``H[np.ix_(row, row)]``, evaluated from the same terms
    without the dense matrix; an index of -1 marks an empty slot, whose row
    and column are zero.
    """
    terms = _terms(cfg)
    if blocks is None:
        return sum(coef * np.kron(q1, np.kron(q2, np.diag(*osc))) for coef, q1, q2, osc in terms)
    rows = np.asarray(blocks)
    valid = rows >= 0
    q1, q2, m = _split(np.where(valid, rows, 0), cfg.n_max)

    def pairs(x):
        return x[..., :, None], x[..., None, :]

    h = sum(
        coef * (f1[pairs(q1)] * (f2[pairs(q2)] * _diagonal_entries(osc, *pairs(m))))
        for coef, f1, f2, osc in terms
    )
    return np.where(valid[..., :, None] & valid[..., None, :], h, 0.0)


def total_excitation(cfg: OracleConfig) -> np.ndarray:
    """Operator counting quanta: a+a + (sz1 + 1)/2 + (sz2 + 1)/2."""
    q1, q2, m = _split(np.arange(cfg.dim), cfg.n_max)
    return np.diag((q1 + q2 + m).astype(float))


def _block_rows(excitations, n_max: int) -> np.ndarray:
    """(K, 4) basis indices of the conserved blocks of total excitation k,
    {|e1 e2 k-2>, |e1 g2 k-1>, |g1 e2 k-1>, |g1 g2 k>}, one row per k.
    A slot whose photon number would be negative holds -1."""
    m = np.asarray(excitations)[:, None] - np.array([2, 1, 1, 0])
    qubits = np.array([3, 2, 1, 0])  # q1 * 2 + q2 of each slot
    return np.where(m >= 0, qubits * (n_max + 1) + m, -1)


def excitation_block(cfg: OracleConfig, n: int) -> np.ndarray:
    """4x4 restriction of the interaction to the conserved block
    {|e1 e2 n>, |e1 g2 n+1>, |g1 e2 n+1>, |g1 g2 n+2>}.

    Requires n + 2 <= n_max so the block fits inside the truncation.
    """
    if n < 0 or n + 2 > cfg.n_max:
        raise TruncationError(f"block n = {n} needs n_max >= {n + 2}, have {cfg.n_max}")
    interaction = OracleConfig(cfg.n_max, cfg.couplings, omega=0.0)
    return build_hamiltonian(interaction, _block_rows([n + 2], cfg.n_max))[0]


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


def initial_components(config: SystemConfig, n_max: int) -> list[tuple[float, np.ndarray]]:
    """Pure components (weight, state vector) of the initial density matrix.

    The system qubit starts excited; the environment qubit is excited with
    probability p and ground otherwise.  The oscillator is prepared as the
    mixture ``config.oscillator`` of (weight, FockDistribution) pairs.
    """
    support = max(dist.cutoff for _, dist in config.oscillator)
    if n_max < required_n_max(support):
        raise TruncationError(
            f"n_max = {n_max} too small; oscillator support {support} needs "
            f"n_max >= {required_n_max(support)}"
        )
    p = config.env.p
    comps = []
    for w_osc, dist in config.oscillator:
        if w_osc == 0.0:
            continue
        if p > 0.0:
            comps.append((w_osc * p, _embed(1, 1, dist, n_max)))
        if p < 1.0:
            comps.append((w_osc * (1.0 - p), _embed(1, 0, dist, n_max)))
    return comps


def initial_density(config: SystemConfig, n_max: int) -> np.ndarray:
    """Initial density matrix, of rank at most twice the number of
    oscillator components."""
    dim = 4 * (n_max + 1)
    rho = np.zeros((dim, dim), dtype=complex)
    for weight, vec in initial_components(config, n_max):
        rho += weight * np.outer(vec, vec.conj())
    return rho


def _adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


class Propagator:
    """One-time eigendecomposition of a Hermitian matrix, or of a (..., d, d)
    stack of them, reused to evolve states and density matrices over any
    number of times.  A single matrix is the stack with no leading axes."""

    def __init__(self, h: np.ndarray):
        h = np.asarray(h)
        if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
            raise EigendecompositionError(f"expected square matrices, got shape {h.shape}")
        scale = np.maximum(np.abs(h).max(axis=(-2, -1)), 1.0)
        asymmetry = np.abs(h - _adjoint(h)).max(axis=(-2, -1))
        if not np.all(asymmetry <= _HERMITICITY_TOL * scale):
            raise EigendecompositionError("matrix is not Hermitian")
        try:
            self.eigenvalues, self.eigenvectors = np.linalg.eigh(h)
        except np.linalg.LinAlgError as exc:
            raise EigendecompositionError(str(exc)) from exc

    def unitary(self, t: float) -> np.ndarray:
        v = self.eigenvectors
        return (v * np.exp(-1j * self.eigenvalues * t)[..., None, :]) @ _adjoint(v)

    def evolve_state(self, psi0: np.ndarray, times) -> np.ndarray:
        """Evolve ``psi0`` of shape (..., d), one state per matrix of the
        stack, and return the state at each time as the last axis of a
        (..., d, n_times) array.  exp(-iEt) is computed once per call, so
        states stacked on extra leading axes share it.  A phase E * t past
        ``series.PHASE_LIMIT`` raises ValidationError."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        check_phase(np.max(np.abs(self.eigenvalues), initial=0.0), times, "oracle eigenvalue")
        v = self.eigenvectors
        c0 = (_adjoint(v) @ np.asarray(psi0, dtype=complex)[..., None])[..., 0]
        phases = np.exp(-1j * (self.eigenvalues[..., None] * times))
        return (v * c0[..., None, :]) @ phases

    def evolve_density(self, rho0: np.ndarray, t: float) -> np.ndarray:
        u = self.unitary(t)
        return u @ np.asarray(rho0, dtype=complex) @ _adjoint(u)


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


def oracle_entropy_series(config: SystemConfig, cfg: OracleConfig, dense: bool = False) -> TimeSeries:
    """Linear entropy of the system qubit over the configuration's grid,
    via build -> evolve -> reduce -> purity only.

    The default path builds, diagonalizes and evolves only the excitation
    blocks that the pure components of the initial state populate, scatters
    the evolved states back onto the full basis and assembles the reduced
    matrix directly, which is algebraically identical to evolving the full
    density matrix.  With ``dense=True`` the full-matrix reference path is
    used instead.
    """
    times = config.grid.times()
    if dense:
        prop = Propagator(build_hamiltonian(cfg))
        rho0 = initial_density(config, cfg.n_max)
        zeta = np.empty(times.size)
        for i, t in enumerate(times):
            rho_t = prop.evolve_density(rho0, t)
            zeta[i] = 1.0 - purity(reduce_qubit1(rho_t))
        return TimeSeries(times, np.clip(zeta, 0.0, 0.5))
    comps = initial_components(config, cfg.n_max)
    # The states carry one extra trailing entry, always zero, which the -1
    # slots of ``rows`` address both when gathering and when scattering.
    vecs = np.zeros((len(comps), cfg.dim + 1))
    vecs[:, :-1] = [vec for _, vec in comps]
    q1, q2, m = _split(np.flatnonzero(vecs.any(axis=0)), cfg.n_max)
    rows = _block_rows(np.flatnonzero(np.bincount(q1 + q2 + m)), cfg.n_max)
    prop = Propagator(build_hamiltonian(cfg, rows))
    psi = prop.evolve_state(vecs[:, rows], times)  # (components, K, 4, T)
    full = np.zeros((cfg.dim + 1, times.size), dtype=complex)
    halves = full[:-1].reshape(2, cfg.dim // 2, times.size)
    rho1 = np.zeros((times.size, 2, 2), dtype=complex)
    for (weight, _), block_psi in zip(comps, psi):
        full[rows] = block_psi
        rho1 += weight * np.einsum("akt,bkt->tab", halves, halves.conj())
    zeta = 1.0 - np.einsum("tab,tba->t", rho1, rho1).real
    # rounding can land an ulp outside the mathematical range [0, 1/2]
    return TimeSeries(times, np.clip(zeta, 0.0, 0.5))
