"""Brute-force ground truth on the truncated qubit1 (x) qubit2 (x) oscillator
space: build the numeric Hamiltonian, evolve by eigendecomposition, partial
trace to the system qubit, and read off the purity.  No closed-form
coefficient or frequency enters anywhere in this module.

The dense basis ordering is fixed and load-bearing: the full index is
``(q1 * 2 + q2) * (n_max + 1) + m`` with qubit index 0 = ground and
1 = excited, i.e. qubit1 varies slowest and the oscillator fastest.

Because the coupling conserves the total excitation number, truncating at
n_max >= (oscillator support) + 2 is exact, not approximate: the populated
blocks close on themselves and nothing leaks past the cutoff.  The same fact
lets the default path of ``oracle_entropy_series`` evolve only those
blocks.  It addresses each state by its total excitation k and its slot in
the 4x4 block of k (``_SLOTS``), builds the Hamiltonian on the blocks the
initial state populates, diagonalizes them with one batched ``eigh`` and
never forms a state on the full basis, so n_max sizes none of its arrays and
omega need only keep the blocks' entries finite.  It walks the (uniform)
time grid in fixed chunks: it evolves the first chunk once and holds it as
the real and imaginary parts of its eigen-coefficients (the blocks are real
symmetric, so their eigenvectors are real), reaches every chunk from those
with one real 8x8 block rotation, and takes the partial trace from each
chunk's block states.  ``dense=True`` keeps the dense 4(n_max + 1)-dimensional
matrix and the full density matrix as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EigendecompositionError, TruncationError, ValidationError
from .series import TimeSeries, check_integer, check_phase
from .states import Couplings, FockDistribution, SystemConfig

__all__ = [
    "OracleConfig",
    "build_hamiltonian",
    "total_excitation",
    "excitation_block",
    "initial_density",
    "Propagator",
    "reduce_qubit1",
    "purity",
    "oracle_entropy_series",
    "required_n_max",
]

_HERMITICITY_TOL = 1e-12
# Complex entries of one chunk's block states, (K, 4) per component and
# point, in the default path of ``oracle_entropy_series``: 2**16 entries, 1 MB
# (held there as 2**17 real and imaginary parts).
_CHUNK_ENTRIES = 2**16


@dataclass(frozen=True)
class OracleConfig:
    """Truncation, common resonant frequency, and couplings for the
    brute-force pipeline.  ``omega = 0`` selects the interaction picture."""

    n_max: int
    couplings: Couplings
    omega: float = 0.0

    def __post_init__(self):
        n_max = check_integer(self.n_max, 0, "n_max must be a non-negative integer, got {!r}")
        object.__setattr__(self, "n_max", n_max)
        object.__setattr__(self, "omega", float(self.omega))
        if not math.isfinite(self.omega):
            raise ValidationError(f"omega = {self.omega!r} must be finite")


# The conserved block of total excitation k, one row per slot: qubit1,
# qubit2 and the photon number's depth below k of |e1 e2 k-2>, |e1 g2 k-1>,
# |g1 e2 k-1> and |g1 g2 k>.
_SLOTS = np.array([[1, 1, 2], [1, 0, 1], [0, 1, 1], [0, 0, 0]])


def _terms(cfg: OracleConfig) -> list:
    """H as a list of (coef, q1 op, q2 op, oscillator op) kron factors.

    Each oscillator operator has one nonzero diagonal and is kept as
    ``(offset, entry)``, where ``entry(m)`` is the diagonal's value at the
    smaller photon number m of its row and column, so that the block path
    never forms an oscillator-sized array.
    """

    def root(m):
        return np.sqrt(m + 1.0)

    a, a_dag = (1, root), (-1, root)
    number = (0, lambda m: m.astype(float))
    one = (0, lambda m: np.ones(m.shape))
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


def build_hamiltonian(cfg: OracleConfig, excitations=None) -> np.ndarray:
    """Hamiltonian on the truncated space (units hbar = 1):

        H = omega a+a + (omega/2)(sz1 + sz2)
            + lambda1 (a s1+ + a+ s1-) + lambda2 (a s2+ + a+ s2-)

    The matrix is real symmetric and commutes with the total excitation
    operator, which is what makes the truncation exact.

    With ``excitations=None`` the result is the dense dim x dim matrix.
    Given K total excitations it is the (K, 4, 4) stack of the conserved
    blocks, in the slot order of ``_SLOTS``, evaluated from the same terms
    without the dense matrix; a slot whose photon number would be negative
    has a zero row and column.  An entry that overflows double precision
    raises ValidationError naming omega and the couplings.
    """
    terms = _terms(cfg)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        if excitations is None:
            no = cfg.n_max + 1
            h = sum(
                coef * np.kron(q1, np.kron(q2, np.diag(entry(np.arange(no - abs(offset))), offset)))
                for coef, q1, q2, (offset, entry) in terms
            )
        else:
            q1, q2 = (np.ix_(q, q) for q in _SLOTS[:, :2].T)
            m = np.asarray(excitations)[:, None] - _SLOTS[:, 2]
            rows, cols = m[:, :, None], m[:, None, :]
            lower = np.maximum(np.minimum(rows, cols), 0)
            h = sum(
                coef * (f1[q1] * (f2[q2] * np.where(cols - rows == offset, entry(lower), 0.0)))
                for coef, f1, f2, (offset, entry) in terms
            )
            valid = m >= 0
            h = np.where(valid[:, :, None] & valid[:, None, :], h, 0.0)
    if not np.all(np.isfinite(h)):
        c = cfg.couplings
        raise ValidationError(f"omega = {cfg.omega!r}, lambda1 = {c.lambda1!r}, lambda2 = "
                              f"{c.lambda2!r} overflow double precision in the oracle Hamiltonian")
    return h


def excitation_block(cfg: OracleConfig, n: int) -> np.ndarray:
    """4x4 restriction of the interaction to the conserved block
    {|e1 e2 n>, |e1 g2 n+1>, |g1 e2 n+1>, |g1 g2 n+2>}.

    Requires n + 2 <= n_max so the block fits inside the truncation.
    """
    if n < 0 or n + 2 > cfg.n_max:
        raise TruncationError(f"block n = {n} needs n_max >= {n + 2}, have {cfg.n_max}")
    interaction = OracleConfig(cfg.n_max, cfg.couplings, omega=0.0)
    return build_hamiltonian(interaction, [n + 2])[0]


def required_n_max(support_cutoff: int) -> int:
    """Smallest exact truncation for an oscillator support ending at
    ``support_cutoff``: two extra levels hold the fully de-excited states."""
    return support_cutoff + 2


def _embed(q2: int, dist: FockDistribution, n_max: int) -> np.ndarray:
    """State vector with qubit1 excited, qubit2 in ``q2`` (1 = excited) and
    the oscillator in ``dist``."""
    osc = np.zeros(n_max + 1)
    osc[: dist.cutoff + 1] = dist.amplitudes
    excited, qubit2 = np.eye(2)[1], np.eye(2)[q2]
    return np.kron(excited, np.kron(qubit2, osc))


def _preparations(config: SystemConfig, n_max: int) -> list[tuple[float, int, FockDistribution]]:
    """(weight, q2, oscillator) of each pure component of the initial state:
    qubit1 excited, qubit2 in ``q2`` (1 = excited), the oscillator in the
    given FockDistribution."""
    support = max(dist.cutoff for _, dist in config.oscillator)
    if n_max < required_n_max(support):
        raise TruncationError(
            f"n_max = {n_max} too small; oscillator support {support} needs "
            f"n_max >= {required_n_max(support)}"
        )
    p = config.env.p
    preps = []
    for w_osc, dist in config.oscillator:
        if w_osc == 0.0:
            continue
        if p > 0.0:
            preps.append((w_osc * p, 1, dist))
        if p < 1.0:
            preps.append((w_osc * (1.0 - p), 0, dist))
    return preps


def initial_density(config: SystemConfig, n_max: int) -> np.ndarray:
    """Initial density matrix, of rank at most twice the number of
    oscillator components.

    The system qubit starts excited; the environment qubit is excited with
    probability p and ground otherwise.  The oscillator is prepared as the
    mixture ``config.oscillator`` of (weight, FockDistribution) pairs.
    """
    dim = 4 * (n_max + 1)
    rho = np.zeros((dim, dim), dtype=complex)
    for weight, q2, dist in _preparations(config, n_max):
        vec = _embed(q2, dist, n_max)
        rho += weight * np.outer(vec, vec.conj())
    return rho


def total_excitation(cfg: OracleConfig) -> np.ndarray:
    """Operator counting quanta on the dense basis: a+a + (sz1 + 1)/2 + (sz2 + 1)/2."""
    q, m = np.divmod(np.arange(4 * (cfg.n_max + 1)), cfg.n_max + 1)
    return np.diag((q // 2 + q % 2 + m).astype(float))


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
        """Density matrix ``rho0`` evolved to the single time ``t``."""
        u = self.unitary(t)
        return u @ np.asarray(rho0, dtype=complex) @ _adjoint(u)


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


def _initial_blocks(config: SystemConfig, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Excitations (K,) of the blocks the evolution reads, ascending, and the
    (components, K, 4) initial stack with sqrt(weight) folded into each
    component, so that rho = sum_c |psi_c><psi_c|.

    |e1 e2 m> is slot 0 of block m + 2 and |e1 g2 m> slot 1 of block m + 1.
    Below each populated block k the stack also holds block k - 1, which
    stays zero if the state does not populate it, so every pair of
    neighbours in the stack either differs by one excitation or has a zero
    upper block.
    """
    preps = _preparations(config, n_max)
    populated = [np.flatnonzero(dist.amplitudes) for _, _, dist in preps]
    ks = np.concatenate([m + 1 + q2 for m, (_, q2, _) in zip(populated, preps)])
    ks = np.flatnonzero(np.bincount(np.concatenate([ks, ks - 1])))
    psi0 = np.zeros((len(preps), ks.size, 4))
    for c, (m, (weight, q2, dist)) in enumerate(zip(populated, preps)):
        psi0[c, np.searchsorted(ks, m + 1 + q2), 1 - q2] = math.sqrt(weight) * dist.amplitudes[m]
    return ks, psi0


def _block_entropy(parts: np.ndarray, components: int) -> np.ndarray:
    """Linear entropy of qubit1 from block states of consecutive excitations
    (see ``_initial_blocks``) held as real and imaginary parts: a
    (K, 8, components * n) array whose rows 0-3 are the real parts of the
    four slots and rows 4-7 their imaginary parts, and whose last axis runs
    over the components and, fastest, the n times.

    Slots 0, 1 of each block have qubit1 excited and slots 2, 3 ground.  The
    coherence pairs slots 0 and 1 of block k with slots 2 and 3 of block
    k - 1, which hold the same qubit2 and oscillator state.
    """
    squares = np.einsum("ksx,ksx->sx", parts, parts).reshape(2, 4, components, -1)
    slots = squares.sum(axis=(0, 2))
    rho_ee, rho_gg = slots[0] + slots[1], slots[2] + slots[3]
    halves = parts.reshape(parts.shape[0], 2, 4, -1)  # (block, real/imaginary, slot, x)
    x, y = halves[1:, :, :2], halves[:-1, :, 2:]
    # rho_eg = sum x conj(y), whose real part is xr yr + xi yi and imaginary part xi yr - xr yi
    eg_re = np.einsum("kpsx,kpsx->x", x, y)
    eg_im = np.einsum("ksx,ksx->x", x[:, 1], y[:, 0]) - np.einsum("ksx,ksx->x", x[:, 0], y[:, 1])
    eg_re, eg_im = (part.reshape(components, -1).sum(axis=0) for part in (eg_re, eg_im))
    return 1.0 - (rho_ee**2 + rho_gg**2 + 2.0 * (eg_re**2 + eg_im**2))


def oracle_entropy_series(config: SystemConfig, cfg: OracleConfig, dense: bool = False) -> TimeSeries:
    """Linear entropy of the system qubit over the configuration's grid,
    via build -> evolve -> reduce -> purity only.

    The default path builds and diagonalizes only the excitation blocks that
    the initial state populates and holds the mixture as one stack of block
    states.  It walks the grid in chunks of at most ``_CHUNK_ENTRIES`` state
    entries.  The first chunk is evolved from the initial stack and kept as
    the real and imaginary parts of its coefficients V^T psi in the blocks'
    real eigenvectors V.  The chunk starting at times[s] is the first one
    moved on by U(s') = V exp(-iEs') V^T with s' = times[s] - times[0],
    applied to those parts as the real block rotation [[A, B], [-B, A]],
    A = V cos(Es') and B = V sin(Es'); the first chunk is the case s' = 0.
    That relies on the grid being uniform, which ``TimeGrid`` guarantees.
    Each chunk is reduced straight from its block states, which is
    algebraically identical to evolving the full density matrix and tracing
    it.  With ``dense=True`` the full-matrix reference path is used instead.
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
    ks, psi0 = _initial_blocks(config, cfg.n_max)
    prop = Propagator(build_hamiltonian(cfg, ks))
    # the rotations below do not check the phase, so the whole grid is checked here
    check_phase(np.max(np.abs(prop.eigenvalues), initial=0.0), times, "oracle eigenvalue")
    # an empty slot's row and column of H are zero, but eigh may mix it into a
    # degenerate eigenvalue of its block; zeroing its rows of the (real)
    # eigenvectors keeps it out of every chunk
    v = prop.eigenvectors
    v[ks[:, None] < _SLOTS[:, 2]] = 0.0
    components = psi0.shape[0]
    size = max(1, _CHUNK_ENTRIES // psi0.size)
    first = prop.evolve_state(psi0, times[:size])
    # eigen-coefficients V^T psi of the first chunk, real and imaginary parts
    # as rows (K, 8) and components x times along the last axis
    coef = (np.swapaxes(v, -1, -2) @ first.view(float)).reshape(components, ks.size, 4, -1, 2)
    coef = np.ascontiguousarray(coef.transpose(1, 4, 2, 0, 3)).reshape(ks.size, 8, components, -1)
    del first
    rotation = np.empty((ks.size, 2, 4, 2, 4))
    zeta = np.empty(times.size)
    for start in range(0, times.size, size):
        n = min(size, times.size - start)
        # U(s) = V exp(-iEs) V^T on (real, imaginary) parts is the block
        # rotation [[A, B], [-B, A]] of the coefficients, A = V cos(Es) and B = V sin(Es)
        phase = prop.eigenvalues[:, None, :] * (times[start] - times[0])
        rotation[:, 0, :, 0] = rotation[:, 1, :, 1] = v * np.cos(phase)
        rotation[:, 0, :, 1] = v * np.sin(phase)
        rotation[:, 1, :, 0] = -rotation[:, 0, :, 1]
        moved = rotation.reshape(ks.size, 8, 8) @ coef[..., :n].reshape(ks.size, 8, -1)
        zeta[start : start + n] = _block_entropy(moved, components)
    # rounding can land an ulp outside the mathematical range [0, 1/2]
    return TimeSeries(times, np.clip(zeta, 0.0, 0.5, out=zeta))
