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
omega need only keep the blocks' entries finite.  Each mixture component
keeps its own rows, the blocks from its lowest to its highest populated
one, with a zero row between components.  The path walks the (uniform)
time grid in fixed chunks: it evolves each component's rows over the first
chunk by the blocks they hold, keeps that chunk's eigen-coefficients
exp(-iEt) V^T psi as real and imaginary parts (the blocks are real
symmetric, so their eigenvectors V are real), reaches every chunk from
those with one real 8x8 block rotation per block, which the components that
share the block share, and takes the partial trace from each chunk's rows.
``dense=True`` keeps the dense 4(n_max + 1)-dimensional matrix and the full
density matrix as the reference.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EigendecompositionError, TruncationError, ValidationError
from .series import TimeSeries, check_phase
from .states import FockDistribution, OracleConfig, SystemConfig, required_n_max

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
# Complex entries of one chunk's block states, 4 per row and point, in the
# default path of ``oracle_entropy_series``: 2**16 entries, 1 MB (held there
# as 2**17 real and imaginary parts).
_CHUNK_ENTRIES = 2**16
# Times per chunk at most.  Each row moves on by one (8, 8) x (8, n) product.
# OpenBLAS hands a product of 2**20 multiply-adds or more (n >= 16384) to its
# threads, which for one this thin costs far more than it saves: as much as
# 8 ms a product against 0.08 ms on one thread of a 2-core host.  Only a
# single row reaches that length within the entry budget.
_CHUNK_POINTS = 8192


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

    def __getitem__(self, index) -> "Propagator":
        """The propagator of the matrices ``index`` selects from the stack,
        sharing this one's eigendecomposition."""
        sub = object.__new__(Propagator)
        sub.eigenvalues, sub.eigenvectors = self.eigenvalues[index], self.eigenvectors[index]
        return sub

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
        # the coefficients at each time, real and imaginary parts side by side
        # along the last axis, so that V acts on them as real matrices: OpenBLAS
        # threads a complex product from 4096 times on, which made a (2, 4, 4)
        # stack nine times slower on a 2-core host
        parts = (c0[..., None] * np.exp(-1j * (self.eigenvalues[..., None] * times))).view(float)
        evolved = (v.real @ parts).view(complex)
        if np.iscomplexobj(v):
            evolved += 1j * (v.imag @ parts).view(complex)
        return evolved

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


def _initial_blocks(config: SystemConfig, n_max: int) -> tuple[np.ndarray, np.ndarray, list]:
    """The blocks the evolution reads and the rows it moves.

    Returns the excitations (K,) of the blocks, ascending; the (rows, 4)
    initial stack; and, for each mixture component, the slice of its rows
    and the slice of the excitations they hold.  A component's rows are its
    blocks from the lowest to the highest it populates, ascending, with
    sqrt(weight) folded in, so that rho = sum_c |psi_c><psi_c|; one zero row
    separates consecutive components.  So every pair of neighbouring rows
    either holds consecutive blocks of one component or has a zero row.

    |e1 e2 m> is slot 0 of block m + 2 and |e1 g2 m> slot 1 of block m + 1.
    """
    preps = _preparations(config, n_max)
    populated = [np.flatnonzero(dist.amplitudes) + 1 + q2 for _, q2, dist in preps]
    ks = np.flatnonzero(np.bincount(np.concatenate([np.arange(k[0], k[-1] + 1) for k in populated])))
    psi0 = np.zeros((sum(k[-1] - k[0] + 2 for k in populated) - 1, 4))
    spans, row = [], 0
    for k, (weight, q2, dist) in zip(populated, preps):
        count = k[-1] - k[0] + 1
        psi0[row + k - k[0], 1 - q2] = math.sqrt(weight) * dist.amplitudes[k - 1 - q2]
        block = np.searchsorted(ks, k[0])
        spans.append((slice(row, row + count), slice(block, block + count)))
        row += count + 1
    return ks, psi0, spans


def _block_entropy(parts: np.ndarray) -> np.ndarray:
    """Linear entropy of qubit1 from the rows of ``_initial_blocks`` held as
    real and imaginary parts: a (rows, 8, n) array over n times whose second
    axis runs over the halves with qubit1 excited (slots 0, 1) and ground
    (slots 2, 3), and within each half over the real parts of its two slots,
    then their imaginary parts.

    The coherence pairs the excited half of each row with the ground half of
    the row before, which hold the same qubit2 and oscillator state when both
    rows are blocks of one component; between components one of the two is
    the zero row.
    """
    squares = np.einsum("ksx,ksx->sx", parts, parts)
    rho_ee, rho_gg = squares.reshape(2, 4, -1).sum(axis=1)
    x, y = parts[1:, :4], parts[:-1, 4:]
    # rho_eg = sum x conj(y), whose real part is xr yr + xi yi and imaginary part xi yr - xr yi
    eg_re = np.einsum("ksx,ksx->x", x, y)
    eg_im = np.einsum("ksx,ksx->x", x[:, 2:], y[:, :2]) - np.einsum("ksx,ksx->x", x[:, :2], y[:, 2:])
    return 1.0 - (rho_ee**2 + rho_gg**2 + 2.0 * (eg_re**2 + eg_im**2))


def oracle_entropy_series(config: SystemConfig, cfg: OracleConfig, dense: bool = False) -> TimeSeries:
    """Linear entropy of the system qubit over the configuration's grid,
    via build -> evolve -> reduce -> purity only.

    The default path builds and diagonalizes only the excitation blocks that
    the initial state populates, and gives each mixture component its own
    rows of those blocks (see ``_initial_blocks``).  It walks the grid in
    chunks of at most ``_CHUNK_ENTRIES`` state entries.  The first chunk is
    evolved from each component's initial rows by the blocks they hold
    (``Propagator.evolve_state``) and kept as the real and imaginary parts
    of its coefficients exp(-iEt) V^T psi in the blocks' real eigenvectors
    V.  The chunk starting at times[s] is the first one moved on by
    U(s') = V exp(-iEs') V^T with s' = times[s] - times[0], applied to those
    parts as the real block rotation [[A, B], [-B, A]], A = V cos(Es') and
    B = V sin(Es'); the first chunk is the case s' = 0.
    Each chunk's rotation is built once per block, and each component is
    moved by its slice of it.  That relies on the grid being uniform, which
    ``TimeGrid`` guarantees.  Each chunk is reduced straight from its rows,
    which is algebraically identical to evolving the full density matrix and
    tracing it.  With ``dense=True`` the full-matrix reference path is used
    instead.
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
    ks, psi0, spans = _initial_blocks(config, cfg.n_max)
    prop = Propagator(build_hamiltonian(cfg, ks))
    # the rotations below do not check the phase, so the whole grid is checked here
    check_phase(np.max(np.abs(prop.eigenvalues), initial=0.0), times, "oracle eigenvalue")
    # an empty slot's row and column of H are zero, but eigh may mix it into a
    # degenerate eigenvalue of its block; zeroing its rows of the (real)
    # eigenvectors keeps it out of every chunk
    v = prop.eigenvectors
    v[ks[:, None] < _SLOTS[:, 2]] = 0.0
    first = times[: min(max(1, _CHUNK_ENTRIES // psi0.size), _CHUNK_POINTS)]
    # eigen-coefficients exp(-iEt) V^T psi of the first chunk, rows (rows, 8)
    # of real and imaginary parts and times along the last axis; each
    # component's rows are evolved by the blocks they hold, and the zero rows
    # between components stay zero in every chunk
    coef = np.zeros((psi0.shape[0], 8, first.size))
    for rows, blocks in spans:
        state = prop[blocks].evolve_state(psi0[rows], first)
        parts = (np.swapaxes(v[blocks], -1, -2) @ state.view(float)).reshape(-1, 4, first.size, 2)
        coef[rows].reshape(-1, 2, 4, first.size)[:] = np.moveaxis(parts, -1, 1)
    del state, parts
    # U(s) = V exp(-iEs) V^T on (real, imaginary) parts is the block rotation
    # [[A, B], [-B, A]] of the coefficients, A = V cos(Es) and B = V sin(Es).
    # With its rows in the order of _block_entropy, each entry is one entry of
    # V, negated in -B, times the cosine or sine that ``pick`` names.
    _, p, _, q, j = np.indices((2, 2, 2, 2, 4))  # rows (half, part, slot), columns (part, eigenvector)
    spread = ((1 - 2 * (p > q)) * v.reshape(-1, 2, 1, 2, 1, 4)).reshape(ks.size, 64)
    pick = (j + 4 * (p != q)).reshape(64)
    rotation = np.empty((ks.size, 8, 8))
    moved = np.zeros_like(coef)
    zeta = np.empty(times.size)
    for start in range(0, times.size, first.size):
        n = min(first.size, times.size - start)
        phase = prop.eigenvalues * (times[start] - times[0])
        trig = np.concatenate([np.cos(phase), np.sin(phase)], axis=1)
        np.multiply(spread, trig[:, pick], out=rotation.reshape(ks.size, 64))
        for rows, blocks in spans:
            np.matmul(rotation[blocks], coef[rows, :, :n], out=moved[rows, :, :n])
        zeta[start : start + n] = _block_entropy(moved[..., :n])
    # rounding can land an ulp outside the mathematical range [0, 1/2]
    return TimeSeries(times, np.clip(zeta, 0.0, 0.5, out=zeta))
