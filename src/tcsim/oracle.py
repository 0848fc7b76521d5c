"""Brute-force ground truth on the truncated qubit1 (x) qubit2 (x) oscillator
space: build the numeric Hamiltonian, evolve by eigendecomposition, partial
trace to the system qubit, and read off the purity.  No closed-form
coefficient or frequency enters anywhere in this module.

The dense basis ordering is fixed and load-bearing: the full index is
``(q1 * 2 + q2) * (n_max + 1) + m`` with qubit index 0 = ground and
1 = excited, i.e. qubit1 varies slowest and the oscillator fastest.

Because the coupling conserves the total excitation number, truncating at
n_max >= (oscillator support) + 2 is exact, not approximate: the populated
blocks close on themselves and nothing leaks past the cutoff.  So the dense
reference of ``oracle_entropy_series`` truncates there, and its default path
evolves only those blocks.  It addresses each state by its total excitation
k and its slot in the 4x4 block of k (``_SLOTS``), builds the Hamiltonian on
the blocks the initial state populates, diagonalizes them with one batched
``eigh`` and never forms a state on the full basis, so omega need only keep
the blocks' entries finite.  The initial state is one (components, K, 4)
stack: each mixture component's state on the K blocks, zero outside the
blocks it spans.  The path traces before it moves: it evolves the stack to
the grid's first time once, reduces it to block densities there and carries
those, not the states, to every later time.
``dense=True`` keeps the dense 4(n_max + 1)-dimensional matrix and the full
density matrix as the reference.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EigendecompositionError, TruncationError, ValidationError
from .series import TimeSeries, check_integer, check_phase
from .states import Couplings, FockDistribution, SystemConfig, required_n_max

__all__ = [
    "build_hamiltonian",
    "total_excitation",
    "excitation_block",
    "initial_density",
    "Propagator",
    "reduce_qubit1",
    "purity",
    "oracle_entropy_series",
]

_HERMITICITY_TOL = 1e-12
# Complex entries of one panel of the default path of ``oracle_entropy_series``,
# 1 MB: a tile's densities and phases, sized at 64 per block and chunk start
# or half point, about twice what they take, as the allocator keeps the freed
# arrays of one tile for the next (at 44, binomial M = 400 peaked 0.6 MB
# higher in RSS).  Products stay below 16 * _CHUNK_ENTRIES = 2**20
# multiply-adds, from which OpenBLAS threads them at a loss (up to 8 ms
# against 0.08 ms on one thread of a 2-core host).
_CHUNK_ENTRIES = 2**16
_N_MAX = "n_max must be a non-negative integer, got {!r}"


# The conserved block of total excitation k, one row per slot: qubit1,
# qubit2 and the photon number's depth below k of |e1 e2 k-2>, |e1 g2 k-1>,
# |g1 e2 k-1> and |g1 g2 k>.
_SLOTS = np.array([[1, 1, 2], [1, 0, 1], [0, 1, 1], [0, 0, 0]])


def _terms(couplings: Couplings, omega: float) -> list:
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
    half = 0.5 * omega
    return [
        (omega, i2, i2, number),
        (half, sz, i2, one),
        (half, i2, sz, one),
        (couplings.lambda1, sp, i2, a),
        (couplings.lambda1, sp.T, i2, a_dag),
        (couplings.lambda2, i2, sp, a),
        (couplings.lambda2, i2, sp.T, a_dag),
    ]


def build_hamiltonian(couplings: Couplings, omega: float = 0.0, *, n_max=None,
                      excitations=None) -> np.ndarray:
    """Hamiltonian at the common resonant frequency ``omega`` (0: interaction
    picture), in units hbar = 1:

        H = omega a+a + (omega/2)(sz1 + sz2)
            + lambda1 (a s1+ + a+ s1-) + lambda2 (a s2+ + a+ s2-)

    The matrix is real symmetric and commutes with the total excitation
    operator, which is what makes the truncation exact.

    Takes exactly one of ``n_max`` and ``excitations``.  Given ``n_max`` the
    result is the dense matrix on n_max + 1 oscillator levels.  Given K total
    excitations it is the (K, 4, 4) stack of the conserved blocks, in the
    slot order of ``_SLOTS``, evaluated from the same terms without the
    dense matrix; a slot whose photon number would be negative has a zero
    row and column.  A non-finite entry, from a non-finite omega or an
    overflow, raises ValidationError naming omega and the couplings.
    """
    if (n_max is None) == (excitations is None):
        raise TypeError(f"build_hamiltonian takes exactly one of n_max and excitations, "
                        f"got n_max = {n_max!r}")
    omega = float(omega)
    terms = _terms(couplings, omega)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite entries are reported below
        if excitations is None:
            no = check_integer(n_max, 0, _N_MAX) + 1
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
        raise ValidationError(f"omega = {omega!r}, lambda1 = {couplings.lambda1!r}, lambda2 = "
                              f"{couplings.lambda2!r} overflow or are not finite in the oracle Hamiltonian")
    return h


def excitation_block(couplings: Couplings, n: int) -> np.ndarray:
    """4x4 restriction of the interaction to the conserved block
    {|e1 e2 n>, |e1 g2 n+1>, |g1 e2 n+1>, |g1 g2 n+2>}, for any n >= 0."""
    n = check_integer(n, 0, "block n must be a non-negative integer, got {!r}")
    return build_hamiltonian(couplings, excitations=[n + 2])[0]


def _embed(q2: int, dist: FockDistribution, n_max: int) -> np.ndarray:
    """State vector with qubit1 excited, qubit2 in ``q2`` (1 = excited) and
    the oscillator in ``dist``."""
    osc = np.zeros(n_max + 1)
    osc[: dist.cutoff + 1] = dist.amplitudes
    excited, qubit2 = np.eye(2)[1], np.eye(2)[q2]
    return np.kron(excited, np.kron(qubit2, osc))


def _preparations(config: SystemConfig) -> list[tuple[float, int, FockDistribution]]:
    """(weight, q2, oscillator) of each pure component of the initial state:
    qubit1 excited, qubit2 in ``q2`` (1 = excited), the oscillator in the
    given FockDistribution."""
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
    mixture ``config.oscillator`` of (weight, FockDistribution) pairs.  An
    ``n_max`` below ``required_n_max`` of its support raises TruncationError.
    """
    n_max = check_integer(n_max, 0, _N_MAX)
    support = max(dist.cutoff for _, dist in config.oscillator)
    if n_max < required_n_max(support):
        raise TruncationError(f"n_max = {n_max} too small; oscillator support {support} needs "
                              f"n_max >= {required_n_max(support)}")
    dim = 4 * (n_max + 1)
    rho = np.zeros((dim, dim), dtype=complex)
    for weight, q2, dist in _preparations(config):
        vec = _embed(q2, dist, n_max)
        rho += weight * np.outer(vec, vec.conj())
    return rho


def total_excitation(n_max: int) -> np.ndarray:
    """Operator counting quanta on the dense basis of n_max + 1 oscillator
    levels: a+a + (sz1 + 1)/2 + (sz2 + 1)/2."""
    levels = check_integer(n_max, 0, _N_MAX) + 1
    q, m = np.divmod(np.arange(4 * levels), levels)
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
        """exp(-iHt) for each matrix of the stack.  A phase E * t past
        ``series.PHASE_LIMIT`` raises ValidationError."""
        check_phase(np.max(np.abs(self.eigenvalues), initial=0.0), t, "oracle eigenvalue")
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
        return v @ (c0[..., None] * np.exp(-1j * (self.eigenvalues[..., None] * times)))

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


def _initial_blocks(config: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """The blocks the evolution reads and the state it moves.

    Returns the excitations (K,) of the blocks, ascending, and the
    (components, K, 4) initial stack.  Each mixture component holds its
    state in its blocks from the lowest to the highest it populates, with
    sqrt(weight) folded in, so that rho = sum_c |psi_c><psi_c|, and is zero
    in every other block.  The blocks are those ranges, each built once.

    |e1 e2 m> is slot 0 of block m + 2 and |e1 g2 m> slot 1 of block m + 1.
    """
    preps = _preparations(config)
    populated = [np.flatnonzero(dist.amplitudes) + 1 + q2 for _, q2, dist in preps]
    ks = np.flatnonzero(np.bincount(np.concatenate([np.arange(k[0], k[-1] + 1) for k in populated])))
    psi0 = np.zeros((len(preps), ks.size, 4))
    for c, (k, (weight, q2, dist)) in enumerate(zip(populated, preps)):
        psi0[c, np.searchsorted(ks, k), 1 - q2] = math.sqrt(weight) * dist.amplitudes[k - 1 - q2]
    return ks, psi0


def _blocks_at(config: SystemConfig, omega: float, t: float):
    """The blocks' Propagator, empty slots zeroed in its eigenvectors V; the
    trace of the initial state; and the densities rho_b(t) and rho_b,b-1(t)
    in V, weighted entry by entry by the traced observables A_b and X_b
    (X_0 = 0), i.e. the amplitudes of the lines (RESOLVED_EQUATIONS.md,
    "Trace first, then move").  The component stack is evolved to ``t`` in
    one call and summed over its components; a component stays exactly zero
    outside its blocks, so two components never pair.  At t = 0 the
    imaginary parts are exactly 0."""
    ks, psi0 = _initial_blocks(config)
    prop = Propagator(build_hamiltonian(config.couplings, omega, excitations=ks))
    # an empty slot's row and column of H are zero, but eigh may mix it into a
    # degenerate eigenvalue of its block; zeroing its rows of V keeps it out
    v = prop.eigenvectors
    v[ks[:, None] < _SLOTS[:, 2]] = 0.0
    vt = np.swapaxes(v, -1, -2)
    c = np.matmul(vt, prop.evolve_state(psi0, [t]))  # (components, K, 4, 1)
    rho = np.sum(c * _adjoint(c), axis=0)
    pair = np.zeros_like(rho)
    pair[1:] = np.sum(c[:, 1:] * _adjoint(c[:, :-1]), axis=0)
    a = vt[:, :, :2] @ v[:, :2]
    x = np.concatenate([np.zeros((1, 4, 4)), vt[1:, :, :2] @ v[:-1, 2:]])
    return prop, np.sum(psi0**2), a * rho, x * pair


def _grouped(freq: np.ndarray, amp: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero ``amp`` summed over runs of ascending ``freq`` spaced within
    ``tol``, as (freq, amp); each run sits at its ``freq`` nearest 0."""
    keep = amp != 0.0
    order = np.argsort(freq[keep], kind="stable")
    freq, amp = freq[keep][order], amp[keep][order]
    starts = np.flatnonzero(np.diff(freq, prepend=-np.inf) > tol)
    nearest = np.minimum(np.maximum(freq[starts], 0.0), np.maximum.reduceat(freq, starts))
    return nearest, np.add.reduceat(amp, starts)


def _lines(config: SystemConfig, *, omega: float = 0.0):
    """The lines of rho_ee(t) = sum_w A_w exp(-iwt) and rho_eg(t) = sum_w B_w
    exp(-iwt) at ``omega``, as ((w, A), (w, B)), real and grouped within
    64 eps max|E| (RESOLVED_EQUATIONS.md, "Line spectrum")."""
    prop, _, ee, eg = _blocks_at(config, omega, 0.0)
    e = prop.eigenvalues
    tol = 64.0 * np.finfo(float).eps * np.max(np.abs(e))
    return (_grouped(e[:, :, None] - e[:, None, :], ee.real, tol),
            _grouped(e[1:, :, None] - e[:-1, None, :], eg[1:].real, tol))


def oracle_entropy_series(config: SystemConfig, *, omega: float = 0.0, dense: bool = False) -> TimeSeries:
    """Linear entropy of the system qubit over ``config``'s grid, via build
    -> evolve -> reduce -> purity only, at its couplings and the common
    resonant frequency ``omega`` (0: interaction picture).

    The default path builds and diagonalizes only the excitation blocks that
    the initial state populates, and holds each mixture component's state
    on those blocks in one stack (see ``_initial_blocks``).  It traces before
    it moves: the stack is evolved once, to the grid's first time t0
    (``Propagator.evolve_state``), and reduced to block densities in the
    blocks' real eigenvectors, weighted by each block's traced observables
    (``_blocks_at``).  A density entry then turns by its phase
    exp(-i(E_j - E_j')(s + tau)), tau over a first chunk of about sqrt(T)
    points and s over the chunk starts, and a few real matrix products sum
    the entries at every point.  The formulas are in RESOLVED_EQUATIONS.md,
    "Trace first, then move".
    That relies on the grid being uniform, which ``TimeGrid`` guarantees.
    With ``dense=True`` the full-matrix reference path is used instead, at
    the exact truncation ``required_n_max`` of the oscillator support.
    """
    times = config.grid.times()
    if dense:
        n_max = required_n_max(max(dist.cutoff for _, dist in config.oscillator))
        prop = Propagator(build_hamiltonian(config.couplings, omega, n_max=n_max))
        rho0 = initial_density(config, n_max)
        zeta = np.empty(times.size)
        for i, t in enumerate(times):
            rho_t = prop.evolve_density(rho0, t)
            zeta[i] = 1.0 - purity(reduce_qubit1(rho_t))
        return TimeSeries(times, np.clip(zeta, 0.0, 0.5))
    # the weighted block densities at times[0]
    prop, trace, d_ee, d_eg = _blocks_at(config, omega, times[0])
    # the phases below are not checked one by one, so the grid is checked here
    check_phase(np.max(np.abs(prop.eigenvalues), initial=0.0), times, "oracle eigenvalue")
    # t = times[0] + s + tau, tau over the first chunk's n points and s over
    # the chunk starts, padded to rows of ``width``: s_qw+r = s_qw + s_r
    n = math.isqrt(times.size - 1) + 1
    tau = times[:n] - times[0]
    starts = times[::n] - times[0]
    width = math.isqrt(starts.size - 1) + 1
    padded = width * -(-starts.size // width)
    # rho_ee's share from the populations does not move, nor does the trace;
    # the entries j < j' of rho_b count twice, for their conjugates j' > j
    populations = np.sum(np.trace(d_ee, axis1=1, axis2=2).real)
    j, jp = np.triu_indices(4, 1)
    d_ee = 2.0 * d_ee[:, j, jp]
    paired = d_eg.any()
    rho_ee = np.zeros((padded, n))
    rho_eg = np.zeros((padded, 2, n)) if paired else None  # real and imaginary parts
    energies = np.concatenate([np.zeros((1, 4)), prop.eigenvalues])  # block -1 ahead of block 0
    blocks = prop.eigenvalues.shape[0]
    tile = max(1, min(blocks, _CHUNK_ENTRIES // (64 * max(padded, 2 * n))))
    # the larger product is rho_eg's, (group, 32 tile) x (32 tile, 2 n)
    group = max(1, (16 * _CHUNK_ENTRIES - 1) // (64 * tile * n))
    for b0 in range(0, blocks, tile):
        b1 = min(b0 + tile, blocks)
        e = energies[b0 : b1 + 1]
        # the tile's densities over the first chunk: an entry turns by
        # exp(-i(E_j - E_j')tau) from its value at times[0]
        q = np.exp(-1j * (tau[:, None, None] * e))
        ee = np.empty((n, b1 - b0, 6), dtype=complex)
        np.multiply(q[:, 1:, j], q[:, 1:, jp].conj(), out=ee)
        ee *= d_ee[b0:b1]
        ee = ee.reshape(n, -1).view(float).T
        if paired:
            eg = np.empty((2, n, b1 - b0, 4, 4), dtype=complex)
            np.multiply(q[:, 1:, :, None], q[:, :-1, None, :].conj(), out=eg[0])
            eg[0] *= d_eg[b0:b1]
            # -i times the densities gives Im rho_eg from the same product
            np.multiply(eg[0], -1j, out=eg[1])
            eg = eg.reshape(2 * n, -1).view(float).T
        # the conjugate phases at every chunk start: their real view against
        # the densities' is the real part of the sum over the entries
        zc = np.exp(1j * (starts[::width, None, None, None] * e)) * np.exp(1j * (starts[:width, None, None] * e))
        zc = zc.reshape(padded, -1, 4)
        z = zc.conj()
        p_ee = np.empty((padded, b1 - b0, 6), dtype=complex)
        np.multiply(zc[:, 1:, j], z[:, 1:, jp], out=p_ee)
        p_ee = p_ee.reshape(padded, -1).view(float)
        if paired:
            p_eg = np.empty((padded, b1 - b0, 4, 4), dtype=complex)
            np.multiply(zc[:, 1:, :, None], z[:, :-1, None, :], out=p_eg)
            p_eg = p_eg.reshape(padded, -1).view(float)
        for o in range(0, padded, group):
            rho_ee[o : o + group] += np.matmul(p_ee[o : o + group], ee)
            if paired:
                rho_eg[o : o + group] += np.matmul(p_eg[o : o + group], eg).reshape(-1, 2, n)
    # zeta = 1 - (Tr rho)^2 / 2 - 2 (rho_ee - Tr rho / 2)^2 - 2 |rho_eg|^2, in place
    rho_ee += populations - trace / 2
    np.square(rho_ee, out=rho_ee)
    if paired:
        np.square(rho_eg, out=rho_eg)
        rho_ee += rho_eg[:, 0]
        rho_ee += rho_eg[:, 1]
    rho_ee *= -2.0
    rho_ee += 1.0 - trace**2 / 2
    zeta = rho_ee.reshape(-1)[: times.size]
    # rounding can land an ulp outside the mathematical range [0, 1/2]
    return TimeSeries(times, np.clip(zeta, 0.0, 0.5, out=zeta))
