"""Exact closed-form dynamics of the resonant two-qubit/oscillator system.

Each total-excitation sector splits into four-level blocks

    |e1 e2 n>, |e1 g2 n+1>, |g1 e2 n+1>, |g1 g2 n+2>        (block index n)

whose frequencies come in two pairs +-d_plus, +-d_minus.  The propagator
column starting from |e1 e2 n> gives the "unprimed" coefficient quad; the
column starting from |e1 g2 n> lives in the block with index n-1 and gives
the "primed" quad.  One evaluation of block m yields the columns read of
it, the unprimed quad at n = m and the primed quad at n = m + 1, each entry
real or -i times real.  From the quads, the reduced single-qubit
populations (alpha, beta) and coherence (gamma) assemble the linear entropy

    zeta = 1 - (alpha^2 + beta^2 + 2 |gamma|^2).

All spectral quantities below are evaluated in cancellation-free form so the
degenerate limits (equal couplings, decoupled environment, block index -1)
come out exact rather than within sqrt(eps).  The resolved coefficient
formulas and the tests pinning them are documented in RESOLVED_EQUATIONS.md.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .series import CHUNK_POINTS, TimeSeries, check_integer, check_phase
from .states import Couplings, SystemConfig

__all__ = [
    "SpectralParams",
    "spectral_params",
    "entropy_series",
    "mixture_entropy_arrays",
]

# np.sinc's stand-in for a zero argument.
_EPS = np.finfo(float).eps

# Density-band entries below this are left out of the closed form: each one
# left out moves alpha, beta and Im gamma by less than it (see
# RESOLVED_EQUATIONS.md, "One evaluation per block").
_NEGLIGIBLE = _EPS * _EPS


@dataclass(frozen=True)
class SpectralParams:
    """Spectral data of the four-level block with index ``n``.

    ``D`` is the square root of the discriminant separating the two
    frequency pairs; ``d_plus >= d_minus >= 0`` are the block frequencies;
    ``a_plus/a_minus`` and ``b_plus/b_minus`` are the associated spectral
    weights.  Exact identities: a_plus + a_minus = b_plus + b_minus = 2 D.
    """

    n: int
    D: float
    d_plus: float
    d_minus: float
    a_plus: float
    a_minus: float
    b_plus: float
    b_minus: float


def spectral_params(n: int, couplings: Couplings) -> SpectralParams:
    """Spectral parameters of the block with index ``n`` (n >= -1).

    Index -1 only arises for the primed branch at oscillator index 0, where
    the top block level does not exist; there D = lambda1^2 + lambda2^2 and
    d_minus = 0 exactly.

    All quantities are computed through product identities rather than
    differences of near-equal terms:

        D^2        = (l1^2 - l2^2)^2 + 4 (2n+3)^2 l1^2 l2^2
        d_minus^2  = 2 (n+1)(n+2) (l1^2 - l2^2)^2 / ((2n+3) s + D)
        a_minus    = 16 l1^2 l2^2 (n+1)(n+2) / a_plus
        b_-+       = 4 (2n+3)^2 l1^2 l2^2 / b_+-

    with s = l1^2 + l2^2, so equal couplings give d_minus = 0 exactly and a
    decoupled environment gives a_minus = b_minus = 0 exactly.  Couplings
    too large for D^2 or the frequencies to fit in double precision, or
    nonzero couplings so small that D^2 falls below the smallest normal
    double, raise ValidationError; exactly zero couplings give all zeros.
    """
    n = check_integer(n, -1, "block index must be an integer >= -1, got {!r}")
    l1, l2 = couplings.lambda1, couplings.lambda2
    s = l1 * l1 + l2 * l2
    r = l1 * l1 - l2 * l2
    k = 2 * n + 3
    try:
        cross = 4.0 * (k * l1 * l2) ** 2
    except OverflowError:  # float ** raises where * would give inf
        cross = math.inf
    d_sq = r * r + cross  # >= 0, +inf or NaN; the finiteness check below rejects the last two
    if l1 == 0.0 and l2 == 0.0:
        return SpectralParams(n, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    if d_sq < sys.float_info.min:  # D^2 underflows: D and the weights would be wrong or 0
        raise ValidationError(
            f"couplings lambda1 = {l1!r}, lambda2 = {l2!r} underflow double precision "
            f"in block {n}"
        )
    big_d = math.sqrt(d_sq)
    denom = k * s + big_d
    d_plus = math.sqrt(0.5 * denom)
    d_minus = math.sqrt(2.0 * (n + 1) * (n + 2) * r * r / denom)
    if not (math.isfinite(big_d) and math.isfinite(d_plus) and math.isfinite(d_minus)):
        raise ValidationError(
            f"couplings lambda1 = {l1!r}, lambda2 = {l2!r} overflow double precision "
            f"in block {n}"
        )
    a_plus = big_d + s
    a_minus = 16.0 * (l1 * l2) ** 2 * (n + 1) * (n + 2) / a_plus
    if r >= 0:
        b_plus = big_d + r
        b_minus = cross / b_plus
    else:
        b_minus = big_d - r
        b_plus = cross / b_minus
    return SpectralParams(n, big_d, d_plus, d_minus, a_plus, a_minus, b_plus, b_minus)


def _cos_and_sin_over_freq(freq: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos(freq t) and sin(freq t) / freq, continued to t at freq == 0, from
    one product u = freq t.  The second is t * np.sinc(freq * t / pi) with
    np.sinc's operations written out in its order, y = (u / pi) pi with 0
    replaced by eps and sin(y) / y, so its bits are np.sinc's without the
    where, finfo and extra passes of its wrapper."""
    u = freq * t
    y = u / np.pi
    y *= np.pi
    y[y == 0.0] = _EPS
    sin = np.sin(y)
    sin /= y
    sin *= t
    return np.cos(u), sin


def _check_times(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValidationError("times must be finite")
    if np.any(t < 0):
        raise ValidationError("times must be non-negative")
    return t


def _block_columns(sp: SpectralParams, sides: tuple[bool, bool], couplings: Couplings,
                   t: np.ndarray):
    """The propagator columns of block ``m = sp.n`` named by ``sides``, at
    times ``t``, as real arrays, and None for a column not named.

    The first is the unprimed quad at n = m (start |e1 e2 m>), the second
    the primed quad at n = m + 1 (start |e1 g2 m+1>), both from one set of
    cos and sin arrays.  c1, c4, c'2 and c'3 are returned as they are; c2,
    c3, c'1 and c'4 are -i times the returned value.  At m = -1 the
    |e1 e2 -1> level does not exist: c'1 vanishes identically because the
    x = sqrt(m + 1) prefactor is zero, with d_minus = 0 enforcing the same
    degeneracy spectrally.  The caller has checked the phase with
    ``_block_params``, and ``sp.D > 0``: ``SystemConfig`` rejects
    lambda1 <= 0 and ``spectral_params`` raises before D^2 underflows.
    """
    m = sp.n
    l1, l2 = couplings.lambda1, couplings.lambda2
    x = math.sqrt(m + 1.0)
    y = math.sqrt(m + 2.0)
    ssum = x * x + y * y  # 2m + 3
    cos_p, sin_p = _cos_and_sin_over_freq(sp.d_plus, t)
    cos_m, sin_m = _cos_and_sin_over_freq(sp.d_minus, t)
    inv2d = 0.5 / sp.D
    unprimed = (
        (sp.a_minus * cos_p + sp.a_plus * cos_m) * inv2d,
        inv2d * (
            (l2 * x * sp.a_minus + 4.0 * l1 * l1 * l2 * x * y * y) * sin_p
            + (l2 * x * sp.a_plus - 4.0 * l1 * l1 * l2 * x * y * y) * sin_m
        ),
        inv2d * (
            (l1 * x * sp.a_minus + 4.0 * l1 * l2 * l2 * x * y * y) * sin_p
            + (l1 * x * sp.a_plus - 4.0 * l1 * l2 * l2 * x * y * y) * sin_m
        ),
        (2.0 * l1 * l2 * x * y / sp.D) * (cos_p - cos_m),
    ) if sides[0] else None
    primed = (
        inv2d * (
            (l2 * x * sp.b_plus + 2.0 * l1 * l1 * l2 * x * ssum) * sin_p
            + (l2 * x * sp.b_minus - 2.0 * l1 * l1 * l2 * x * ssum) * sin_m
        ),
        (sp.b_plus * cos_p + sp.b_minus * cos_m) * inv2d,
        (l1 * l2 * ssum / sp.D) * (cos_p - cos_m),
        inv2d * (
            (l1 * y * sp.b_plus + 2.0 * l1 * l2 * l2 * y * ssum) * sin_p
            + (l1 * y * sp.b_minus - 2.0 * l1 * l2 * l2 * y * ssum) * sin_m
        ),
    ) if sides[1] else None
    return unprimed, primed


def _density_bands(oscillator) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal P_n and first off-diagonal C_n of the oscillator density
    matrix, with every |C_n| below ``_NEGLIGIBLE`` set to 0, and every P_n
    below it whose C_n is then 0: the terms walk only the nonzero entries.
    A P_n with a coherence is kept, since |C_n| <= sqrt(P_n P_{n+1}) can
    exceed P_n by far."""
    P, C = np.zeros((2, 1 + max(dist.cutoff for _, dist in oscillator)))  # C[-1] stays 0
    for weight, dist in oscillator:
        P[: dist.cutoff + 1] += weight * dist.probabilities()
        C[: dist.cutoff] += weight * dist.amplitudes[:-1] * dist.amplitudes[1:]
    C[np.abs(C) < _NEGLIGIBLE] = 0.0
    P[(P < _NEGLIGIBLE) & (C == 0.0)] = 0.0
    return P, C


def _branches(p: float) -> list[tuple[float, int]]:
    """(weight, side) of each environment branch of nonzero weight, as
    ``oracle._preparations`` keeps them: the excited branch (weight p) reads
    the unprimed side 0 of the block columns, the ground branch (weight
    1 - p) the primed side 1.  At index n, branch side s reads side s of
    block n - s, and with a coherence of block n - s + 1 as well."""
    return [(w, side) for side, w in enumerate((p, 1.0 - p)) if w != 0.0]


def _block_params(config: SystemConfig, bands,
                  t: np.ndarray) -> dict[int, tuple[SpectralParams, tuple[bool, bool]]]:
    """Spectral params of every block the terms read over the times ``t``,
    with the sides (unprimed, primed) they read of it, in ascending block
    order: each block is evaluated once, and a block no branch of nonzero
    weight reads is not.  A phase d_plus * t past ``series.PHASE_LIMIT`` at
    the largest of the times ``t`` raises ValidationError.  Past it the
    t-linear terms of a block with d_minus = 0, whose coefficients vanish
    only up to rounding, would also grow to overflow."""
    P, C = bands
    t_max = float(np.max(t, initial=0.0))  # so each check names the largest t
    # read[s, m + 1]: side s of block m is read (-1 <= m < len(P)); C[-1] is 0
    read = np.zeros((2, P.size + 1), dtype=bool)
    for _, s in _branches(config.env.p):
        read[s, 1 - s:][:P.size] |= P != 0.0
        read[s, 2 - s:][:P.size - 1] |= C[:-1] != 0.0
    params = {}
    for m in (np.flatnonzero(read[0] | read[1]) - 1).tolist():
        sp = spectral_params(m, config.couplings)
        check_phase(sp.d_plus, t_max, f"block {m}")
        params[m] = sp, tuple(read[:, m + 1].tolist())
    return params


def _terms(config: SystemConfig, bands,
           params: dict[int, tuple[SpectralParams, tuple[bool, bool]]],
           t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """alpha, beta and Im gamma over ``t`` from the density bands and the
    params of ``_block_params``: every product is real or -i times real, so
    gamma is i times a real array.  Each index sums w X over the branches
    (w, X) of ``_branches``, p X + (1 - p) Y when both are kept.  Each block
    is formed once, with the sides read of it, and dropped once no later
    index reads it."""
    P, C = bands
    branches = _branches(config.env.p)
    alpha = np.zeros_like(t)
    beta = np.zeros_like(t)
    gamma_im = np.zeros_like(t)
    blocks = {}
    for n in np.flatnonzero(P).tolist():
        # index n reads blocks n - 1 .. n + 1 of the table, and blocks below
        # n - 1 are read by no index from n on
        for m in [m for m in blocks if m < n - 1]:
            del blocks[m]
        for m in range(n - 1, n + 2):
            if m in params and m not in blocks:
                blocks[m] = _block_columns(*params[m], config.couplings, t)
        coherent = C[n] != 0.0
        a = b = g = None
        for w, s in branches:
            c1, c2, c3, c4 = blocks[n - s][s]
            x, y = w * (c3**2 + c4**2), w * (c1**2 + c2**2)
            a, b = (x, y) if a is None else (a + x, b + y)
            if coherent:
                d1, d2, _, _ = blocks[n - s + 1][s]
                # the primed side's coherence has the opposite sign
                z = w * (c4 * d2 - c3 * d1 if s == 0 else c3 * d1 - c4 * d2)
                g = z if g is None else g + z
        alpha += P[n] * a
        beta += P[n] * b
        if coherent:
            gamma_im += C[n] * g
    return alpha, beta, gamma_im


def mixture_entropy_arrays(config: SystemConfig, t) -> np.ndarray:
    """Linear entropy of the system qubit over an array of times, always in
    [0, 0.5], for any oscillator preparation, pure or mixed: the
    reduced-qubit terms are formed once from the oscillator's density bands,
    then the entropy from them.

    The grid is walked in slices of ``series.CHUNK_POINTS`` times, so only the
    returned array grows with its length; each block's spectral params are
    formed, and its phase checked over the whole grid, once before the walk.
    Only the blocks that the kept indices of ``_density_bands`` read in an
    environment branch of nonzero weight are evaluated and checked.
    """
    t = np.atleast_1d(_check_times(t))
    bands = _density_bands(config.oscillator)
    params = _block_params(config, bands, t)
    zeta = np.empty_like(t)
    for start in range(0, len(t), CHUNK_POINTS):
        part = slice(start, start + CHUNK_POINTS)
        alpha, beta, gamma_im = _terms(config, bands, params, t[part])
        # rounding can land an ulp outside the mathematical range [0, 1/2]
        np.clip(1.0 - alpha**2 - beta**2 - 2.0 * gamma_im**2, 0.0, 0.5, out=zeta[part])
    return zeta


def entropy_series(config: SystemConfig) -> TimeSeries:
    """Linear entropy evaluated over the configuration's time grid."""
    times = config.grid.times()
    return TimeSeries(times, mixture_entropy_arrays(config, times))

