"""Exact closed-form dynamics of the resonant two-qubit/oscillator system.

Each total-excitation sector splits into four-level blocks

    |e1 e2 n>, |e1 g2 n+1>, |g1 e2 n+1>, |g1 g2 n+2>        (block index n)

whose frequencies come in two pairs +-d_plus, +-d_minus.  The propagator
column starting from |e1 e2 n> gives the "unprimed" coefficient quad; the
column starting from |e1 g2 n> lives in the block with index n-1 and gives
the "primed" quad.  One evaluation of block m yields both of its columns,
the unprimed quad at n = m and the primed quad at n = m + 1, each entry
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
from .series import TimeSeries, check_integer, check_phase
from .states import Couplings, FockDistribution, SystemConfig

__all__ = [
    "SpectralParams",
    "spectral_params",
    "entropy_series",
    "mixture_entropy_arrays",
    "frequency_content",
]

# Most branch frequencies ``frequency_content`` takes the closure of.
_MAX_BASE = 40

# Grid points per slice of ``mixture_entropy_arrays``: its working memory is
# a few blocks of eight arrays of this length, whatever the grid length.
_CHUNK_POINTS = 8192


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


def _sin_over_freq(freq: float, t: np.ndarray) -> np.ndarray:
    # sin(freq * t) / freq, continued to t at freq == 0
    return t * np.sinc(freq * t / np.pi)


def _check_times(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValidationError("times must be finite")
    if np.any(t < 0):
        raise ValidationError("times must be non-negative")
    return t


def _checked_params(m: int, couplings: Couplings, t) -> SpectralParams:
    """``spectral_params`` of block ``m``; a phase d_plus * t past
    ``series.PHASE_LIMIT`` at the largest of the times ``t`` raises
    ValidationError.  Past it the t-linear terms of a block with
    d_minus = 0, whose coefficients vanish only up to rounding, would also
    grow to overflow."""
    sp = spectral_params(m, couplings)
    check_phase(sp.d_plus, t, f"block {m}")
    return sp


def _block_columns(sp: SpectralParams, couplings: Couplings, t: np.ndarray):
    """Both propagator columns of block ``m = sp.n`` at times ``t``, as real arrays.

    The first is the unprimed quad at n = m (start |e1 e2 m>), the second
    the primed quad at n = m + 1 (start |e1 g2 m+1>).  c1, c4, c'2 and c'3
    are returned as they are; c2, c3, c'1 and c'4 are -i times the returned
    value.  At m = -1 the |e1 e2 -1> level does not exist: c'1 vanishes
    identically because the x = sqrt(m + 1) prefactor is zero, with
    d_minus = 0 enforcing the same degeneracy spectrally.  The caller has
    checked the phase with ``_checked_params``, and ``sp.D > 0``:
    ``SystemConfig`` rejects lambda1 <= 0 and ``spectral_params`` raises
    before D^2 underflows.
    """
    m = sp.n
    l1, l2 = couplings.lambda1, couplings.lambda2
    x = math.sqrt(m + 1.0)
    y = math.sqrt(m + 2.0)
    ssum = x * x + y * y  # 2m + 3
    cos_p = np.cos(sp.d_plus * t)
    cos_m = np.cos(sp.d_minus * t)
    sin_p = _sin_over_freq(sp.d_plus, t)
    sin_m = _sin_over_freq(sp.d_minus, t)
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
    )
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
    )
    return unprimed, primed


def _density_bands(oscillator) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal P_n and first off-diagonal C_n of the oscillator density matrix."""
    P, C = np.zeros((2, 1 + max(dist.cutoff for _, dist in oscillator)))  # C[-1] stays 0
    for weight, dist in oscillator:
        P[: dist.cutoff + 1] += weight * dist.probabilities()
        C[: dist.cutoff] += weight * dist.amplitudes[:-1] * dist.amplitudes[1:]
    return P, C


def _block_params(bands, couplings: Couplings, t: np.ndarray) -> dict[int, SpectralParams]:
    """Phase-checked spectral params of every block the terms read over the
    times ``t``, evaluated once each, in the order the terms first read them:
    index n reads blocks n - 1 and n, and with a coherence n + 1 as well."""
    P, C = bands
    t_max = float(np.max(t, initial=0.0))  # so each check names the largest t
    params = {}
    for n in np.flatnonzero(P).tolist():
        for m in range(n - 1, n + 1 + (C[n] != 0.0)):
            if m not in params:
                params[m] = _checked_params(m, couplings, t_max)
    return params


def _terms(config: SystemConfig, bands, params: dict[int, SpectralParams],
           t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """alpha, beta and Im gamma over ``t`` from the density bands and the
    params of ``_block_params``: every product is real or -i times real, so
    gamma is i times a real array.  Each block's columns are formed once and
    dropped once no later index reads them."""
    p, couplings = config.env.p, config.couplings
    P, C = bands
    alpha = np.zeros_like(t)
    beta = np.zeros_like(t)
    gamma_im = np.zeros_like(t)
    blocks = {}
    for n in np.flatnonzero(P).tolist():
        # blocks below n - 1 are left over after a gap in the populated n
        for m in [m for m in blocks if m < n - 1]:
            del blocks[m]
        coherent = C[n] != 0.0
        for m in range(n - 1, n + 1 + coherent):
            if m not in blocks:
                blocks[m] = _block_columns(params[m], couplings, t)
        (c1, c2, c3, c4), _ = blocks[n]
        _, (k1, k2, k3, k4) = blocks.pop(n - 1)
        alpha += P[n] * (p * (c3**2 + c4**2) + (1.0 - p) * (k3**2 + k4**2))
        beta += P[n] * (p * (c1**2 + c2**2) + (1.0 - p) * (k1**2 + k2**2))
        if coherent:
            (d1, d2, _, _), _ = blocks[n + 1]
            _, (e1, e2, _, _) = blocks[n]
            gamma_im += C[n] * (p * (c4 * d2 - c3 * d1) + (1.0 - p) * (k3 * e1 - k4 * e2))
    return alpha, beta, gamma_im


def mixture_entropy_arrays(config: SystemConfig, t) -> np.ndarray:
    """Linear entropy of the system qubit over an array of times, always in
    [0, 0.5], for any oscillator preparation, pure or mixed: the
    reduced-qubit terms are formed once from the oscillator's density bands,
    then the entropy from them.

    The grid is walked in slices of ``_CHUNK_POINTS`` times, so only the
    returned array grows with its length; each block's spectral params are
    formed, and its phase checked over the whole grid, once before the walk.
    """
    t = np.atleast_1d(_check_times(t))
    bands = _density_bands(config.oscillator)
    params = _block_params(bands, config.couplings, t)
    zeta = np.empty_like(t)
    for start in range(0, len(t), _CHUNK_POINTS):
        part = slice(start, start + _CHUNK_POINTS)
        alpha, beta, gamma_im = _terms(config, bands, params, t[part])
        # rounding can land an ulp outside the mathematical range [0, 1/2]
        np.clip(1.0 - alpha**2 - beta**2 - 2.0 * gamma_im**2, 0.0, 0.5, out=zeta[part])
    return zeta


def entropy_series(config: SystemConfig) -> TimeSeries:
    """Linear entropy evaluated over the configuration's time grid."""
    times = config.grid.times()
    return TimeSeries(times, mixture_entropy_arrays(config, times))


def _error_model(config: SystemConfig) -> tuple[float, float, float]:
    """(C, floor, d_max) of the closed-vs-oracle error model
    |zeta_closed - zeta_oracle| <= C eps d_max t_max + floor (see
    RESOLVED_EQUATIONS.md); d_plus grows with the block index, so d_max is
    that of block cutoff + 1, the last one the oracle's truncation holds."""
    cutoff = max(dist.cutoff for _, dist in config.oscillator)
    return 4.0, 2e-14, spectral_params(cutoff + 1, config.couplings).d_plus


def branch_frequencies(dist: FockDistribution, couplings: Couplings) -> np.ndarray:
    """Sorted unique block frequencies {d_plus, d_minus} of both evolution
    branches over the distribution's support: blocks n and n - 1 of every
    populated n."""
    populated = np.flatnonzero(dist.amplitudes).tolist()
    blocks = sorted({m for n in populated for m in (n - 1, n)})
    params = [spectral_params(m, couplings) for m in blocks]
    return np.array(sorted({f for sp in params for f in (sp.d_plus, sp.d_minus)}))


def frequency_content(dist: FockDistribution, couplings: Couplings) -> np.ndarray:
    """Predicted discrete frequencies of the entropy signal.

    The coefficient quads oscillate at the branch frequencies; their squared
    magnitudes (the populations) therefore contain all pairwise sums and
    differences of those, and the entropy, quadratic in the populations,
    contains pairwise sums and differences taken once more.  The returned
    array is that two-level closure, sorted and deduplicated.

    ``_MAX_BASE`` caps the branch-frequency count; the closure grows with its
    fourth power and is only meaningful for small supports.
    """
    base = branch_frequencies(dist, couplings)
    if base.size > _MAX_BASE:
        raise ValidationError(
            f"support yields {base.size} branch frequencies; "
            f"frequency_content is limited to {_MAX_BASE}"
        )
    level1 = np.concatenate([np.add.outer(base, base).ravel(),
                             np.abs(np.subtract.outer(base, base)).ravel()])
    level1 = np.unique(np.round(level1, 12))
    level2 = np.concatenate([np.add.outer(level1, level1).ravel(),
                             np.abs(np.subtract.outer(level1, level1)).ravel()])
    return np.unique(np.round(level2, 12))
