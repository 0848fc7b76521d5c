"""Initial-state descriptions: oscillator amplitude distributions over Fock
states, the two-level environment mixture, coupling constants, the full
system configuration consumed by the closed-form and oracle pipelines, and
the oracle's exact truncation (``required_n_max``), kept here so that a
scenario reports it without importing the oracle.  Both pipelines read the
environment's branches and the oscillator's support here.

Oscillator amplitudes are real by convention; all constructors normalize and
freeze them. Times are measured in units of 1/lambda1 throughout.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .series import check_finite, check_integer, check_probability

# Norm drift below this is treated as rounding and silently repaired;
# anything larger is a user error.
NORM_DRIFT_LIMIT = 1e-9


@dataclass(frozen=True)
class FockDistribution:
    """Real amplitudes B_0..B_cutoff of a pure oscillator state.

    The stored amplitudes always satisfy sum(B_n^2) == 1 to machine
    precision; construction repairs drift up to ``NORM_DRIFT_LIMIT`` and
    rejects anything worse.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.amplitudes)
        if np.iscomplexobj(raw):
            raise ValidationError("amplitudes must be real")
        try:
            amps = raw.astype(float)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"amplitudes must be real numbers: {exc}") from exc
        if amps.ndim != 1 or amps.size == 0:
            raise ValidationError("amplitudes must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(amps)):
            raise ValidationError("amplitudes must be finite")
        # checked before the norm, whose square could overflow: an amplitude
        # past 1 + NORM_DRIFT_LIMIT puts the norm^2 past it as well
        peak = float(np.max(np.abs(amps)))
        if peak > 1.0 + NORM_DRIFT_LIMIT:
            raise ValidationError(
                f"amplitude {peak!r} exceeds 1 by more than {NORM_DRIFT_LIMIT}"
            )
        norm_sq = float(np.dot(amps, amps))
        if abs(norm_sq - 1.0) > NORM_DRIFT_LIMIT:
            raise ValidationError(
                f"amplitude norm^2 = {norm_sq!r} differs from 1 by more than "
                f"{NORM_DRIFT_LIMIT}"
            )
        amps = amps / math.sqrt(norm_sq)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def cutoff(self) -> int:
        """Highest Fock index carried by the distribution."""
        return self.amplitudes.size - 1

    def probabilities(self) -> np.ndarray:
        return self.amplitudes**2

    def mean_excitation(self) -> float:
        n = np.arange(self.amplitudes.size)
        return float(np.dot(n, self.probabilities()))

    def excitation_variance(self) -> float:
        n = np.arange(self.amplitudes.size)
        p = self.probabilities()
        mean = float(np.dot(n, p))
        return float(np.dot((n - mean) ** 2, p))


@dataclass(frozen=True)
class EnvironmentMixture:
    """Probability p that the environment qubit starts excited."""

    p: float

    def __post_init__(self):
        object.__setattr__(self, "p", check_probability(self.p, "p"))

    def branches(self) -> list[tuple[float, int]]:
        """(weight, s) of each environment state of nonzero weight, the one
        table both pipelines read: s = 0 is the excited state, of weight p,
        and s = 1 the ground state, of weight 1 - p."""
        return [(w, s) for s, w in enumerate((self.p, 1.0 - self.p)) if w != 0.0]


@dataclass(frozen=True)
class Couplings:
    """Qubit-oscillator coupling constants, in inverse-time units."""

    lambda1: float
    lambda2: float

    def __post_init__(self):
        for name in ("lambda1", "lambda2"):
            value = check_finite(getattr(self, name), name)
            if value < 0:
                raise ValidationError(f"{name} = {value!r} must be non-negative")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform evaluation grid  t_start .. t_end  with n_points samples."""

    t_start: float
    t_end: float
    n_points: int

    def __post_init__(self):
        try:
            finite = math.isfinite(self.t_start) and math.isfinite(self.t_end)
        except TypeError:  # not a real number, as None or "1"
            finite = False
        if not finite:
            raise ValidationError("grid endpoints must be finite")
        if self.t_start < 0 or self.t_end <= self.t_start:
            raise ValidationError(
                f"need t_end > t_start >= 0, got [{self.t_start}, {self.t_end}]"
            )
        n_points = check_integer(self.n_points, 2, "n_points = {!r} must be an integer >= 2")
        object.__setattr__(self, "t_start", float(self.t_start))
        object.__setattr__(self, "t_end", float(self.t_end))
        object.__setattr__(self, "n_points", n_points)

    def times(self) -> np.ndarray:
        try:
            return np.linspace(self.t_start, self.t_end, self.n_points)
        except (MemoryError, ValueError) as exc:  # numpy's ValueError: past its size limit
            raise ValidationError(
                f"a grid of {self.n_points} points does not fit in memory"
            ) from exc


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to evaluate one scenario: oscillator preparation,
    environment mixedness, couplings, and the time grid.

    ``oscillator`` is the mixture sum_k weight_k |psi_k><psi_k|, stored as a
    tuple of (weight, FockDistribution) pairs.  A bare FockDistribution is
    the pure preparation and is stored as ``((1.0, dist),)``.
    """

    oscillator: tuple[tuple[float, FockDistribution], ...]
    env: EnvironmentMixture
    couplings: Couplings
    grid: TimeGrid

    def __post_init__(self):
        osc = self.oscillator
        if isinstance(osc, FockDistribution):
            osc = ((1.0, osc),)
        object.__setattr__(self, "oscillator", check_components(osc))
        if self.couplings.lambda1 <= 0:
            raise ValidationError("lambda1 must be positive for a nontrivial scenario")

    @property
    def support(self) -> int:
        """Highest Fock index of any oscillator component, of weight 0 too."""
        return max(dist.cutoff for _, dist in self.oscillator)


def required_n_max(support_cutoff: int) -> int:
    """Smallest exact truncation for an oscillator support ending at
    ``support_cutoff``: two extra levels hold the fully de-excited states."""
    return support_cutoff + 2


def _levels(make, count: int) -> np.ndarray:
    """``make(count)`` for an array over ``count`` Fock levels; a count that
    does not fit in memory raises ValidationError."""
    try:
        return make(count)
    except (MemoryError, ValueError) as exc:  # numpy's ValueError: past its size limit
        raise ValidationError(f"a support of {count} Fock levels does not fit in memory") from exc


def number_state(n: int) -> FockDistribution:
    """Distribution with all weight on Fock state ``n``."""
    n = check_integer(n, 0, "number state index must be a non-negative integer, got {!r}")
    amps = _levels(np.zeros, n + 1)
    amps[n] = 1.0
    return FockDistribution(amps)


def binomial_state(m: int, q: float) -> FockDistribution:
    """Binomially weighted superposition of Fock states 0..m.

    B_n = sqrt(C(m, n) q^n (1-q)^(m-n)).  Coefficients are assembled in
    log space so that m of a few hundred stays well conditioned.

    Parameters
    ----------
    m : int
        Maximum excitation number, >= 1.
    q : float
        Single-excitation probability in [0, 1].  q = 1 reduces exactly to
        ``number_state(m)`` and q = 0 to the vacuum.
    """
    m = check_integer(m, 1, "m must be a positive integer, got {!r}")
    q = check_probability(q, "q")
    if q == 0.0:
        return number_state(0)
    if q == 1.0:
        return number_state(m)
    n = _levels(np.arange, m + 1)
    log_binom = np.array(
        [math.lgamma(m + 1) - math.lgamma(m - k + 1) - math.lgamma(k + 1) for k in n]
    )
    log_p = log_binom + n * math.log(q) + (m - n) * math.log1p(-q)
    amps = np.exp(0.5 * log_p)
    return FockDistribution(amps / math.sqrt(float(np.dot(amps, amps))))


def check_components(components) -> tuple[tuple[float, FockDistribution], ...]:
    """The oscillator mixture sum_k weight_k |psi_k><psi_k| given as
    (weight, FockDistribution) pairs, as a tuple; raises ValidationError,
    naming the component, unless each is a pair of a real weight and a
    FockDistribution, and unless the weights are non-negative and sum to 1."""
    try:
        components = tuple(components)
    except TypeError:
        raise ValidationError(f"oscillator {components!r} is neither a FockDistribution "
                              f"nor a sequence of (weight, FockDistribution) pairs") from None
    pairs = []
    for i, component in enumerate(components):
        try:
            w, dist = component
        except (TypeError, ValueError):
            w = dist = None
        if not (isinstance(w, numbers.Real) and isinstance(dist, FockDistribution)):
            raise ValidationError(f"oscillator component {i}, {component!r}, "
                                  f"is not a (weight, FockDistribution) pair")
        pairs.append((w, dist))
    components = tuple(pairs)
    weights = np.array([w for w, _ in components], dtype=float)
    if not (np.all(weights >= 0) and abs(weights.sum() - 1.0) <= 1e-12):
        raise ValidationError(
            f"mixture weights {weights.tolist()} must be non-negative and sum to 1"
        )
    return components


def fano_factor(dist: FockDistribution) -> float:
    """Excitation-number variance divided by its mean.

    Raises
    ------
    ValidationError
        For a vacuum-only distribution, where the mean excitation is zero.
    """
    mean = dist.mean_excitation()
    if mean == 0.0:
        raise ValidationError("Fano factor is undefined at zero mean excitation")
    return dist.excitation_variance() / mean


def validate(config: SystemConfig) -> SystemConfig:
    """Re-run every invariant check and return a clean configuration.

    Amplitude norm drift below ``NORM_DRIFT_LIMIT`` is repaired; anything
    larger, and any probability or grid violation, raises
    ``ValidationError``.
    """
    return SystemConfig(
        oscillator=[(w, FockDistribution(np.array(dist.amplitudes))) for w, dist in config.oscillator],
        env=EnvironmentMixture(config.env.p),
        couplings=Couplings(config.couplings.lambda1, config.couplings.lambda2),
        grid=TimeGrid(config.grid.t_start, config.grid.t_end, config.grid.n_points),
    )
