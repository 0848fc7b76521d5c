"""Single-qubit/oscillator closed forms: resonant amplitudes for one Fock
component and the qubit linear entropy for a number state or for the
vacuum/one-photon mixed oscillator preparation.

Only the coupling-induced frequencies appear; free-evolution phases drop out
of the reduced qubit purity and are omitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .series import CHUNK_POINTS, check_integer, check_phase, check_probability, check_times


@dataclass(frozen=True)
class JcAmplitudes:
    """Amplitudes of one resonant qubit-oscillator branch.

    ``c_excited`` multiplies |e, n> and ``c_ground`` multiplies |g, n+1>.
    The ground amplitude carries the -i phase of the excitation-exchange
    generator so that amplitude-level comparisons against brute-force
    evolution need no per-branch phase fitting.
    """

    c_excited: complex
    c_ground: complex
    n: int
    t: float

    def norm_sq(self) -> float:
        return abs(self.c_excited) ** 2 + abs(self.c_ground) ** 2


def _check_coupling(coupling) -> None:
    if not coupling > 0:
        raise ValidationError(f"coupling must be positive, got {coupling!r}")


def jc_amplitudes(n: int, coupling: float, t: float) -> JcAmplitudes:
    """Evolve |e, n> for time ``t`` at the given coupling.

    Returns cos(theta) on |e, n> and -i sin(theta) on |g, n+1> with
    theta = coupling * t * sqrt(n + 1); a theta past ``series.PHASE_LIMIT``
    or a negative ``t`` raises ValidationError.
    """
    n = check_integer(n, 0, "n must be a non-negative integer, got {!r}")
    _check_coupling(coupling)
    check_phase(coupling * math.sqrt(n + 1.0), t, "number-state amplitudes")
    check_times(t)
    theta = coupling * t * math.sqrt(n + 1.0)
    return JcAmplitudes(
        c_excited=complex(math.cos(theta)),
        c_ground=complex(0.0, -math.sin(theta)),
        n=n,
        t=float(t),
    )


def jc_number_entropy(n, coupling, t):
    """Linear entropy of the qubit for an oscillator prepared in |n>.

    zeta(t) = sin^2(2 * coupling * sqrt(n+1) * t) / 2, periodic with period
    pi / (2 * coupling * sqrt(n+1)) and bounded by [0, 0.5].  ``t`` may be a
    scalar or an array; a phase past ``series.PHASE_LIMIT`` or a negative
    time raises ValidationError.
    """
    n = check_integer(n, 0, "n must be a non-negative integer, got {!r}")
    _check_coupling(coupling)
    freq = 2.0 * coupling * math.sqrt(n + 1.0)
    check_phase(freq, t, "number-state entropy")
    t = check_times(t)
    zeta = 0.5 * np.sin(freq * t) ** 2
    return zeta if zeta.ndim else float(zeta)


def jc_mixture_entropy(f, coupling, t):
    """Linear entropy of the qubit for the mixed oscillator preparation
    f |0><0| + (1-f) |1><1|.

    The result is a quasi-periodic combination of the two incommensurate
    branch frequencies ``coupling`` and ``sqrt(2) * coupling``:

        zeta = 1 - [f cos^2(L t) + (1-f) cos^2(sqrt(2) L t)]^2
                 - [f sin^2(L t) + (1-f) sin^2(sqrt(2) L t)]^2

    with L = coupling.  ``t`` may be a scalar or an array; a phase
    sqrt(2) * coupling * t past ``series.PHASE_LIMIT`` or a negative time
    raises ValidationError.  Only the returned array grows with the number of
    times, which are walked in slices of ``series.CHUNK_POINTS``.
    """
    f = check_probability(f, "f")
    _check_coupling(coupling)
    check_phase(math.sqrt(2.0) * coupling, t, "vacuum/one-photon mixture")
    t = check_times(t)
    zeta = np.empty(t.shape)
    times, out = t.reshape(-1), zeta.reshape(-1)
    for start in range(0, times.size, CHUNK_POINTS):
        part = slice(start, start + CHUNK_POINTS)
        th1 = coupling * times[part]
        th2 = math.sqrt(2.0) * coupling * times[part]
        excited = f * np.cos(th1) ** 2 + (1.0 - f) * np.cos(th2) ** 2
        ground = f * np.sin(th1) ** 2 + (1.0 - f) * np.sin(th2) ** 2
        # rounding can land an ulp outside the mathematical range [0, 1/2]
        np.clip(1.0 - excited**2 - ground**2, 0.0, 0.5, out=out[part])
    return zeta if zeta.ndim else float(zeta)
