"""tcsim: exact entropy dynamics of a qubit-oscillator system weakly coupled
to a single-qubit environment, with a brute-force matrix-evolution oracle
cross-checking every closed form."""

from .analysis import (
    RevivalReport,
    SpectrumReport,
    dominant_frequencies,
    find_revivals,
    time_average,
)
from .jc import JcAmplitudes, jc_amplitudes, jc_mixture_entropy, jc_number_entropy
from .oracle import (
    OracleConfig,
    Propagator,
    build_hamiltonian,
    initial_density,
    oracle_entropy_series,
    purity,
    reduce_qubit1,
)
from .series import TimeSeries
from .states import (
    Couplings,
    EnvironmentMixture,
    FockDistribution,
    SystemConfig,
    TimeGrid,
    binomial_state,
    fano_factor,
    number_state,
    validate,
)
from .tc import (
    CoefficientQuad,
    SpectralParams,
    entropy_series,
    spectral_params,
    tc_coefficients,
    tc_coefficients_primed,
)

__version__ = "0.1.0"

__all__ = [
    "TimeSeries",
    "FockDistribution",
    "EnvironmentMixture",
    "Couplings",
    "TimeGrid",
    "SystemConfig",
    "number_state",
    "binomial_state",
    "fano_factor",
    "validate",
    "JcAmplitudes",
    "jc_amplitudes",
    "jc_number_entropy",
    "jc_mixture_entropy",
    "SpectralParams",
    "CoefficientQuad",
    "spectral_params",
    "tc_coefficients",
    "tc_coefficients_primed",
    "entropy_series",
    "OracleConfig",
    "Propagator",
    "build_hamiltonian",
    "initial_density",
    "reduce_qubit1",
    "purity",
    "oracle_entropy_series",
    "RevivalReport",
    "SpectrumReport",
    "find_revivals",
    "time_average",
    "dominant_frequencies",
    "__version__",
]
