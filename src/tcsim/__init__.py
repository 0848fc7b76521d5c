"""tcsim: exact entropy dynamics of a qubit-oscillator system weakly coupled
to a single-qubit environment, with a brute-force matrix-evolution oracle
cross-checking every closed form.

Each name below is imported from its submodule on first access, so importing
the package, or one of its submodules, loads no layer that is not used."""

import importlib

__version__ = "0.1.0"

_SUBMODULE_NAMES = {
    "series": ("TimeSeries",),
    "states": ("FockDistribution", "EnvironmentMixture", "Couplings", "TimeGrid", "SystemConfig",
               "number_state", "binomial_state", "fano_factor", "validate"),
    "jc": ("JcAmplitudes", "jc_amplitudes", "jc_number_entropy", "jc_mixture_entropy"),
    "tc": ("SpectralParams", "spectral_params", "entropy_series"),
    "oracle": ("Propagator", "build_hamiltonian", "initial_density", "reduce_qubit1", "purity",
               "oracle_entropy_series"),
    "analysis": ("RevivalReport", "SpectrumReport", "find_revivals", "time_average",
                 "dominant_frequencies"),
}
_SUBMODULE = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = [*_SUBMODULE, "__version__"]


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
