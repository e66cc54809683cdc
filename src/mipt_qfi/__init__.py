"""Quantum Fisher information toolkit for the monitored Ising chain.

Simulates the no-click (post-selected) dynamics of the transverse-field
Ising chain under continuous monitoring of the local occupations, and
computes the QFI in two metrological scenarios: the witness of
multipartite entanglement under a collective x-rotation, and the
sensitivity to the monitoring rate after a measurement quench.
"""

from .errors import ConfigError, NumericalFault, ToleranceFailure
from .fitting import fit_exponential_rate, fit_power_law
from .qfi import critical_mode_coefficient, fbar, qfi_quench
from .realspace import entanglement_depth, evolve, evolve_series, init_state, witness_qfi
from .spectral import ModelParams, critical_gamma, spectrum_table

__version__ = "0.1.0"

# what the six experiments and the library example in README.md call
__all__ = [
    "ConfigError",
    "ModelParams",
    "NumericalFault",
    "ToleranceFailure",
    "critical_gamma",
    "critical_mode_coefficient",
    "entanglement_depth",
    "evolve",
    "evolve_series",
    "fbar",
    "fit_exponential_rate",
    "fit_power_law",
    "init_state",
    "qfi_quench",
    "spectrum_table",
    "witness_qfi",
]
