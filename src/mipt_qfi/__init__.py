"""Quantum Fisher information toolkit for the monitored Ising chain.

Simulates the no-click (post-selected) dynamics of the transverse-field
Ising chain under continuous monitoring of the local occupations, and
computes the QFI in two metrological scenarios: the witness of
multipartite entanglement under a collective x-rotation, and the
sensitivity to the monitoring rate after a measurement quench.
"""

from ._kernels import pfaffian
from .errors import (
    ConfigError,
    NoCriticalPointError,
    NumericalFault,
    QuadratureError,
    ToleranceFailure,
)
from .fitting import FitResult, fit_exponential_rate, fit_power_law
from .qfi import (
    ModeQfiCoefficient,
    critical_mode_coefficient,
    fbar,
    mode_qfi_coefficients,
    qfi_quench,
    r_matrix,
)
from .quench import (
    BogoliubovAmplitudes,
    evolve_amplitudes,
    ising_ground_amplitudes,
    mode_occupations,
    site_occupation,
)
from .realspace import (
    GaussianState,
    energy_expectation,
    entanglement_depth,
    evolve,
    init_state,
    majorana_correlations,
    witness_qfi,
    xx_correlator,
)
from .spectral import (
    Mode,
    ModelParams,
    critical_gamma,
    critical_momentum,
    gap_character,
    mode_system,
    momentum_grid,
    spectrum_table,
)

__version__ = "0.1.0"

__all__ = [
    "BogoliubovAmplitudes",
    "ConfigError",
    "FitResult",
    "GaussianState",
    "Mode",
    "ModeQfiCoefficient",
    "ModelParams",
    "NoCriticalPointError",
    "NumericalFault",
    "QuadratureError",
    "ToleranceFailure",
    "critical_gamma",
    "critical_mode_coefficient",
    "critical_momentum",
    "energy_expectation",
    "entanglement_depth",
    "evolve",
    "evolve_amplitudes",
    "fbar",
    "fit_exponential_rate",
    "fit_power_law",
    "gap_character",
    "init_state",
    "ising_ground_amplitudes",
    "majorana_correlations",
    "mode_occupations",
    "mode_qfi_coefficients",
    "mode_system",
    "momentum_grid",
    "pfaffian",
    "qfi_quench",
    "r_matrix",
    "site_occupation",
    "spectrum_table",
    "witness_qfi",
    "xx_correlator",
]
