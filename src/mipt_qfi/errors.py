"""Exception types shared across the package.

The CLI maps these onto distinct exit codes (config error, tolerance
failure, numerical fault), so library code should raise the most
specific class that applies.
"""


class ConfigError(ValueError):
    """Invalid experiment configuration (bad field, unknown key, bad grid)."""


class NoCriticalPointError(ValueError):
    """Criticality requested for |h| >= 1, where no real critical rate exists."""


class NumericalFault(RuntimeError):
    """A numerical procedure failed (overflow, lost normalization, rank collapse, ...)."""


class QuadratureError(NumericalFault):
    """Adaptive quadrature did not reach the requested tolerance.

    No package code integrates numerically any more: only the adaptive
    Simpson reference of the tests (`tests/_reference.py`) raises it.  The
    benchmark in `perfbench/` counts it apart from NumericalFault.
    """

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved tolerance {achieved:.3e})")
        self.achieved = achieved


class ToleranceFailure(RuntimeError):
    """A cross-check ended up above its tolerance (oracle-check runs)."""
